"""EmulationSession: plan caching, parallel bit-exactness, consumer parity."""

import numpy as np
import pytest

from repro.api import EmulationSession, PrecisionPoint, RunSpec
from repro.fp.formats import FP16, FP32
from repro.ipu.engine import KernelPoint, fp_ip_points, pack_operands, plan_values


def operands(batch=64, n=8, seed=0):
    rng = np.random.default_rng(seed)
    scale = np.exp2(rng.integers(-6, 7, (batch, n)))
    a = (rng.laplace(0, 1, (batch, n)) * scale).astype(np.float16).astype(np.float64)
    b = rng.normal(0, 1, (batch, n)).astype(np.float16).astype(np.float64)
    return a, b


def assert_results_equal(got, want, ctx=""):
    assert np.array_equal(got.values, want.values), ctx
    assert np.array_equal(got.rounded, want.rounded), ctx
    assert got.rounded.dtype == want.rounded.dtype, ctx
    assert np.array_equal(got.max_exp, want.max_exp), ctx
    assert np.array_equal(got.alignment_cycles, want.alignment_cycles), ctx
    assert np.array_equal(got.total_cycles, want.total_cycles), ctx


class TestPlanCache:
    def test_pack_caches_by_content(self):
        a, _ = operands()
        s = EmulationSession()
        p1 = s.pack(a)
        p2 = s.pack(a.copy())  # different object, same bytes
        assert p1 is p2
        assert s.stats.plan_misses == 1 and s.stats.plan_hits == 1

    def test_formats_cached_separately(self):
        a, _ = operands()
        s = EmulationSession()
        assert s.pack(a, "fp16") is not s.pack(a, "fp32")
        assert s.stats.plan_misses == 2

    def test_pack_passthrough_checks_format(self):
        a, _ = operands()
        plan = pack_operands(a, FP16)
        s = EmulationSession()
        assert s.pack(plan) is plan
        with pytest.raises(ValueError):
            s.pack(plan, "fp32")

    def test_eviction_respects_byte_budget(self):
        a, _ = operands(batch=32)
        s = EmulationSession(plan_cache_bytes=1)  # room for one plan at most
        s.pack(a)
        s.pack(a + 1.0)
        assert s.stats.plan_evictions >= 1
        assert len(s._plans) == 1

    def test_cache_disabled(self):
        a, _ = operands()
        s = EmulationSession(plan_cache_bytes=0)
        assert s.pack(a) is not s.pack(a)
        assert s.stats.plan_misses == 0  # not even counted

    def test_plan_values_round_trip(self):
        a, _ = operands()
        assert np.array_equal(plan_values(pack_operands(a, FP16)),
                              a.astype(np.float16).astype(np.float64))

    def test_close_clears_state(self):
        a, b = operands()
        s = EmulationSession(workers=2)
        s.inner_product(a, b, 16)
        s.close()
        assert not s._plans and s.executor._pool is None


class TestKernels:
    def test_inner_product_matches_engine(self):
        a, b = operands()
        s = EmulationSession()
        got = s.inner_product(a, b, PrecisionPoint(12, 28, True))
        want = fp_ip_points(pack_operands(a, FP16), pack_operands(b, FP16),
                            [KernelPoint(12, 28, True)])[0]
        assert_results_equal(got, want)

    def test_int_points_accepted(self):
        a, b = operands()
        s = EmulationSession()
        assert_results_equal(s.inner_product(a, b, 16),
                             s.inner_product(a, b, PrecisionPoint(16)))

    def test_accumulator_variants_share_kernel(self):
        a, b = operands()
        s = EmulationSession()
        r16, r32 = s.inner_products(
            a, b, [PrecisionPoint(16, accumulator="fp16"), PrecisionPoint(16)])
        assert np.array_equal(r16.values, r32.values)
        assert r16.rounded.dtype == np.float16
        assert r32.rounded.dtype == np.float32

    def test_exact_accumulator_keeps_register_bits(self):
        """kulisch write-back is the identity: .rounded == exact .values."""
        a, b = operands()
        res = EmulationSession().inner_product(
            a, b, PrecisionPoint(38, accumulator="kulisch"))
        assert res.rounded.dtype == np.float64
        assert np.array_equal(res.rounded, res.values)

    def test_fake_quantize_fp_session_parity(self):
        """Same results and same non-finite contract with or without session."""
        from repro.nn.quantize import fake_quantize_fp

        a, _ = operands()
        with EmulationSession() as s:
            assert np.array_equal(fake_quantize_fp(a, "fp16", session=s),
                                  fake_quantize_fp(a, "fp16"))
            with pytest.raises(ValueError):
                fake_quantize_fp(np.array([np.inf]), "fp16", session=s)
        with pytest.raises(ValueError):
            fake_quantize_fp(np.array([np.inf]), "fp16")

    def test_int_dot(self):
        s = EmulationSession()
        a = np.array([[1, -2, 3, 4]])
        b = np.array([[5, 6, -7, 7]])
        res, cycles = s.int_dot(a, b, 4, 4)
        assert res[0] == 1 * 5 - 12 - 21 + 28
        assert cycles == 1
        with pytest.raises(OverflowError):
            s.int_dot(a, np.array([[8, 0, 0, 0]]), 4, 4)

    def test_rejects_bad_point_type(self):
        a, b = operands()
        with pytest.raises(TypeError):
            EmulationSession().inner_product(a, b, "16")


class TestParallel:
    @pytest.mark.parametrize("backend", ["thread"])
    @pytest.mark.parametrize("workers", [2, 3, 4, 5])
    def test_parallel_bit_exact(self, workers, backend):
        a, b = operands(batch=6000, n=8, seed=3)
        points = [PrecisionPoint(12), PrecisionPoint(16),
                  PrecisionPoint(12, 28, True)]
        serial = EmulationSession().inner_products(a, b, points)
        with EmulationSession(workers=workers, backend=backend) as par:
            parallel = par.inner_products(a, b, points)
            assert par.stats.parallel_batches == 1
            assert par.stats.backend == backend
            assert par.stats.tasks_dispatched == workers
        for s_res, p_res in zip(serial, parallel):
            assert_results_equal(s_res, p_res)

    @pytest.mark.parametrize("backend,workers", [("thread", 4), ("thread", 3)],
                             ids=["thread", "thread3"])
    def test_parallel_broadcast_weight_row(self, backend, workers):
        """A single weight plan row broadcast against a parallel batch."""
        a, b = operands(batch=5000, n=8, seed=4)
        w = b[:1]
        serial = EmulationSession().inner_product(a, w, 16)
        with EmulationSession(workers=workers, backend=backend) as par:
            parallel = par.inner_product(a, w, 16)
        assert_results_equal(serial, parallel)

    def test_small_batches_stay_serial(self):
        a, b = operands(batch=16)
        with EmulationSession(workers=4) as s:
            s.inner_product(a, b, 16)
            assert s.stats.parallel_batches == 0
            assert s.executor._pool is None

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            EmulationSession(workers=0)

    def test_workers_default_to_thread_backend(self):
        with EmulationSession(workers=2) as s:
            assert s.stats.backend == "thread"
        with EmulationSession() as s:
            assert s.stats.backend == "serial"


class TestSweep:
    def spec(self, **kw):
        base = dict(precisions=(12, 16), accumulators=("fp16", "fp32"),
                    sources=("laplace",), batch=400, n=8, chunks=2, seed=7)
        base.update(kw)
        return RunSpec.grid(**base)

    def test_sweep_point_grid(self):
        sweep = EmulationSession().sweep(self.spec())
        assert [(p.source, p.acc_fmt, p.precision) for p in sweep.points] == [
            ("laplace", "fp16", 12), ("laplace", "fp32", 12),
            ("laplace", "fp16", 16), ("laplace", "fp32", 16),
        ]

    def test_sweep_deterministic_from_seed(self):
        s = EmulationSession()
        assert s.sweep(self.spec()).points == s.sweep(self.spec()).points

    def test_parallel_sweep_bit_identical(self):
        spec = self.spec(batch=3000, chunks=2)
        serial = EmulationSession().sweep(spec)
        with EmulationSession(workers=3) as par:
            parallel = par.sweep(spec)
        assert serial.points == parallel.points

    def test_kulisch_accumulator_is_near_exact(self):
        """Exact accumulation at width 38 differs from the FP32-CPU reference
        only by the reference's own per-step float32 rounding."""
        spec = self.spec(precisions=(38,), accumulators=("kulisch",), chunks=1)
        sweep = EmulationSession().sweep(spec)
        stats = sweep.points[0].stats
        assert stats.median_abs_error < 1e-6
        assert stats.median_rel_error_pct < 1e-4

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            EmulationSession().sweep(RunSpec(points=()))


class TestEmulatedInference:
    def _model_and_batch(self):
        from repro.nn.models import tiny_convnet

        rng = np.random.default_rng(0)
        model = tiny_convnet(rng=rng)
        x = rng.normal(0, 1, (2, 3, 12, 12)).astype(np.float32)
        return model, x

    def test_conv2d_matches_direct_path(self):
        from repro.analysis.accuracy import emulated_conv2d

        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (2, 3, 8, 8))
        w = rng.normal(0, 0.5, (4, 3, 3, 3))
        bias = rng.normal(0, 0.1, 4)
        want = emulated_conv2d(x, w, bias, 1, 1, 16)
        with EmulationSession() as s:
            got = s.conv2d(x, w, bias, stride=1, padding=1, precision=16)
            again = s.conv2d(x, w, bias, stride=1, padding=1, precision=12)
        assert np.array_equal(got, want)
        assert s.stats.plan_hits >= 1  # second precision reused the act plan
        assert not np.array_equal(again, want)

    def test_forward_matches_direct_path(self):
        from repro.analysis.accuracy import emulated_forward

        model, x = self._model_and_batch()
        want = emulated_forward(model, x, 12, FP32, {})
        with EmulationSession() as s:
            got = s.forward(model, x, 12)
        assert np.array_equal(got, want)

    def test_forward_none_is_reference(self):
        model, x = self._model_and_batch()
        with EmulationSession() as s:
            model.eval()
            assert np.array_equal(s.forward(model, x, None), model(x))

    def test_non_float_accumulator_rejected(self):
        model, x = self._model_and_batch()
        with pytest.raises(ValueError):
            EmulationSession().forward(model, x, 12, accumulator="kulisch")
