"""Statistical cycle simulator: accounting laws and paper-shape checks."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.api import EmulationSession
from repro.ipu.ehu import ExponentHandlingUnit
from repro.nn.zoo import ConvShape, resnet18_convs
from repro.tile.config import BIG_TILE, SMALL_TILE
from repro.tile import simulator
from repro.tile.simulator import (
    FP16_ITERATIONS,
    int_mode_cycles,
    simulate_layer,
    simulate_network,
    simulate_networks,
    step_cycle_samples,
)
from repro.tile.tile import simulate_layer_queued
from repro.tile.workload import (
    ZERO_EXP,
    chunks_per_output,
    layer_ip_ops,
    product_exponents_from_tensors,
    sample_product_exponents,
)

LAYER = ConvShape("test", c_in=64, c_out=64, kh=3, kw=3, stride=1,
                  pad_h=1, pad_w=1, h=28, w=28)


class TestWorkAccounting:
    def test_chunks_per_output(self):
        assert chunks_per_output(LAYER, 16) == -(-64 * 9 // 16) == 36
        assert chunks_per_output(LAYER, 8) == 72

    def test_layer_ip_ops(self):
        assert layer_ip_ops(LAYER, 16) == 28 * 28 * 64 * 36

    def test_macs_consistency_with_zoo(self):
        # ip_ops * n >= MACs (padding of the last chunk only adds)
        for layer in resnet18_convs():
            assert layer_ip_ops(layer, 16) * 16 >= layer.macs
            assert layer_ip_ops(layer, 16) * 16 < layer.macs * 1.4 + 16 * layer.output_pixels * layer.c_out

    def test_sampled_product_exponents_are_int64(self):
        assert sample_product_exponents(LAYER, 16, 4, 8, rng=0).dtype == np.int64
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        weights = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        for session in (None, EmulationSession()):
            exps = product_exponents_from_tensors(inputs, weights, 1, 1, 16, 2, 8,
                                                  rng=0, session=session)
            assert exps.shape == (8, 2, 16) and exps.dtype == np.int64


class TestStepCycles:
    def test_uniform_exponents_one_cycle(self):
        exps = np.zeros((100, 4, 8), dtype=np.int64)
        cycles = step_cycle_samples(exps, adder_width=12, software_precision=28)
        assert np.all(cycles == 1)

    def test_group_max_semantics(self):
        # one IPU in the group needs 2 cycles -> the step costs 2
        exps = np.zeros((1, 2, 4), dtype=np.int64)
        exps[0, 1, 0] = 5  # shift 5 > sp(12)=3 for the others in that IPU
        cycles = step_cycle_samples(exps, adder_width=12, software_precision=28)
        assert cycles[0] == 2

    def test_wide_adder_always_one_cycle(self):
        rng = np.random.default_rng(0)
        exps = rng.integers(-28, 31, size=(50, 4, 8))
        cycles = step_cycle_samples(exps, adder_width=28, software_precision=28)
        assert np.all(cycles == 1)

    @pytest.mark.parametrize("width", [4, 8, 9])
    def test_sub_product_adder_has_no_serve_schedule(self, width):
        exps = np.zeros((4, 2, 8), dtype=np.int64)
        with pytest.raises(ValueError, match="no safe precision"):
            step_cycle_samples(exps, width, 28)
        with pytest.raises(ValueError, match="no safe precision"):
            step_cycle_samples(exps, [16, width], 28)

    def test_sub_product_width_meeting_software_precision_is_one_cycle(self):
        exps = np.zeros((4, 2, 8), dtype=np.int64)
        assert step_cycle_samples(exps, 9, 9).tolist() == [1] * 4

    def test_width_sequence_returns_one_row_per_width(self):
        exps = sample_product_exponents(LAYER, 16, 4, 64, rng=2)
        widths = (12, 38, 16, 12, 27)
        rows = step_cycle_samples(exps, widths, 28)
        assert rows.shape == (len(widths), 64) and rows.dtype == np.int64
        for width, row in zip(widths, rows):
            assert np.array_equal(row, step_cycle_samples(exps, width, 28))


@st.composite
def product_exponent_batches(draw):
    """``(samples, group, n)`` product exponents with zero-operand lanes,
    spreads up to 60 and, optionally, an IPU whose lanes but one are masked."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    spread = draw(st.integers(0, 60))
    exps = draw(arrays(np.int64, shape, elements=st.integers(-spread, 0)))
    zeros = draw(arrays(np.bool_, shape))
    exps = np.where(zeros, ZERO_EXP + exps, exps)
    if draw(st.booleans()):
        exps[0, 0, 0] = 0
        exps[0, 0, 1:] = -draw(st.integers(28, 60))  # shift >= every software precision
    return exps


def golden_step_cycles(exps, width, software_precision):
    """Per-sample lockstep cost from the scalar EHU's serve schedule."""
    if width >= software_precision:
        return [1] * exps.shape[0]
    ehu = ExponentHandlingUnit(software_precision)
    costs = []
    for sample in exps:
        per_ipu = []
        for lanes in sample:
            schedule = ehu.serve_schedule(ehu.plan(lanes.tolist(), [0] * len(lanes)), width - 9)
            per_ipu.append(len(schedule))
        costs.append(max(per_ipu))
    return costs


class TestStepCyclesMatchGoldenEHU:
    @settings(max_examples=150, deadline=None)
    @given(exps=product_exponent_batches(),
           widths=st.lists(st.integers(10, 38), min_size=1, max_size=4),
           software_precision=st.sampled_from([16, 26, 28]))
    def test_every_width_matches_the_scalar_schedule(
            self, exps, widths, software_precision):
        rows = step_cycle_samples(exps, widths, software_precision)
        assert rows.shape == (len(widths), exps.shape[0])
        for k, width in enumerate(widths):
            assert rows[k].tolist() == golden_step_cycles(
                exps, width, software_precision)
        single = [step_cycle_samples(exps, w, software_precision) for w in widths]
        assert np.array_equal(rows, np.stack(single))


class TestLayerSimulation:
    def test_baseline_cycles_formula(self):
        perf = simulate_layer(LAYER, BIG_TILE.with_precision(38), 28, samples=64, rng=0)
        expected_steps = -(-layer_ip_ops(LAYER, 16) // (4 * 64))
        assert perf.steps == expected_steps
        assert perf.cycles == expected_steps * FP16_ITERATIONS

    def test_narrow_adder_never_faster_than_baseline(self):
        base = simulate_layer(LAYER, BIG_TILE.with_precision(38), 28, samples=128, rng=1)
        narrow = simulate_layer(LAYER, BIG_TILE.with_precision(12), 28, samples=128, rng=1)
        assert narrow.cycles >= base.cycles

    def test_precision_monotonicity(self):
        cycles = []
        for w in (12, 16, 20, 28):
            perf = simulate_layer(LAYER, SMALL_TILE.with_precision(w), 28,
                                  samples=256, rng=2)
            cycles.append(perf.cycles)
        assert all(a >= b * 0.98 for a, b in zip(cycles, cycles[1:])), cycles

    def test_clustering_reduces_cycles(self):
        uncl = simulate_layer(LAYER, SMALL_TILE.with_precision(12), 28, samples=512, rng=3)
        c1 = simulate_layer(LAYER, SMALL_TILE.with_precision(12, 1), 28, samples=512, rng=3)
        assert c1.cycles < uncl.cycles

    def test_backward_slower_than_forward(self):
        fwd = simulate_layer(LAYER, SMALL_TILE.with_precision(16), 28, "forward",
                             samples=512, rng=4)
        bwd = simulate_layer(LAYER, SMALL_TILE.with_precision(16), 28, "backward",
                             samples=512, rng=4)
        assert bwd.cycles > fwd.cycles


class TestNetworkSimulation:
    def test_network_totals(self):
        layers = resnet18_convs()[:5]
        perf = simulate_network(layers, BIG_TILE.with_precision(38), 28,
                                samples=32, rng=5, name="r18-head")
        assert perf.total_cycles == sum(l.cycles for l in perf.layers)
        assert len(perf.layers) == 5

    def test_normalization_identity(self):
        layers = resnet18_convs()[:4]
        perf = simulate_network(layers, BIG_TILE.with_precision(38), 28, samples=32, rng=6)
        assert perf.normalized_to(perf) == 1.0

    def test_paper_shape_small_beats_big_on_mc12(self):
        """§4.3: 8-input MC-IPUs outperform 16-input (fewer products ->
        fewer multi-cycle events), in normalized terms."""
        layers = resnet18_convs()[4:10]
        small = simulate_network(layers, SMALL_TILE.with_precision(12, 1), 16,
                                 samples=384, rng=7)
        small_base = simulate_network(layers, SMALL_TILE.with_precision(38), 16,
                                      samples=96, rng=7)
        big = simulate_network(layers, BIG_TILE.with_precision(12, 1), 16,
                               samples=384, rng=7)
        big_base = simulate_network(layers, BIG_TILE.with_precision(38), 16,
                                    samples=96, rng=7)
        assert small.normalized_to(small_base) < big.normalized_to(big_base)


@pytest.fixture()
def sample_calls(monkeypatch):
    """Record the (n_inputs, group) of every exponent sampling pass."""
    calls = []

    def counting(layer, n_inputs, group, *args, **kwargs):
        calls.append((n_inputs, group))
        return sample_product_exponents(layer, n_inputs, group, *args, **kwargs)

    monkeypatch.setattr(simulator, "sample_product_exponents", counting)
    return calls


class TestBatchedNetworkSimulation:
    LAYERS = resnet18_convs()[3:6]
    WIDTHS = (12, 13, 16, 20, 24, 27, 28, 32, 38)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_equals_one_simulation_per_tile(self, direction):
        tiles = [SMALL_TILE.with_precision(w, c)
                 for c in (1, 4, None) for w in self.WIDTHS]
        kwargs = dict(direction=direction, samples=24, rng=9)
        batched = simulate_networks(self.LAYERS, tiles, 28, **kwargs)
        assert batched == [simulate_network(self.LAYERS, t, 28, **kwargs) for t in tiles]

    def test_mixed_geometries_sample_once_per_layer_and_geometry(self, sample_calls):
        tiles = [BIG_TILE.with_precision(12, 4), SMALL_TILE.with_precision(16),
                 BIG_TILE.with_precision(38), SMALL_TILE.with_precision(12, 4),
                 BIG_TILE.with_precision(20, 4), SMALL_TILE.with_precision(20)]
        batched = simulate_networks(self.LAYERS, tiles, 28, samples=16, rng=3)
        per_layer = len(self.LAYERS)
        assert Counter(sample_calls) == {(16, 4): per_layer, (8, 32): per_layer,
                                         (8, 4): per_layer}
        sample_calls.clear()
        single = [simulate_network(self.LAYERS, t, 28, samples=16, rng=3) for t in tiles]
        assert batched == single
        assert len(sample_calls) == 5 * per_layer  # the wide tile never samples

    def test_wide_tiles_are_never_sampled(self, sample_calls):
        tiles = [SMALL_TILE.with_precision(28), SMALL_TILE.with_precision(38, 4),
                 BIG_TILE.with_precision(38)]
        perfs = simulate_networks(self.LAYERS, tiles, 28, samples=16, rng=4)
        assert sample_calls == []
        for tile, perf in zip(tiles, perfs):
            for lp in perf.layers:
                assert lp.cycles_per_step == FP16_ITERATIONS
                assert lp.cycles == lp.steps * FP16_ITERATIONS

    def test_wide_tile_still_validates_its_arguments(self):
        with pytest.raises(ValueError):
            simulate_networks(self.LAYERS, [SMALL_TILE.with_precision(38, 64)], 28)
        with pytest.raises(ValueError):
            simulate_networks(self.LAYERS, [SMALL_TILE.with_precision(38)], 28,
                              direction="sideways")

    def test_network_name_is_kept(self):
        perf = simulate_network(self.LAYERS, SMALL_TILE, 28, samples=8, rng=0, name="r18")
        assert perf.name == "r18"

    def test_queued_wide_tile_still_draws_from_the_shared_generator(self):
        """simulate_layer_queued hands one Generator to simulate_layer and
        then samples again from it: a wide tile must still consume the
        decoupled pass's draws there, or the queue pass would change."""
        tile = SMALL_TILE.with_precision(38, 4)
        rng = np.random.default_rng(5)
        queued = simulate_layer_queued(LAYER, tile, 28, max_steps=40, rng=rng)
        ref = np.random.default_rng(5)
        sample_product_exponents(LAYER, 8, 4, 40, rng=ref)  # decoupled pass
        sample_product_exponents(LAYER, 8, 4, 40 * 8, rng=ref)  # 40 steps x 8 clusters
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
        assert queued.decoupled.cycles == queued.decoupled.steps * FP16_ITERATIONS


class TestIntMode:
    def test_int4_vs_int8_cycle_ratio(self):
        layers = resnet18_convs()[:6]
        c44 = int_mode_cycles(layers, BIG_TILE, 4, 4)
        c88 = int_mode_cycles(layers, BIG_TILE, 8, 8)
        assert c88 == 4 * c44

    def test_int_mode_ignores_adder_width(self):
        layers = resnet18_convs()[:3]
        assert int_mode_cycles(layers, BIG_TILE.with_precision(12), 8, 4) == \
            int_mode_cycles(layers, BIG_TILE.with_precision(38), 8, 4)
