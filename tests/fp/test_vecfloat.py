"""Vectorized decode vs the scalar format decoder."""

import numpy as np
import pytest

from repro.fp.formats import FP16, FP32, FPClass
from repro.fp.vecfloat import bits_to_float, decode_array, float_to_bits, product_exponents
from repro.ipu.reference import cpu_fp32_dot, cpu_fp32_dot_batch


class TestDecodeArray:
    def test_matches_scalar_decoder_fp16(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate([
            rng.normal(0, 1, 500), rng.normal(0, 1e-6, 200),
            rng.normal(0, 1e4, 200), np.array([0.0, -0.0, 65504.0, 2.0**-24]),
        ]).astype(np.float16)
        dec = decode_array(FP16, vals.astype(np.float64))
        for i, v in enumerate(vals):
            d = FP16.decode(int(v.view(np.uint16)))
            assert dec.sign[i] == d.sign
            assert dec.unbiased_exp[i] == d.unbiased_exp
            assert dec.magnitude[i] == d.magnitude

    def test_signed_magnitude(self):
        dec = decode_array(FP16, np.array([1.0, -1.0]))
        assert dec.signed_magnitude[0] == -dec.signed_magnitude[1]

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            decode_array(FP16, np.array([np.inf]))

    def test_fp32_decode(self):
        vals = np.array([1.5, -0.25, 1e-40], dtype=np.float32)
        dec = decode_array(FP32, vals)
        assert dec.unbiased_exp[0] == 0
        assert dec.unbiased_exp[2] == FP32.min_exp  # subnormal

    def test_bits_round_trip(self):
        vals = np.array([3.5, -0.125], dtype=np.float16)
        bits = float_to_bits(FP16, vals)
        back = bits_to_float(FP16, bits)
        assert np.array_equal(back, vals)

    def test_product_exponents(self):
        a = decode_array(FP16, np.array([4.0, 0.5]))
        b = decode_array(FP16, np.array([2.0, 2.0]))
        assert product_exponents(a, b).tolist() == [3, 0]

    def test_shape_preserved(self):
        dec = decode_array(FP16, np.zeros((3, 4, 5)))
        assert dec.shape == (3, 4, 5)
        assert len(decode_array(FP16, np.zeros(7))) == 7


def _assert_matches_scalar(fmt, bits):
    """decode_array on the values of ``bits`` equals FPFormat.decode per element."""
    dec = decode_array(fmt, bits_to_float(fmt, bits))
    golden = [fmt.decode(int(b)) for b in bits]
    assert dec.sign.dtype == np.int8
    assert dec.unbiased_exp.dtype == np.int64
    assert dec.magnitude.dtype == np.int64
    assert dec.sign.tolist() == [d.sign for d in golden]
    assert dec.unbiased_exp.tolist() == [d.unbiased_exp for d in golden]
    assert dec.magnitude.tolist() == [d.magnitude for d in golden]


class TestDecodeArrayDifferential:
    def test_every_finite_fp16_pattern(self):
        bits = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
        bits = bits[(bits >> 10) & 0x1F != 0x1F]
        assert bits.size == 63488
        _assert_matches_scalar(FP16, bits)

    def test_random_fp32_with_subnormals_and_zeros(self):
        rng = np.random.default_rng(12)
        anything = rng.integers(0, 1 << 32, size=20000, dtype=np.uint64).astype(np.uint32)
        anything = anything[(anything >> 23) & 0xFF != 0xFF]
        sign = rng.integers(0, 2, size=2000, dtype=np.uint32) << 31
        subnormal = sign | rng.integers(1, 1 << 23, size=2000, dtype=np.uint32)
        zeros = np.array([0, 1 << 31], dtype=np.uint32)
        _assert_matches_scalar(FP32, np.concatenate([anything, subnormal, zeros]))

    @pytest.mark.parametrize("fmt", [FP16, FP32])
    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
    def test_specials_still_raise(self, fmt, special):
        with pytest.raises(ValueError, match="INF/NaN"):
            decode_array(fmt, np.array([1.0, special]))


class TestCPUReferences:
    def test_scalar_vs_batch_agree(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, (20, 8)).astype(np.float16).astype(np.float64)
        b = rng.normal(0, 1, (20, 8)).astype(np.float16).astype(np.float64)
        batch = cpu_fp32_dot_batch(a, b)
        for i in range(20):
            seq = cpu_fp32_dot(a[i], b[i])
            # sequential f32 rounding error is bounded by n*eps times the
            # magnitude sum (cancellation can amplify result-relative ulps)
            bound = 8 * np.finfo(np.float32).eps * np.abs(a[i] * b[i]).sum() + 1e-12
            assert abs(float(batch[i]) - float(seq)) <= bound

    def test_batch_dtype(self):
        out = cpu_fp32_dot_batch(np.ones((2, 4)), np.ones((2, 4)))
        assert out.dtype == np.float32
        assert np.all(out == 4.0)
