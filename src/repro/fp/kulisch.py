"""Kulisch-style exact wide accumulator.

The related-work section cites Kulisch accumulation (Johnson 2018) as the
"no alignment error at all" design point: a fixed-point register wide enough
to hold any product of the source format exactly, so inner products
accumulate with zero rounding until the final reformat. We implement it as
the golden reference for FP-IP error analysis.
"""

from __future__ import annotations

from repro.fp.formats import FPFormat
from repro.fp.softfloat import decode_exact

__all__ = ["KulischAccumulator", "exact_inner_product_bits"]


class KulischAccumulator:
    """Exact accumulator for products of two ``fmt`` numbers.

    For FP16 the products span scales ``2*(min_exp - man_bits)`` (tiniest
    subnormal squared) through ``2*max_exp`` plus 2 integer bits — the 80-bit
    register the paper mentions (58-bit exponent range + 22 product fraction
    bits). We keep an arbitrary-precision integer at the fixed minimum scale,
    so accumulation is exact for any count of terms.
    """

    def __init__(self, fmt: FPFormat):
        self.fmt = fmt
        # LSB weight: product of two smallest-quantum numbers.
        self.scale = 2 * (fmt.min_exp - fmt.man_bits)
        self.register = 0
        self.count = 0

    @property
    def register_bits(self) -> int:
        """Width needed to hold one maximal product at this scale (no carry)."""
        max_mag = (1 << fmt_magnitude_bits(self.fmt)) - 1
        max_prod_scale = 2 * (self.fmt.max_exp - self.fmt.man_bits)
        return (max_mag * max_mag << (max_prod_scale - self.scale)).bit_length() + 1

    def add_product(self, a_bits: int, b_bits: int) -> None:
        sa, ea = decode_exact(self.fmt, a_bits)
        sb, eb = decode_exact(self.fmt, b_bits)
        self.register += (sa * sb) << ((ea + eb) - self.scale)
        self.count += 1

    def add_value(self, significand: int, scale: int) -> None:
        if scale < self.scale:
            raise ValueError("value has bits below the accumulator LSB")
        self.register += significand << (scale - self.scale)
        self.count += 1

    def to_float(self) -> float:
        return float(self.register) * 2.0**self.scale

    def round_to(self, out_fmt: FPFormat) -> int:
        """Terminal reformat (single RNE rounding) to ``out_fmt`` bits."""
        return out_fmt.round_fixed(self.register, self.scale)

    def reset(self) -> None:
        self.register = 0
        self.count = 0


def fmt_magnitude_bits(fmt: FPFormat) -> int:
    return fmt.man_bits + 1


def exact_inner_product_bits(fmt: FPFormat, a_bits: list[int], b_bits: list[int], out_fmt: FPFormat) -> int:
    """Exact inner product of two bit-pattern vectors, rounded once."""
    if len(a_bits) != len(b_bits):
        raise ValueError("operand vectors must have equal length")
    acc = KulischAccumulator(fmt)
    for x, y in zip(a_bits, b_bits):
        acc.add_product(x, y)
    return acc.round_to(out_fmt)
