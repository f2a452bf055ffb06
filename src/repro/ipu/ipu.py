"""Bit-accurate scalar model of the mixed-precision IPU (paper §2, Figure 1).

This is the golden model: readable, arbitrary-precision, and structured
exactly like the hardware (nibble iterations over 5b×5b multipliers, local
shift + truncate, w-bit adder tree, swap-and-shift accumulator). The fast
vectorized emulation in :mod:`repro.ipu.engine` is validated against it.

A single class covers both the plain IPU and the multi-cycle MC-IPU: an
IPU(w) whose width meets the software precision runs one cycle per nibble
iteration (truncating large alignments), while a narrower unit decomposes
large alignments over multiple cycles via the EHU serve schedule (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fp.formats import FP16, FP32, FPClass, FPFormat
from repro.ipu.accumulator import Accumulator
from repro.ipu.datapath import AdderTree, LocalShifter, SignedMultiplier5x5
from repro.ipu.ehu import ExponentHandlingUnit
from repro.ipu.theory import safe_precision
from repro.nibble.decompose import fp_magnitude_to_nibbles, int_to_nibbles
from repro.nibble.schedule import fp_schedule, int_schedule

__all__ = ["IPUConfig", "InnerProductUnit", "FPIPResult", "SOFTWARE_PRECISION"]

# Minimum software precision preserving CPU-level accuracy (paper §3.1/§4.1):
# 16 bits when accumulating into FP16, 28 bits when accumulating into FP32.
SOFTWARE_PRECISION = {"fp16": 16, "fp32": 28}


@dataclass(frozen=True)
class IPUConfig:
    """Static parameters of one IPU instance.

    ``adder_width`` is the paper's IPU precision ``w``; ``software_precision``
    is the accuracy the accumulator type demands (alignment shifts at or
    beyond it are masked). ``w >= software_precision`` implies single-cycle
    operation; smaller ``w`` engages the multi-cycle serve loop.
    """

    n_inputs: int = 16
    adder_width: int = 28
    software_precision: int = 28
    max_accumulations: int = 512

    def __post_init__(self):
        if self.n_inputs < 1:
            raise ValueError("n_inputs must be >= 1")
        # MC operation needs a positive safe precision; single-cycle
        # (truncating) operation tolerates sub-product windows.
        safe_precision(self.adder_width, strict=not self.single_cycle)

    @property
    def sp(self) -> int:
        return safe_precision(self.adder_width)

    @property
    def single_cycle(self) -> bool:
        return self.adder_width >= self.software_precision

    @staticmethod
    def for_accumulator(acc_fmt: FPFormat, n_inputs: int = 16, adder_width: int = 28,
                        max_accumulations: int = 512) -> "IPUConfig":
        return IPUConfig(
            n_inputs=n_inputs,
            adder_width=adder_width,
            software_precision=SOFTWARE_PRECISION[acc_fmt.name],
            max_accumulations=max_accumulations,
        )


@dataclass
class FPIPResult:
    """Outcome of one FP inner-product operation."""

    bits: int
    fmt: FPFormat
    cycles: int
    alignment_cycles: int  # cycles of the worst nibble iteration (=1 if single)
    max_exp: int

    @property
    def value(self) -> float:
        return self.fmt.decode_value(self.bits)


class InnerProductUnit:
    """One IPU: n multipliers, local shifters, a w-bit adder tree, and an
    accumulator, driven by a (possibly shared) EHU."""

    def __init__(self, config: IPUConfig):
        self.config = config
        self.multiplier = SignedMultiplier5x5()
        self.shifter = LocalShifter(config.adder_width)
        self.adder_tree = AdderTree(config.n_inputs, config.adder_width)
        self.ehu = ExponentHandlingUnit(config.software_precision)
        self.accumulator = Accumulator(config.n_inputs, config.max_accumulations)

    # ------------------------------------------------------------------ INT

    def int_dot(
        self,
        a: list[int],
        b: list[int],
        a_bits: int = 4,
        b_bits: int = 4,
        signed: bool = True,
        accumulate: bool = False,
    ) -> tuple[int, int]:
        """Integer inner product via nibble iterations.

        Returns ``(result, cycles)``; exact for any supported widths. The
        cycle count is ``Ka * Kb`` (one cycle per nibble iteration, no
        alignment in INT mode).
        """
        if len(a) != len(b) or len(a) != self.config.n_inputs:
            raise ValueError("operand vectors must match the IPU width")
        if not accumulate:
            self.accumulator.reset()
        a_nibs = [int_to_nibbles(x, a_bits, signed) for x in a]
        b_nibs = [int_to_nibbles(x, b_bits, signed) for x in b]
        schedule = int_schedule(a_bits, b_bits)
        for it in schedule:
            products = [
                self.multiplier.multiply(an[it.i], bn[it.j])
                for an, bn in zip(a_nibs, b_nibs)
            ]
            # INT mode: local shift amount is always 0
            shifted = [self.shifter.shift(p, 0) for p in products]
            tree = self.adder_tree.sum(shifted)
            # strip the sp fraction bits of the shifter word convention
            # (exact: INT mode never shifts, so the low sp bits are zero)
            if self.config.sp >= 0:
                self.accumulator.add_integer(tree >> self.config.sp, it.significance)
            else:
                self.accumulator.add_integer(tree << -self.config.sp, it.significance)
        return self.accumulator.to_int(), len(schedule)

    # ------------------------------------------------------------------- FP

    def fp_dot(
        self,
        a_bits: list[int],
        b_bits: list[int],
        in_fmt: FPFormat = FP16,
        out_fmt: FPFormat = FP32,
        accumulate: bool = False,
    ) -> FPIPResult:
        """Floating-point inner product (Figure 2's approximate FP-IP).

        ``a_bits``/``b_bits`` are vectors of raw ``in_fmt`` patterns. The
        result is rounded into ``out_fmt`` unless ``accumulate`` keeps the
        running partial sum for chained calls (weight-stationary partials).
        """
        n = self.config.n_inputs
        if len(a_bits) != n or len(b_bits) != n:
            raise ValueError("operand vectors must match the IPU width")
        if not accumulate:
            self.accumulator.reset()

        da = [in_fmt.decode(x) for x in a_bits]
        db = [in_fmt.decode(x) for x in b_bits]
        for d in (*da, *db):
            if d.fpclass in (FPClass.INF, FPClass.NAN):
                raise ValueError("FP-IP operands must be finite")

        plan = self.ehu.plan([d.unbiased_exp for d in da], [d.unbiased_exp for d in db])
        sign = [x.sign ^ y.sign for x, y in zip(da, db)]
        a_nibs = [fp_magnitude_to_nibbles(in_fmt, d.magnitude) for d in da]
        b_nibs = [fp_magnitude_to_nibbles(in_fmt, d.magnitude) for d in db]

        if self.config.single_cycle:
            groups = [list(range(n))]
        else:
            groups = self.ehu.serve_schedule(plan, self.config.sp)
        alignment_cycles = len(groups)

        schedule = fp_schedule(in_fmt)
        frac = _product_fraction_bits(in_fmt)
        for it in schedule:
            for cycle, members in enumerate(groups):
                coarse = 0 if self.config.single_cycle else cycle * self.config.sp
                inputs = []
                for k in range(n):
                    serving = (k in members) and not plan.masked[k]
                    if not serving:
                        inputs.append(0)  # bitwise-AND masking (Figure 4)
                        continue
                    p = self.multiplier.multiply(
                        -a_nibs[k][it.i] if sign[k] else a_nibs[k][it.i],
                        b_nibs[k][it.j],
                    )
                    inputs.append(self.shifter.shift(p, plan.shifts[k] - coarse))
                tree = self.adder_tree.sum(inputs)
                lsb_weight = it.significance - frac - self.config.sp - coarse
                self.accumulator.add(tree, lsb_weight, plan.max_exp)

        cycles = len(schedule) * alignment_cycles
        return FPIPResult(
            bits=self.accumulator.to_format(out_fmt),
            fmt=out_fmt,
            cycles=cycles,
            alignment_cycles=alignment_cycles,
            max_exp=plan.max_exp,
        )


def _product_fraction_bits(fmt: FPFormat) -> int:
    """Fraction bits of a nibble-pair product at the (0,0) significance.

    For FP16 the product of two magnitudes carries 22 fraction bits
    (paper: "each FP number has 3-bit int and 22-bit fraction positions");
    nibble (i, j) has significance ``4*(i+j) - 2*(man_bits + shift)``.
    """
    from repro.nibble.decompose import fp_nibble_weight_exp

    return -2 * fp_nibble_weight_exp(fmt, 0)
