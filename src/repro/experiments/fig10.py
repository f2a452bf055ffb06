"""Figure 10: area- and power-efficiency design space of (precision, cluster).

Each design point (p, c) is a tile built from MC-IPU(p) units grouped into
clusters of c. INT efficiency (TOPS/mm², TOPS/W) comes from the cost model
at full INT4 rate; FP efficiency (TFLOPS/mm², TFLOPS/W) uses the *effective*
FP16 throughput — 9 nibble iterations times the average alignment cycles the
performance simulator measures for that (p, c) on the forward workloads.
NO-OPT is the 38-bit Baseline2-style tile.

Tile costs and the alignment-cycle simulations run through a
:class:`repro.api.DesignSession` (byte-identical outputs, session-cached
across cold/warm runs); the Pareto search delegates to the generic
:func:`repro.api.pareto_frontier`. For each (base tile, cluster, workload)
the widths below the software precision are simulated in one
:meth:`~repro.api.DesignSession.network_perfs` pass, which samples each
layer once for all of them; the alignment factors then read the session
memo. Widths at or above the software precision never stall (factor 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ipu.mc_ipu import BASELINE_ADDER_WIDTH
from repro.tile.config import BIG_TILE, CLOCK_GHZ, SMALL_TILE
from repro.tile.simulator import FP16_ITERATIONS
from repro.utils.table import render_table

__all__ = ["Fig10Point", "run", "render", "pareto_front"]

SOFTWARE_PRECISION_FP32 = 28
PRECISIONS = (12, 16, 20, 24, 28, BASELINE_ADDER_WIDTH)
CLUSTERS = (1, 4, None)  # None = whole tile (no clustering)
# The paper's effective throughput averages its four simulated benchmarks,
# three forward passes plus ResNet-18 backward (§4.4 "average effective
# throughput, using our simulation results").
WORKLOAD_MIX = (("resnet18", "forward"), ("resnet50", "forward"),
                ("inceptionv3", "forward"), ("resnet18", "backward"))


@dataclass(frozen=True)
class Fig10Point:
    tile: str
    precision: int
    cluster: int | None
    tops_mm2: float
    tflops_mm2: float
    tops_w: float
    tflops_w: float

    @property
    def label(self) -> str:
        c = "tile" if self.cluster is None else str(self.cluster)
        return f"({self.precision},{c})"



def run(samples: int = 384, rng: int = 31, tiles=(SMALL_TILE, BIG_TILE),
        session=None) -> list[Fig10Point]:
    from repro.api.design import use_session

    with use_session(session) as session:
        points = []
        for base in tiles:
            for c in CLUSTERS:
                narrow = [base.with_precision(w, c) for w in PRECISIONS
                          if w < SOFTWARE_PRECISION_FP32]
                for name, direction in WORKLOAD_MIX:
                    session.network_perfs(name, narrow, SOFTWARE_PRECISION_FP32,
                                          direction, samples, rng)
            for w in PRECISIONS:
                for c in CLUSTERS:
                    if w == BASELINE_ADDER_WIDTH and c is not None:
                        continue  # the baseline needs no clustering
                    tile = base.with_precision(w, c)
                    cost = session.tile_cost(tile, mode="fp")
                    int_ops = tile.multipliers_per_tile * 2 * CLOCK_GHZ * 1e9
                    af = session.alignment_factor(
                        tile, WORKLOAD_MIX, SOFTWARE_PRECISION_FP32, samples, rng)
                    fp_ops = int_ops / (FP16_ITERATIONS * af)
                    points.append(
                        Fig10Point(
                            tile=base.name, precision=w, cluster=c,
                            tops_mm2=int_ops / cost.area_mm2 / 1e12,
                            tflops_mm2=fp_ops / cost.area_mm2 / 1e12,
                            tops_w=int_ops / cost.power_w / 1e12,
                            tflops_w=fp_ops / cost.power_w / 1e12,
                        )
                    )
        return points


def pareto_front(points: list[Fig10Point], x: str = "tops_w", y: str = "tflops_w") -> list[Fig10Point]:
    """Points not dominated in the (x, y) efficiency plane (per base tile)."""
    from repro.api import pareto_frontier

    return pareto_frontier(points, x, y, within=lambda p: p.tile)


def render(points: list[Fig10Point]) -> str:
    blocks = []
    for tile_name in ("small", "big"):
        subset = [p for p in points if p.tile == tile_name]
        if not subset:
            continue
        base = next(p for p in subset if p.precision == BASELINE_ADDER_WIDTH)
        headers = ["(p,c)", "TOPS/mm2", "TFLOPS/mm2", "TOPS/W", "TFLOPS/W",
                   "area-eff vs NO-OPT", "FP-area-eff vs NO-OPT"]
        rows = []
        for p in subset:
            label = p.label if p.precision != BASELINE_ADDER_WIDTH else "NO-OPT"
            rows.append([
                label, round(p.tops_mm2, 2), round(p.tflops_mm2, 3),
                round(p.tops_w, 2), round(p.tflops_w, 3),
                f"{100 * (p.tops_mm2 / base.tops_mm2 - 1):+.0f}%",
                f"{100 * (p.tflops_mm2 / base.tflops_mm2 - 1):+.0f}%",
            ])
        n = "8-input" if tile_name == "small" else "16-input"
        blocks.append(render_table(headers, rows, title=f"Figure 10 — {n} MC-IPU tiles"))
        front = pareto_front(subset)
        blocks.append(
            "power-efficiency Pareto points: "
            + ", ".join(p.label for p in front if p.precision != BASELINE_ADDER_WIDTH)
        )
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
