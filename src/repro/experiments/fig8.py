"""Figure 8: normalized execution time vs (a) MC-IPU precision, (b) cluster size.

Four workloads, as in the paper: ResNet-18 / ResNet-50 / InceptionV3 forward
and ResNet-18 backward, all with FP32 accumulation (28-bit software
precision), on both the 8-input (Baseline1-relative) and 16-input
(Baseline2-relative) tiles.

Simulations run through a :class:`repro.api.DesignSession`, whose
value-keyed performance cache eliminates the repeated baseline simulation
per axis point (the baseline depends on the workload only, not on the
swept precision/cluster) — results stay byte-identical to the uncached
path because the simulator is deterministic in its integer seed. The
precision sweep fills all of a workload's widths with one
:meth:`~repro.api.DesignSession.network_perfs` call: the sampled exponents
do not depend on the adder width, so each layer is sampled once for every
width below the software precision (the 28-bit point and the 38-bit
baseline are never multi-cycle and need no sample).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ipu.mc_ipu import BASELINE_ADDER_WIDTH
from repro.nn.zoo import WORKLOADS
from repro.tile.config import BIG_TILE, SMALL_TILE, TileConfig
from repro.utils.table import render_table

__all__ = ["run_precision_sweep", "run_cluster_sweep", "render"]

SOFTWARE_PRECISION_FP32 = 28
PRECISIONS = (12, 16, 20, 24, 28)
CLUSTER_SIZES = (1, 2, 4, 8)

WORKLOAD_SET = [
    ("resnet18-fwd", "resnet18", "forward"),
    ("resnet50-fwd", "resnet50", "forward"),
    ("inceptionv3-fwd", "inceptionv3", "forward"),
    ("resnet18-bwd", "resnet18", "backward"),
]


@dataclass
class SweepResult:
    axis_label: str
    axis: tuple
    # {tile name: {workload: [normalized times along axis]}}
    values: dict[str, dict[str, list[float]]] = field(default_factory=dict)


_LAYER_CACHE: dict = {}


def _layers(zoo_name: str):
    # instantiate each workload's layer list once per process: the sweep
    # loops re-visit every workload per tile and per axis point
    if zoo_name not in _LAYER_CACHE:
        _LAYER_CACHE[zoo_name] = WORKLOADS[zoo_name]()
    return _LAYER_CACHE[zoo_name]


def _baseline(session, base: TileConfig, layers, direction, samples, rng):
    return session.network_perf(layers, base, SOFTWARE_PRECISION_FP32, direction,
                                samples=max(samples // 4, 64), rng=rng)


def _normalized(session, tile: TileConfig, base: TileConfig, layers, direction,
                samples, rng):
    perf = session.network_perf(layers, tile, SOFTWARE_PRECISION_FP32, direction,
                                samples=samples, rng=rng)
    return perf.normalized_to(_baseline(session, base, layers, direction, samples, rng))


def run_precision_sweep(samples: int = 512, rng: int = 11, session=None) -> SweepResult:
    """Fig 8(a): normalized time vs adder-tree precision (no clustering)."""
    from repro.api.design import use_session

    with use_session(session) as session:
        result = SweepResult("MC-IPU precision", PRECISIONS)
        for tile in (SMALL_TILE, BIG_TILE):
            base = tile.with_precision(BASELINE_ADDER_WIDTH)
            result.values[tile.name] = {}
            for label, zoo_name, direction in WORKLOAD_SET:
                layers = _layers(zoo_name)
                perfs = session.network_perfs(
                    layers, [tile.with_precision(w) for w in PRECISIONS],
                    SOFTWARE_PRECISION_FP32, direction, samples=samples, rng=rng)
                ref = _baseline(session, base, layers, direction, samples, rng)
                result.values[tile.name][label] = [p.normalized_to(ref) for p in perfs]
        return result


def run_cluster_sweep(samples: int = 512, rng: int = 12, width: int = 16,
                      session=None) -> SweepResult:
    """Fig 8(b): normalized time vs cluster size at MC-IPU(16)."""
    from repro.api.design import use_session

    with use_session(session) as session:
        result = SweepResult(f"cluster size (MC-IPU({width}))", CLUSTER_SIZES)
        for tile in (SMALL_TILE, BIG_TILE):
            base = tile.with_precision(BASELINE_ADDER_WIDTH)
            result.values[tile.name] = {}
            for label, zoo_name, direction in WORKLOAD_SET:
                layers = _layers(zoo_name)
                series = [
                    _normalized(session, tile.with_precision(width, c), base, layers,
                                direction, samples, rng)
                    for c in CLUSTER_SIZES
                ]
                result.values[tile.name][label] = series
        return result


def render(result: SweepResult) -> str:
    blocks = []
    for tile_name, workloads in result.values.items():
        baseline = "Baseline1" if tile_name == "small" else "Baseline2"
        headers = ["workload"] + [str(x) for x in result.axis]
        rows = [[wl] + [round(v, 3) for v in series] for wl, series in workloads.items()]
        blocks.append(
            render_table(
                headers, rows,
                title=f"Figure 8 — exec time vs {result.axis_label}, "
                      f"{tile_name} tile (normalized to {baseline})",
            )
        )
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover
    print(render(run_precision_sweep()))
    print()
    print(render(run_cluster_sweep()))


if __name__ == "__main__":  # pragma: no cover
    main()
