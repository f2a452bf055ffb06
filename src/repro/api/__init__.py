"""Unified evaluation API: registries, declarative specs, sessions.

The stable front door to the repo's emulation *and* design-space stacks::

    from repro.api import EmulationSession, PrecisionPoint, RunSpec

    spec = RunSpec.grid(precisions=(8, 12, 16, 28),
                        accumulators=("fp16", "fp32"),
                        sources=("laplace", "normal"), batch=4000)
    with EmulationSession(workers=4, backend="thread") as session:
        sweep = session.sweep(spec)           # decode once, run every point
        res = session.inner_product(a, b, 16) # ad-hoc kernels share the cache
        for lo, hi, chunk in session.fp_ip_points_iter(a, b, [16]):
            ...                               # streaming, bounded memory

Execution backends (:mod:`repro.api.executor`: serial / thread)
are bit-identical — pick per session, per spec (``"executor"`` field), or
per replay (``runner --backend``).

    from repro.api import DesignSession

    with DesignSession() as ds:
        report = ds.evaluate("mc-ipu:8x4@24b")   # accuracy + TOPS/mm2 + TOPS/W
        reports = ds.sweep(DesignSweepSpec.grid(
            designs=("MC-IPU4", "mc-ipu:8x4@24b", "INT8"), tiles=("small",)))
        front = pareto_frontier(reports, x="tops_per_mm2@fp16",
                                y="-median_contaminated_bits")

Formats and accumulators are resolved through the string registries in
:mod:`repro.fp.registry` (``"fp16"``, ``"bfloat16"``, custom ``"e4m3"``, ...;
``"fp32"``/``"fp16"``/``"kulisch"``/``"int32"`` accumulators); hardware
designs and tiles through :mod:`repro.hw.registry` (``"MC-IPU4"``,
``"mc-ipu:4x4@20b"``, ``"int:8x8"``; ``"small"``, ``"16x16x2x2@20b/c4"``).
Every spec round-trips through JSON for ``runner --spec`` /
``runner --design-spec`` replay.
"""

from repro.api.design import (
    DesignReport,
    DesignSession,
    DesignSessionStats,
    pareto_frontier,
)
from repro.api.executor import ExecutorSpec, make_executor
from repro.api.report import render_design_reports, render_sweep
from repro.api.session import EmulationSession, SessionStats
from repro.api.spec import (
    DEFAULT_OP_PRECISIONS,
    DEFAULT_SOURCES,
    DesignPoint,
    DesignSpec,
    DesignSweepSpec,
    PrecisionPoint,
    RunSpec,
    TileSpec,
)
from repro.fp.registry import (
    AccumulatorSpec,
    accumulator_names,
    format_names,
    parse_accumulator,
    parse_format,
    register_accumulator,
    register_format,
)
from repro.hw.registry import (
    design_names,
    parse_design,
    parse_tile,
    register_design,
    register_tile,
    tile_names,
)
from repro.store import ResultStore, StoreStats

__all__ = [
    "EmulationSession", "SessionStats", "render_sweep",
    "ResultStore", "StoreStats",
    "ExecutorSpec", "make_executor",
    "DEFAULT_SOURCES", "PrecisionPoint", "RunSpec",
    "DesignSession", "DesignSessionStats", "DesignReport", "pareto_frontier",
    "render_design_reports",
    "DEFAULT_OP_PRECISIONS", "DesignSpec", "TileSpec", "DesignPoint",
    "DesignSweepSpec",
    "AccumulatorSpec", "accumulator_names", "format_names",
    "parse_accumulator", "parse_format",
    "register_accumulator", "register_format",
    "parse_design", "register_design", "design_names",
    "parse_tile", "register_tile", "tile_names",
]
