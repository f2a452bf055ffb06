"""Trace context across executor boundaries.

The two invariants under test: (1) every worker span is parented into the
submitting trace across thread pools, and (2) arming the tracer never
changes a result byte.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.api import EmulationSession, RunSpec
from repro.obs.trace import install

# Big enough to engage the parallel executors (rows >= MIN_PARALLEL_ROWS).
SPEC = RunSpec.grid(name="obs-propagation", precisions=(8, 16),
                    accumulators=("fp32",), sources=("laplace", "normal"),
                    batch=8192, n=16, seed=3)


@pytest.fixture(scope="module")
def reference_points():
    with EmulationSession() as session:
        return session.sweep(SPEC).points


def _stats_dicts(points):
    return [dataclasses.asdict(p.stats) for p in points]


def _sweep_traced(backend, workers=2):
    with install() as tracer:
        with EmulationSession(backend=backend, workers=workers) as session:
            sweep = session.sweep(SPEC)
        return sweep.points, tracer.export()


def _assert_chunks_parented(spans, backend):
    kernels = {s["span_id"]: s for s in spans if s["name"] == "engine.kernels"}
    chunks = [s for s in spans if s["name"] == "executor.chunk"]
    assert chunks, f"no executor.chunk spans for backend {backend}"
    for c in chunks:
        assert c["attrs"]["backend"] == backend
        assert c["parent_id"] in kernels, c
    assert len({s["trace_id"] for s in spans}) == 1
    return chunks


class TestThreadBackend:
    def test_chunk_spans_parented_and_results_identical(self, reference_points):
        points, spans = _sweep_traced("thread")
        assert _stats_dicts(points) == _stats_dicts(reference_points)
        chunks = _assert_chunks_parented(spans, "thread")
        assert all(c["pid"] == os.getpid() for c in chunks)

    def test_chunk_spans_unique_and_disjoint(self, reference_points):
        """Concurrent chunks each record one span, over distinct row ranges."""
        points, spans = _sweep_traced("thread", workers=3)
        assert _stats_dicts(points) == _stats_dicts(reference_points)
        chunks = _assert_chunks_parented(spans, "thread")
        ids = [s["span_id"] for s in spans]
        assert len(ids) == len(set(ids))
        for kernel in {c["parent_id"] for c in chunks}:
            ranges = sorted((c["attrs"]["lo"], c["attrs"]["hi"])
                            for c in chunks if c["parent_id"] == kernel)
            assert all(hi0 <= lo1 for (_, hi0), (lo1, _) in zip(ranges, ranges[1:]))


class TestByteIdentity:
    @pytest.mark.parametrize("backend,workers",
                             [("serial", 2), ("thread", 2), ("thread", 3)],
                             ids=["serial", "thread", "thread3"])
    def test_armed_vs_disarmed_identical(self, backend, workers, reference_points):
        points, spans = _sweep_traced(backend, workers)
        assert spans  # armed actually recorded something
        assert _stats_dicts(points) == _stats_dicts(reference_points)


_HASHSEED_SCRIPT = """\
import json
from repro.api import EmulationSession, RunSpec
from repro.obs.trace import install

spec = RunSpec.grid(name="obs-hashseed", precisions=(8, 16),
                    accumulators=("fp32",), sources=("laplace", "normal"),
                    batch=8192, n=16, seed=3)
with install() as tracer:
    with EmulationSession(backend="thread", workers=2) as session:
        sweep = session.sweep(spec)
spans = tracer.export()
names = {}
by_id = {s["span_id"]: s for s in spans}
for s in spans:
    parent = by_id.get(s["parent_id"])
    edge = (parent["name"] if parent else None, s["name"])
    names[str(edge)] = names.get(str(edge), 0) + 1
out = {
    "points": [[p.source, p.acc_fmt, p.precision,
                p.stats.mean_abs_error] for p in sweep.points],
    "edges": names,
    "traces": len({s["trace_id"] for s in spans}),
}
print(json.dumps(out, sort_keys=True))
"""


def test_propagation_is_hash_seed_independent():
    """The span topology (and the results) are identical under different
    PYTHONHASHSEEDs — nothing in the trace plumbing leans on dict/set
    iteration order."""
    outputs = []
    for hashseed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env.setdefault("PYTHONPATH", "src")
        proc = subprocess.run([sys.executable, "-c", _HASHSEED_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
