"""Pluggable execution backends: one interface, serial / thread.

Both sessions used to own a private ``ThreadPoolExecutor``. This module
factors the fan-out into interchangeable backends behind one interface:

``SerialExecutor``
    runs everything inline; the reference semantics.

``ThreadExecutor``
    broadcast-slab the operand plans and run
    :func:`repro.ipu.engine.fp_ip_points` per span on a thread pool. NumPy
    releases the GIL inside the kernel's hot loops, so this scales on
    multi-core hosts without any serialization cost.

Task splitting is **chunk-granular**: spans along the leading batch axis are
aligned to the engine's cache-sized row blocks
(:func:`repro.ipu.engine.default_chunk_rows`), so every backend processes
the same chunks in the same order and the results are bit-identical to
serial execution (rows are independent; verified by the parity suite).

The declarative face is :class:`ExecutorSpec` (``{"backend": "thread",
"workers": 8}``), embedded in ``RunSpec``/``DesignSweepSpec`` JSON and
surfaced as ``runner --backend``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.obs.trace import trace_attach, trace_capture, trace_span
from repro.ipu.engine import (
    FPIPBatchResult,
    PackedOperands,
    _broadcast_plan,
    default_chunk_rows,
    fp_ip_points,
)

__all__ = ["ExecutorSpec", "BACKENDS", "make_executor",
           "SerialExecutor", "ThreadExecutor"]

BACKENDS = ("serial", "thread")


@dataclass(frozen=True)
class ExecutorSpec:
    """Declarative backend selection: JSON-safe, embeddable in run specs.

    ``workers=None`` means "every CPU this process may run on" for the
    thread backend and 1 for serial. ``from_dict`` accepts ``None``
    (→ default serial spec), a bare backend string, a dict, or an existing
    spec, so spec JSONs may say ``"executor": {"backend": "thread",
    "workers": 8}`` or just ``"executor": "thread"``.
    """

    backend: str = "serial"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown executor backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def resolved_workers(self) -> int:
        if self.workers is not None:
            return int(self.workers)
        if self.backend == "serial":
            return 1
        # the affinity mask, where the platform has one: a container or
        # taskset may allow fewer CPUs than the machine holds
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1

    def merged(self, backend: str | None = None,
               workers: int | None = None) -> "ExecutorSpec":
        """This spec with CLI-style overrides applied (None = keep)."""
        return ExecutorSpec(backend or self.backend,
                            self.workers if workers is None else workers)

    def to_dict(self) -> dict:
        return {"backend": self.backend, "workers": self.workers}

    @classmethod
    def from_dict(cls, d) -> "ExecutorSpec":
        if d is None:
            return cls()
        if isinstance(d, ExecutorSpec):
            return d
        if isinstance(d, str):
            return cls(backend=d)
        return cls(**d)


def resolve_executor_spec(backend=None, workers: int | None = None) -> ExecutorSpec:
    """The sessions' constructor convention, preserved from the PR-2 API:
    ``workers > 1`` with no explicit backend means threads (the historical
    behavior), ``workers in (None, 1)`` means serial. ``backend`` may be a
    name, an :class:`ExecutorSpec`, or a dict."""
    if backend is None:
        name = "serial" if workers is None or workers <= 1 else "thread"
        return ExecutorSpec(name, workers)
    spec = ExecutorSpec.from_dict(backend)
    if workers is not None:
        spec = spec.merged(workers=workers)
    return spec


def chunk_spans(dim0: int, inner: int, n: int, parts_limit: int,
                chunk_rows: int | None = None) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` spans of the leading axis, one per task.

    Span edges fall on multiples of the engine's row block (the same
    ``chunk_rows``-derived block :func:`fp_ip_points` chunks by), so a
    split run processes exactly the chunks a serial run would — task
    granularity never cuts a cache-sized chunk in half. When the batch
    holds fewer full chunks than workers, the granule shrinks so every
    worker still gets a span (splitting is bit-neutral at any granularity;
    alignment is a locality preference, not a correctness requirement).
    """
    if dim0 <= 0:
        return []
    rows_per_chunk = default_chunk_rows(n) if chunk_rows is None else chunk_rows
    block = max(1, rows_per_chunk // max(inner, 1))
    block = max(1, min(block, -(-dim0 // max(parts_limit, 1))))
    nblocks = -(-dim0 // block)
    parts = max(1, min(parts_limit, nblocks))
    edges = [min(dim0, (nblocks * i // parts) * block) for i in range(parts + 1)]
    edges[-1] = dim0
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


def _slab(plan: PackedOperands, shape: tuple[int, ...], lo: int, hi: int) -> PackedOperands:
    """One task's slice of a plan broadcast to the pair shape (zero-copy)."""
    sign, exp, nib = _broadcast_plan(plan, shape)
    return PackedOperands(plan.fmt, sign[lo:hi], exp[lo:hi], nib[lo:hi])


def _concat_results(slabs: list[list[FPIPBatchResult]]) -> list[FPIPBatchResult]:
    """Reassemble per-span result lists (span-major) into whole-batch results."""
    out = []
    for i in range(len(slabs[0])):
        parts = [s[i] for s in slabs]
        out.append(FPIPBatchResult(
            values=np.concatenate([p.values for p in parts]),
            rounded=np.concatenate([p.rounded for p in parts]),
            max_exp=np.concatenate([p.max_exp for p in parts]),
            alignment_cycles=np.concatenate([p.alignment_cycles for p in parts]),
            total_cycles=np.concatenate([p.total_cycles for p in parts]),
        ))
    return out


def _attached(state: dict, fn):
    """Wrap ``fn`` so pool threads run it under the captured trace context."""
    def wrapped(item):
        with trace_attach(state):
            return fn(item)
    return wrapped


class SerialExecutor:
    """Inline execution; the reference every other backend must match."""

    name = "serial"

    def __init__(self, workers: int = 1):
        self.workers = 1
        self.tasks_dispatched = 0

    def run_points(self, pa, pb, points, shape, chunk_rows=None):
        return fp_ip_points(pa, pb, points, chunk_rows=chunk_rows)

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]

    def close(self) -> None:
        pass


class ThreadExecutor:
    """Thread-pool fan-out (NumPy kernels release the GIL)."""

    name = "thread"

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self.tasks_dispatched = 0
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec")
            return self._pool

    def run_points(self, pa, pb, points, shape, chunk_rows=None):
        dim0 = shape[0]
        inner = int(np.prod(shape[1:-1], dtype=np.int64))
        spans = chunk_spans(dim0, inner, shape[-1], self.workers, chunk_rows)
        if len(spans) <= 1:
            return fp_ip_points(pa, pb, points, chunk_rows=chunk_rows)
        pool = self._ensure_pool()
        state = trace_capture()
        if state is None:  # disarmed fast path: submit the kernel directly
            futures = [
                pool.submit(fp_ip_points, _slab(pa, shape, lo, hi),
                            _slab(pb, shape, lo, hi), points, chunk_rows)
                for lo, hi in spans
            ]
        else:
            def traced(lo, hi):
                with trace_attach(state), trace_span(
                        "executor.chunk", backend="thread", lo=lo, hi=hi):
                    return fp_ip_points(_slab(pa, shape, lo, hi),
                                        _slab(pb, shape, lo, hi), points,
                                        chunk_rows=chunk_rows)
            futures = [pool.submit(traced, lo, hi) for lo, hi in spans]
        with self._lock:
            self.tasks_dispatched += len(futures)
        return _concat_results([f.result() for f in futures])

    def map(self, fn, items) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        state = trace_capture()
        if state is not None:
            fn = _attached(state, fn)
        futures = [pool.submit(fn, item) for item in items]
        with self._lock:
            self.tasks_dispatched += len(futures)
        return [f.result() for f in futures]

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


# The frozen benchmark tracer (perfbench/tracer.py) wraps
# ``ProcessExecutor.run_points`` when it installs, so the name must resolve.
# It is not a backend: it is the thread executor under a second name, and the
# tracer collapses the resulting double wrap into one span per call.
ProcessExecutor = ThreadExecutor


_BACKEND_CLASSES = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
}


def make_executor(backend=None, workers: int | None = None):
    """Build an executor from a spec/name/dict plus optional worker override."""
    spec = resolve_executor_spec(backend, workers)
    return _BACKEND_CLASSES[spec.backend](spec.resolved_workers)
