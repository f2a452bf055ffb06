"""Benchmark-side tracing: timing wrappers installed from outside the program.

:class:`Tracer` wraps public functions and methods of the ``repro`` layers
and records one span per outermost call: name, start, end, parent span,
thread, nesting depth and an optional work amount (rows, values, bytes).
Spans stay in memory; the iteration process hands them to ``run.py`` when
it ends. Nothing under ``src/`` is modified: a function is
replaced at *every* module that binds it, so a call through any import path
is seen (``sample_product_exponents``, for example, is bound in
``repro.tile.workload``, ``repro.tile.simulator``, ``repro.tile.tile`` and
``repro.analysis.exponents``).

:func:`attribute` turns one iteration's spans into self times: every
instant of the iteration is charged to the deepest span active at that
instant (worker-thread spans count as children of the main-thread span
that dispatched them), so the per-layer self times plus ``setup`` and
``other`` sum exactly to the iteration's wall time.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Span name -> layer (repro module) for the self-time table.
LAYER_OF = {
    "design.network_perf": "api.design",
    "design.sweep": "api.design",
    "tile.sample": "tile.workload",
    "nn.tensor_sample": "nn.sampling",
    "fp.decode": "fp.vecfloat",
    "tile.simulate_network": "tile.simulator",
    "tile.cycles": "tile.simulator",
    "hw.tile_cost": "hw",
    "nn.train": "nn.training",
    "analysis.conv": "analysis.accuracy",
    "engine.pack": "ipu.engine",
    "engine.kernels": "ipu.engine",
    "session.sweep": "api.session",
    "executor.run_points": "api.executor",
    "store.get": "store",
    "store.put": "store",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows(shape) -> int:
    return int(np.prod(shape[:-1], dtype=np.int64)) if len(shape) > 1 else 1


def _entry_bytes(store, kind: str, fp: str, suffix: str) -> int:
    # the store's documented layout: root/<kind>/<ab>/<fingerprint><suffix>
    path = Path(store.root) / kind / fp[:2] / f"{fp}{suffix}"
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _get_amount(suffix):
    def amount(args, kwargs, result):
        if result is None:
            return (0, 0)  # (bytes, hits)
        return (_entry_bytes(args[0], _arg(args, kwargs, 1, "kind"),
                             _arg(args, kwargs, 2, "fp"), suffix), 1)
    return amount


def _put_amount(suffix):
    def amount(args, kwargs, result):
        return _entry_bytes(args[0], _arg(args, kwargs, 1, "kind"),
                            _arg(args, kwargs, 2, "fp"), suffix)
    return amount


def _kernel_ips(args, kwargs, result):
    pa, pb = _arg(args, kwargs, 0, "pa"), _arg(args, kwargs, 1, "pb")
    points = _arg(args, kwargs, 2, "points")
    return _rows(np.broadcast_shapes(pa.shape, pb.shape)) * len(points)


# (defining module, attribute, span name, work amount or None)
FUNCTIONS = (
    ("repro.tile.workload", "sample_product_exponents", "tile.sample",
     lambda args, kwargs, result: int(result.size)),
    ("repro.fp.vecfloat", "decode_array", "fp.decode",
     lambda args, kwargs, result: int(np.size(_arg(args, kwargs, 1, "values")))),
    ("repro.tile.simulator", "simulate_network", "tile.simulate_network", None),
    ("repro.tile.simulator", "step_cycle_samples", "tile.cycles", None),
    ("repro.hw.tile_cost", "tile_cost", "hw.tile_cost", None),
    ("repro.nn.training", "train", "nn.train", None),
    ("repro.analysis.accuracy", "emulated_conv2d", "analysis.conv", None),
    ("repro.ipu.engine", "pack_operands", "engine.pack",
     lambda args, kwargs, result: _rows(np.shape(_arg(args, kwargs, 0, "values")))),
    ("repro.ipu.engine", "fp_ip_points", "engine.kernels", _kernel_ips),
)

# (defining module, class, method, span name, work amount or None)
METHODS = (
    ("repro.nn.sampling", "TensorModel", "sample", "nn.tensor_sample", None),
    ("repro.api.design", "DesignSession", "network_perf", "design.network_perf", None),
    ("repro.api.design", "DesignSession", "sweep", "design.sweep", None),
    ("repro.api.session", "EmulationSession", "sweep", "session.sweep", None),
    ("repro.api.executor", "SerialExecutor", "run_points", "executor.run_points", None),
    ("repro.api.executor", "ThreadExecutor", "run_points", "executor.run_points", None),
    ("repro.api.executor", "ProcessExecutor", "run_points", "executor.run_points", None),
    ("repro.store.store", "ResultStore", "get_json", "store.get", _get_amount(".json")),
    ("repro.store.store", "ResultStore", "get_arrays", "store.get", _get_amount(".npz")),
    ("repro.store.store", "ResultStore", "put_json", "store.put", _put_amount(".json")),
    ("repro.store.store", "ResultStore", "put_arrays", "store.put", _put_amount(".npz")),
)


def patch_function(module_name: str, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` at every loaded ``repro`` module binding it.

    Later imports of the name read the defining module, which now holds the
    wrapper too.
    """
    current = getattr(importlib.import_module(module_name), attr)
    wrapper = make_wrapper(current)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is current:
                setattr(mod, key, wrapper)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        # [name, start, end, parent index or -1, thread id, depth, amount]
        self.spans: list[list] = []
        self.recording = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, amount=None):
        """``fn`` wrapped to record a ``name`` span per outermost call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            spans = tracer.spans
            if any(spans[i][0] == name for i in stack):
                return fn(*args, **kwargs)  # re-entrant call: one span
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]  # dispatched from main thread
            else:
                parent = -1
            depth = spans[parent][5] + 1 if parent >= 0 else 0
            record = [name, 0.0, 0.0, parent, threading.get_ident(), depth, None]
            with tracer._lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                stack.pop()
            if amount is not None:
                record[6] = amount(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function and method listed in this module."""
        for module_name, attr, name, amount in FUNCTIONS:
            patch_function(module_name, attr,
                           lambda fn, n=name, a=amount: self.span(n, fn, a))
        for module_name, cls_name, attr, name, amount in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, attr, self.span(name, getattr(cls, attr), amount))

    @contextmanager
    def phase(self, name: str):
        """A phase marker span (depth -1: transparent to :func:`attribute`)."""
        record = [name, time.monotonic(), 0.0, -1, threading.get_ident(), -1, None]
        with self._lock:
            self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.monotonic()


def attribute(spans, t_first: float, t_end: float) -> dict[str, float]:
    """Self time per span name over ``[t_first, t_end]``, plus ``other``.

    Each instant goes to the deepest active span (ties: the latest
    started); instants covered by no span go to ``other``. Phase markers
    (depth -1) are ignored. The values sum to ``t_end - t_first``.
    """
    events = []
    for index, (name, start, end, _parent, _tid, depth, _amount) in enumerate(spans):
        if depth < 0:
            continue
        start, end = max(start, t_first), min(end, t_end)
        if end > start:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    out: dict[str, float] = {"other": 0.0}
    active: list[tuple] = []
    ended: set[int] = set()
    cursor = t_first
    for when, kind, index in events:
        while active and active[0][2] in ended:
            heapq.heappop(active)
        owner = spans[active[0][2]][0] if active else "other"
        out[owner] = out.get(owner, 0.0) + (when - cursor)
        cursor = when
        if kind:
            heapq.heappush(active, (-spans[index][5], -spans[index][1], index))
        else:
            ended.add(index)
    out["other"] += t_end - cursor
    return out
