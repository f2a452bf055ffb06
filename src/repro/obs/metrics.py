"""Unified pull-based metrics registry with Prometheus text exposition.

The registry is *pull-based*: nothing on a hot path ever touches it. Every
counter lives in one place, a field of its owner's stats dataclass (a
:class:`Stats` subclass: ``SessionStats``, ``StoreStats``, ``ServiceStats``,
``FleetStats``, ...). Each owner registers a weakref **adapter** —
``collect_fn(obj)`` returning that stats object — and the registry renders
its fields only when scraped (``GET /v1/metrics`` or ``REGISTRY.render()``).
The owner's ``.stats``/``stats()`` JSON surfaces read the same object, so
the surfaces cannot disagree. Dead weakrefs are pruned on collect, so the
many short-lived sessions created by tests never leak.

Field rendering conventions:

* numeric field                      -> one sample
* ``dict[str, number]`` field        -> one sample per entry, keyed by a
  ``key=...`` label (e.g. per-kind design-cache hits)
* string field                       -> folded into a ``<prefix>_info`` gauge
  as a label (Prometheus "info" idiom)
* bool field                         -> 0/1
* field declared with :func:`counter` -> typed ``counter`` and suffixed
  ``_total``; every other field is a ``gauge``
* anything else (``None``, lists)    -> not rendered

Families a flat dataclass cannot express (labelled by job status, endpoint
or chaos site; the :class:`Histogram` of per-job wall time) are returned
from an adapter as a list of ready-made :class:`Family` rows.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "Stats",
    "counter",
    "Histogram",
    "Family",
    "MetricsRegistry",
    "REGISTRY",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


@dataclass
class Family:
    """One metric family: a name, a type, and its labeled samples.

    For histograms the samples carry the ``_bucket``/``_sum``/``_count``
    suffixes in ``suffix`` so the family name stays the declared one.
    """

    name: str
    kind: str = "gauge"  # counter | gauge | histogram
    help: str = ""
    samples: list = field(default_factory=list)  # (suffix, labels, value)

    def add(self, value: float, labels: Optional[dict] = None, suffix: str = "") -> None:
        self.samples.append((suffix, dict(labels or {}), value))


_COUNTER = {"counter": True}


def counter(default=0, *, default_factory=None):
    """Declare a stats-dataclass field as a monotonic counter.

    The registry renders it as a ``<prefix>_<name>_total`` counter; the
    field itself is the counter's only store.
    """
    if default_factory is not None:
        return field(default_factory=default_factory, metadata=_COUNTER)
    return field(default=default, metadata=_COUNTER)


class Stats:
    """Base of every stats dataclass: one ``as_dict()`` JSON view."""

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_BUCKETS = (0.005, 0.025, 0.1, 0.5, 1.0, 2.5, 10.0, 60.0)


class Histogram:
    """Fixed-bucket cumulative histogram (thread-safe)."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise ValueError("histogram needs at least one bucket")
        self.uppers = uppers
        self.counts = [0] * len(uppers)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, upper in enumerate(self.uppers):
                if value <= upper:
                    self.counts[i] += 1

    def family(self, name: str, labels: Optional[dict] = None, help: str = "") -> Family:
        fam = Family(name=name, kind="histogram", help=help)
        labels = dict(labels or {})
        with self._lock:
            # observe() increments every bucket with upper >= value, so the
            # per-bucket counts are already cumulative as Prometheus expects.
            for upper, count in zip(self.uppers, self.counts):
                fam.add(count, {**labels, "le": _format_value(upper)}, "_bucket")
            fam.add(self.count, {**labels, "le": "+Inf"}, "_bucket")
            fam.add(self.sum, labels, "_sum")
            fam.add(self.count, labels, "_count")
        return fam


class MetricsRegistry:
    """Holds weakref adapters; builds families only when scraped."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._adapters: list = []
        self._instance_counters: dict = {}

    def next_instance(self, prefix: str) -> str:
        """A stable ``instance`` label value like ``store-3``."""
        with self._lock:
            counter = self._instance_counters.setdefault(prefix, itertools.count(1))
            return f"{prefix}-{next(counter)}"

    def register_object(
        self,
        obj: Any,
        collect_fn: Callable[[Any], Any],
        *,
        prefix: str,
        labels: Optional[dict] = None,
    ) -> None:
        """Register ``obj`` via a weakref; ``collect_fn(obj)`` runs at scrape.

        ``collect_fn`` returns a :class:`Stats` dataclass (rendered per the
        module conventions) or a list of ready-made :class:`Family` rows.
        """
        entry = {
            "ref": weakref.ref(obj),
            "fn": collect_fn,
            "prefix": prefix,
            "labels": dict(labels or {}),
        }
        with self._lock:
            self._adapters.append(entry)

    def _families_for(self, entry: dict, obj: Any) -> list:
        stats = entry["fn"](obj)
        if isinstance(stats, list):  # pre-built families
            return stats
        prefix, labels = entry["prefix"], entry["labels"]
        families = []
        info_labels: dict = {}
        for f in fields(stats):
            value = getattr(stats, f.name)
            if isinstance(value, str):
                info_labels[f.name] = value
                continue
            is_counter = f.metadata.get("counter", False)
            name = f"{prefix}_{f.name}"
            if is_counter and not name.endswith("_total"):
                name += "_total"
            fam = Family(name=name, kind="counter" if is_counter else "gauge")
            if isinstance(value, dict):
                for sub, subval in list(value.items()):
                    if isinstance(subval, (int, float)):
                        fam.add(subval, {**labels, "key": str(sub)})
            elif isinstance(value, (int, float)):  # bools render as 0/1
                fam.add(value, labels)
            else:
                continue
            families.append(fam)
        if info_labels:
            fam = Family(name=f"{prefix}_info", kind="gauge")
            fam.add(1, {**labels, **info_labels})
            families.append(fam)
        return families

    def collect(self) -> list:
        """All families from live adapters, merged by family name."""
        with self._lock:
            adapters = list(self._adapters)
        merged: dict = {}
        dead = []
        for entry in adapters:
            obj = entry["ref"]()
            if obj is None:
                dead.append(entry)
                continue
            try:
                families = self._families_for(entry, obj)
            except Exception:  # a broken adapter must not poison the scrape
                continue
            for fam in families:
                existing = merged.get(fam.name)
                if existing is None:
                    merged[fam.name] = fam
                elif existing.kind == fam.kind:
                    existing.samples.extend(fam.samples)
                    if not existing.help and fam.help:
                        existing.help = fam.help
        if dead:
            with self._lock:
                self._adapters = [e for e in self._adapters if e not in dead]
        return [merged[name] for name in sorted(merged)]

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines = []
        for fam in self.collect():
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for suffix, labels, value in fam.samples:
                lines.append(
                    f"{fam.name}{suffix}{_format_labels(labels)} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        with self._lock:
            self._adapters.clear()


REGISTRY = MetricsRegistry()
