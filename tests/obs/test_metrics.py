"""repro.obs.metrics: registry conventions, exposition grammar, weakrefs."""

import gc
import re
from dataclasses import dataclass, field

import pytest

from repro.obs.metrics import (
    CONTENT_TYPE,
    Family,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    Stats,
    counter,
)

# Prometheus text format 0.0.4 sample-line grammar (simplified but strict
# enough to catch label/value formatting bugs).
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" [^ ]+$"
)


def assert_valid_exposition(text: str) -> None:
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _SAMPLE.match(line), f"bad sample line: {line!r}"


@dataclass
class _Stats(Stats):
    """A stats record covering every rendering convention."""

    hits: int = counter()
    depth: int = 7
    calls: dict = counter(default_factory=dict)
    rungs_total: int = counter()
    backend: str = "thread"
    armed: bool = True
    last_seconds: float | None = None
    events: list = field(default_factory=list)


@dataclass
class _Gauge(Stats):
    v: int = 1


class _Holder:
    """A stats-bearing owner the registry can weakref."""

    def __init__(self, stats):
        self.stats = stats


def _register(reg, holder, prefix="t", **kwargs):
    reg.register_object(holder, lambda h: h.stats, prefix=prefix, **kwargs)


class TestInstruments:
    def test_histogram_buckets_are_cumulative(self):
        h = Histogram((0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        fam = h.family("t_seconds")
        by_le = {labels["le"]: value for suffix, labels, value in fam.samples
                 if suffix == "_bucket"}
        assert by_le == {"0.1": 1, "1.0": 3, "10.0": 4, "+Inf": 5}
        sums = {suffix: value for suffix, labels, value in fam.samples
                if suffix in ("_sum", "_count")}
        assert sums["_count"] == 5
        assert sums["_sum"] == pytest.approx(56.05)

    def test_histogram_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram(())


class TestRegistryConventions:
    def test_counters_get_total_suffix_and_type(self):
        reg = MetricsRegistry()
        holder = _Holder(_Stats(hits=3, rungs_total=2))
        _register(reg, holder, labels={"instance": "t-1"})
        text = reg.render()
        assert '# TYPE t_hits_total counter' in text
        assert 't_hits_total{instance="t-1"} 3' in text
        assert '# TYPE t_depth gauge' in text
        assert 't_depth{instance="t-1"} 7' in text
        # a counter already named *_total is not suffixed twice
        assert 't_rungs_total{instance="t-1"} 2' in text
        assert "rungs_total_total" not in text
        assert_valid_exposition(text)

    def test_dict_values_expand_to_key_labels(self):
        reg = MetricsRegistry()
        holder = _Holder(_Stats(calls={"store.put": 4, "fleet.shard": 1}))
        _register(reg, holder)
        text = reg.render()
        assert '# TYPE t_calls_total counter' in text
        assert 't_calls_total{key="store.put"} 4' in text
        assert 't_calls_total{key="fleet.shard"} 1' in text

    def test_strings_fold_into_info_gauge(self):
        reg = MetricsRegistry()
        holder = _Holder(_Stats())
        _register(reg, holder, labels={"instance": "t-1"})
        text = reg.render()
        assert 't_info{backend="thread",instance="t-1"} 1' in text
        assert "t_backend" not in text

    def test_none_and_list_fields_are_not_rendered(self):
        reg = MetricsRegistry()
        holder = _Holder(_Stats(events=[{"a": 1}]))
        _register(reg, holder)
        text = reg.render()
        assert "t_last_seconds" not in text
        assert "t_events" not in text
        holder.stats.last_seconds = 0.5
        assert "t_last_seconds 0.5" in reg.render()

    def test_as_dict_is_the_json_view_of_the_same_record(self):
        stats = _Stats(hits=2, calls={"a": 1})
        assert stats.as_dict() == {
            "hits": 2, "depth": 7, "calls": {"a": 1}, "rungs_total": 0,
            "backend": "thread", "armed": True, "last_seconds": None,
            "events": []}

    def test_prebuilt_family_lists_pass_through(self):
        reg = MetricsRegistry()
        holder = _Holder(None)

        def collect(h):
            fam = Family("t_custom", "counter", "help text")
            fam.add(9, {"a": "b"}, suffix="_total")
            return [fam]

        reg.register_object(holder, collect, prefix="t")
        text = reg.render()
        assert "# HELP t_custom help text" in text
        assert 't_custom_total{a="b"} 9' in text

    def test_same_family_from_two_objects_merges(self):
        reg = MetricsRegistry()
        h1 = _Holder(_Stats(hits=1))
        h2 = _Holder(_Stats(hits=2))
        _register(reg, h1, labels={"instance": "a"})
        _register(reg, h2, labels={"instance": "b"})
        text = reg.render()
        assert text.count("# TYPE t_hits_total counter") == 1
        assert 't_hits_total{instance="a"} 1' in text
        assert 't_hits_total{instance="b"} 2' in text

    def test_dead_objects_are_pruned_not_scraped(self):
        reg = MetricsRegistry()
        holder = _Holder(_Stats(hits=1))
        _register(reg, holder)
        assert "t_hits" in reg.render()
        del holder
        gc.collect()
        assert "t_hits" not in reg.render()
        assert reg._adapters == []  # pruned, not just skipped

    def test_broken_adapter_does_not_poison_the_scrape(self):
        reg = MetricsRegistry()
        bad = _Holder(None)
        good = _Holder(_Gauge(v=1))

        def explode(h):
            raise RuntimeError("adapter bug")

        reg.register_object(bad, explode, prefix="bad")
        _register(reg, good, prefix="good")
        text = reg.render()
        assert "good_v 1" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        holder = _Holder(_Gauge(v=1))
        _register(reg, holder, labels={"path": 'a"b\\c\nd'})
        text = reg.render()
        assert 't_v{path="a\\"b\\\\c\\nd"} 1' in text
        assert_valid_exposition(text)

    def test_next_instance_is_monotonic_per_prefix(self):
        reg = MetricsRegistry()
        assert reg.next_instance("x") == "x-1"
        assert reg.next_instance("x") == "x-2"
        assert reg.next_instance("y") == "y-1"

    def test_bool_values_render_as_ints(self):
        reg = MetricsRegistry()
        holder = _Holder(_Stats())
        _register(reg, holder)
        assert "t_armed 1" in reg.render()
        holder.stats.armed = False
        assert "t_armed 0" in reg.render()


class TestGlobalRegistryIntegration:
    def test_sessions_register_and_render_valid_exposition(self):
        from repro.api import EmulationSession, RunSpec

        spec = RunSpec.grid(name="metrics-smoke", precisions=(8,),
                            accumulators=("fp32",), sources=("laplace",),
                            batch=64, n=4, seed=0)
        with EmulationSession() as session:
            session.sweep(spec)
            text = REGISTRY.render()
        assert_valid_exposition(text)
        assert CONTENT_TYPE.startswith("text/plain")
        rows = [l for l in text.splitlines()
                if l.startswith("repro_session_kernel_rows_total")]
        assert rows, text[:500]
        # this session's sample reports the rows it actually computed
        # (one kernel x batch=64 result rows)
        assert any(l.endswith(" 64") for l in rows)

    def test_store_counters_appear_after_use(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        store.put_json("t", "ab12" * 8, {"v": 1})
        assert store.get_json("t", "ab12" * 8) == {"v": 1}
        text = REGISTRY.render()
        assert "repro_store_hits_total" in text
        assert "repro_store_puts_total" in text


def _instance_of(obj) -> str:
    """The ``instance`` label ``obj`` registered under in the global registry."""
    for entry in REGISTRY._adapters:
        if entry["ref"]() is obj and "instance" in entry["labels"]:
            return entry["labels"]["instance"]
    raise LookupError(f"{type(obj).__name__} is not registered")


def _scraped(text: str, name: str, obj) -> float:
    """The value of ``name`` for ``obj``'s instance in an exposition."""
    prefix = f'{name}{{instance="{_instance_of(obj)}"}} '
    values = [line[len(prefix):] for line in text.splitlines()
              if line.startswith(prefix)]
    assert len(values) == 1, (prefix, values)
    return float(values[0])


class TestStatsSurfacesAgree:
    def test_stats_objects_service_stats_and_scrape_report_one_count(self, tmp_path):
        """A thread-backed sweep through an in-process service: the
        ``.stats`` records, ``service.stats()`` and a registry scrape read
        the same counters, so they report the same numbers."""
        from repro.api import RunSpec
        from repro.api.session import MIN_PARALLEL_ROWS
        from repro.service import SweepService

        spec = RunSpec.grid(name="surfaces", precisions=(12, 16),
                            accumulators=("fp32",), sources=("laplace",),
                            batch=2 * MIN_PARALLEL_ROWS, n=16, seed=3)
        # an accumulator-only variant re-packs the same operands (plan hits)
        twin = RunSpec.grid(name="surfaces-fp16", precisions=(12, 16),
                            accumulators=("fp16",), sources=("laplace",),
                            batch=2 * MIN_PARALLEL_ROWS, n=16, seed=3)
        service = SweepService(store=tmp_path / "store", backend="thread",
                               workers=2)
        try:
            for s in (spec, twin):
                job, _ = service.submit("sweep", s.to_dict())
                assert job.done.wait(120) and job.status == "done", job.error
            stats = service.stats()
            text = REGISTRY.render()
        finally:
            service.close()
        emulation, store = service.emulation.stats, service.store.stats
        assert emulation.tasks_dispatched >= 2  # the pool engaged
        assert emulation.plan_hits >= 2
        assert store.puts >= 1
        assert (emulation.tasks_dispatched
                == stats["emulation"]["tasks_dispatched"]
                == _scraped(text, "repro_session_tasks_dispatched_total",
                            service.emulation))
        assert (emulation.plan_hits == stats["emulation"]["plan_hits"]
                == _scraped(text, "repro_session_plan_hits_total",
                            service.emulation))
        assert (store.puts == stats["store"]["puts"]
                == _scraped(text, "repro_store_puts_total", service.store))
        assert (stats["timing"]["jobs_completed"] == 2
                == _scraped(text, "repro_service_jobs_completed_total", service))
