"""runner --trace/--profile and the uniform --json stats footer."""

import json

import pytest

from repro.api import DesignSweepSpec, RunSpec
from repro.experiments.runner import main

SPEC = RunSpec.grid(name="obs-runner", precisions=(8, 12),
                    accumulators=("fp32",), sources=("laplace",),
                    batch=400, n=8, seed=5)

DESIGN_SPEC_DICT = DesignSweepSpec.grid(
    name="obs-runner-design", designs=("MC-IPU4", "FP16"),
    tiles=("small",), samples=24, rng=41).to_dict()


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC.to_dict()))
    return str(path)


def _result_lines(text: str) -> list[str]:
    """Result lines only: drop `[...]` footers and the --profile tree."""
    out = []
    for line in text.splitlines():
        if line.startswith("phase "):
            break  # the --profile tree trails the result
        if not line.startswith("["):
            out.append(line)
    return out


class TestTraceFlag:
    def test_trace_writes_chrome_json_and_output_identical(
            self, tmp_path, spec_path, capsys):
        assert main(["--spec", spec_path]) == 0
        plain = _result_lines(capsys.readouterr().out)

        trace_path = tmp_path / "trace.json"
        assert main(["--spec", spec_path, "--trace", str(trace_path)]) == 0
        traced_out = capsys.readouterr().out
        assert _result_lines(traced_out) == plain
        assert "[trace " in traced_out

        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert {"runner", "session.sweep", "engine.kernels"} <= names
        ids = {e["args"]["span_id"] for e in events}
        roots = [e for e in events if e["args"]["parent_id"] not in ids]
        assert len(roots) == 1 and roots[0]["name"] == "runner"
        assert roots[0]["args"]["mode"] == "spec"

    def test_profile_prints_wall_time_tree(self, spec_path, capsys):
        assert main(["--spec", spec_path, "--profile"]) == 0
        out = capsys.readouterr().out
        tree = out[out.index("phase "):]
        assert "runner" in tree and "session.sweep" in tree

    def test_trace_covers_design_spec(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(DESIGN_SPEC_DICT))
        trace_path = tmp_path / "trace.json"
        assert main(["--design-spec", str(path),
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        names = {e["name"]
                 for e in json.loads(trace_path.read_text())["traceEvents"]}
        assert {"runner", "design.sweep", "design.evaluate"} <= names

    def test_unwritable_trace_path_fails_cleanly(self, spec_path, capsys):
        rc = main(["--spec", spec_path, "--trace", "/nonexistent-dir/t.json"])
        assert rc == 2
        assert "cannot write trace" in capsys.readouterr().err


class TestNamedExperiments:
    def test_trace_keeps_output_and_spans_each_experiment(self, tmp_path, capsys):
        argv = ["fig7", "table1", "--quick"]
        assert main(argv) == 0
        plain = _result_lines(capsys.readouterr().out)

        trace_path = tmp_path / "trace.json"
        assert main(argv + ["--trace", str(trace_path)]) == 0
        traced_out = capsys.readouterr().out
        assert _result_lines(traced_out) == plain
        assert "[trace " in traced_out
        events = json.loads(trace_path.read_text())["traceEvents"]
        by_id = {e["args"]["span_id"]: e for e in events}
        roots = [e for e in events if e["args"]["parent_id"] not in by_id]
        assert len(roots) == 1 and roots[0]["name"] == "runner"
        assert roots[0]["args"]["mode"] == "experiment"
        spans = [e for e in events if e["name"].startswith("experiment.")]
        assert [e["name"] for e in spans] == ["experiment.fig7", "experiment.table1"]
        assert all(by_id[e["args"]["parent_id"]]["name"] == "runner" for e in spans)

    def test_profile_on_all_is_accepted(self, capsys, monkeypatch):
        from repro.experiments import runner

        fast = {name: runner.EXPERIMENTS[name] for name in ("fig7", "fig9")}
        monkeypatch.setattr(runner, "EXPERIMENTS", fast)
        assert main(["--all", "--quick", "--profile"]) == 0
        out = capsys.readouterr().out
        tree = out[out.index("phase "):]
        assert "experiment.fig7" in tree and "experiment.fig9" in tree


class TestFlagValidation:
    @pytest.mark.parametrize("argv", [
        ["--serve", "--trace", "t.json"],
        ["--verify-store", "x", "--trace", "t.json"],
        ["--trace", "t.json"],
        ["--serve", "--profile"],
        ["--profile"],
    ])
    def test_trace_profile_require_a_run_mode(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "only applies to" in err or "only apply" in err


class TestJsonStatsFooter:
    def test_spec_json_carries_session_stats(self, tmp_path, spec_path,
                                             capsys):
        out_path = tmp_path / "out.json"
        assert main(["--spec", spec_path, "--json", str(out_path)]) == 0
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["seconds"]["spec"] >= 0
        stats = doc["stats"]
        assert stats["kernel_rows"] > 0
        for key in ("plan_hits", "plan_misses", "tasks_dispatched", "backend"):
            assert key in stats

    def test_design_spec_json_carries_session_stats(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(DESIGN_SPEC_DICT))
        out_path = tmp_path / "out.json"
        assert main(["--design-spec", str(path),
                     "--json", str(out_path)]) == 0
        capsys.readouterr()
        stats = json.loads(out_path.read_text())["stats"]
        assert "hits" in stats and "misses" in stats

    def test_search_json_carries_search_stats(self, tmp_path, capsys):
        assert main(["--search", "examples/specs/search_quick.json",
                     "--store", str(tmp_path / "store"),
                     "--json", str(tmp_path / "out.json")]) == 0
        capsys.readouterr()
        stats = json.loads((tmp_path / "out.json").read_text())["stats"]
        assert stats["rungs_total"] >= 1

    def test_submit_json_carries_service_stats(self, tmp_path, spec_path,
                                               capsys):
        from repro.service import ServiceServer

        out_path = tmp_path / "out.json"
        with ServiceServer(port=0, token="obs-tok") as server:
            assert main(["--submit", spec_path, "--url", server.url,
                         "--token", "obs-tok",
                         "--json", str(out_path)]) == 0
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["stats"]["timing"]["jobs_completed"] >= 1
        assert doc["stats"]["queue"]["depth"] == 0

    def test_submit_with_trace_pulls_remote_spans(self, tmp_path, spec_path,
                                                  capsys):
        from repro.service import ServiceServer

        trace_path = tmp_path / "trace.json"
        with ServiceServer(port=0, token="obs-tok") as server:
            assert main(["--submit", spec_path, "--url", server.url,
                         "--token", "obs-tok",
                         "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace_spans" not in out  # telemetry never hits stdout
        names = {e["name"]
                 for e in json.loads(trace_path.read_text())["traceEvents"]}
        assert {"runner", "service.job", "session.sweep"} <= names
