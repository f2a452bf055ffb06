"""The repository's benchmark: host time of the paper's two engines, end to end
and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload design-sim --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload spec-replay --seed 3 --seconds 30 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only if every correctness check passed.

What is measured
================

Every number is **host time** (what the simulator and emulator take to run
on this machine). The modelled hardware's simulated results (cycle counts,
error statistics, accuracies) are only checked for identity, never timed.
The hardware model is unvalidated against silicon; deviation from the paper's
figures belongs to the claims ledger on the ROADMAP, not to this benchmark.
``benchmarks/report.py`` and ``BENCH_*.json`` stay as they are: they are a
seed-vs-engine cross-check, not this benchmark.

Each iteration runs in a fresh interpreter (``perfbench/iteration.py``), so
process-level caches (``repro.analysis._model_cache``, ``fig8._LAYER_CACHE``,
session memos) start cold, as for a user's ``runner`` invocation. Iterations
run one after another: the load is one process with at most two threads. An
untraced run first starts six set-up-only interpreters, then starts
iterations until ``--seconds`` have passed since its start (at least one).

Workloads (experiment seeds derive from ``--seed``; seed 0 gives the
``runner`` defaults):

``design-sim``
    ``run(...)`` of fig7, fig8a, fig8b, fig9, fig10 and table1 at the
    runner's ``--quick`` sizes (128 / 128 / 500 / 96 / 96 samples), serial.
    Time goes to ``tile.workload`` exponent sampling, ``tile.simulator``
    cycle counting and ``api.design`` memoisation; the engine, training
    and the store do no work.
``nn-accuracy``
    ``trained_model("plain", 7 + seed)``, then ``accuracy_vs_precision``
    at precisions (8, 12) on the last 32 images, batch 32, on a serial
    ``EmulationSession``: training plus ~190 small engine calls.
``spec-replay``
    On a fresh, empty ``ResultStore``: a cold pass (a 2-thread
    ``EmulationSession`` sweeps the Figure-3 spec over laplace/normal/
    uniform, then a ``DesignSession`` sweeps the design-pareto spec at 384
    samples) and a warm pass (the same two calls in new sessions on the
    same store). The engine at large batch over the thread executor, store
    writes (cold) and reads (warm).

End-to-end metrics (``--trace 0``, every workload, untraced):

``setup_s`` [s]
    Interpreter start to the first operation (imports, spec generation,
    session and store construction); median over the set-up-only
    interpreters and the iterations (at least seven samples).
``wall_s`` [s]
    Interpreter start to the end of the last operation, median over the
    run's iterations.
``peak_rss_mb`` [MB]
    Peak resident set of the iteration's process, median.

Iteration failures are the result line's ``failed`` out of ``attempted``.
The run also prints each phase's median time (``fig8a_s``, ``fig8b_s``,
``fig10_s``, ``replay_cold_s``, ``replay_warm_s``, ...), the iteration
count, and ``wall_s.tail``: the highest percentile with at least ten
iterations beyond it, which needs at least eleven iterations and is
reported as unavailable below that. The phase times exist on one workload
each, so they are reported by the traced run rather than as end-to-end
metrics, which every workload must report.

Per-layer metrics (``--trace 1``): the run alternates traced and untraced
iterations. Spans come from timing wrappers the benchmark installs around
each layer's public functions at every module binding them
(``perfbench/tracer.py``); counters come from the public ``.stats`` objects.
Counts are calls, rows, values, inner products or bytes; ``.s`` is busy
time summed over threads; ``self_s`` is time charged to a layer when it is
the deepest active span. Every metric is reported on every workload (zero
where the layer is not reached). The map below says which end-to-end
metric each should move, and on which workload:

- ``api.design``: ``design.network_perf.{calls,s}``, ``design.memo.hit_ratio``
  -> ``fig8a_s``, ``fig10_s`` on design-sim.
- ``tile.workload``: ``tile.sample.{calls,s,exponents}`` -> ``fig8a_s``,
  ``fig8b_s``, ``fig10_s`` on design-sim.
- ``nn.sampling`` / ``fp.vecfloat``: ``nn.tensor_sample.s``,
  ``fp.decode.{s,values}`` -> as ``tile.workload``.
- ``tile.simulator``: ``tile.simulate_network.calls``, ``tile.cycles.{calls,s}``
  -> ``fig8a_s``, ``fig10_s`` on design-sim.
- ``hw``: ``hw.tile_cost.{calls,s}`` -> ``wall_s`` on design-sim (expected
  to stay small).
- ``nn.training``: ``nn.train.{calls,s}`` -> ``wall_s`` on nn-accuracy.
- ``analysis.accuracy``: ``analysis.conv.{calls,s,self_s}`` -> ``wall_s`` on
  nn-accuracy.
- ``ipu.engine``: ``engine.pack.{calls,rows,s}``,
  ``engine.kernels.{calls,ips,s,s_per_call}`` -> ``wall_s`` on nn-accuracy
  (per call), ``replay_cold_s`` on spec-replay (throughput).
- ``api.session``: ``session.plan.hit_ratio``, ``session.sweep.s`` ->
  ``replay_cold_s`` on spec-replay.
- ``api.executor``: ``executor.run_points.{calls,s}``, ``executor.tasks``,
  ``executor.dispatch_s`` (run_points time not covered by kernels) ->
  ``replay_cold_s`` on spec-replay.
- ``store``: ``store.get.{calls,hit_ratio,bytes,s}``,
  ``store.put.{calls,bytes,s}``, ``store.quarantined`` -> ``replay_warm_s``
  (reads) and ``replay_cold_s`` (writes) on spec-replay.

The traced run also reports the phase times of its untraced iterations
(``fig8a_s`` ... ``replay_warm_s``), ``trace.wall_s`` and
``trace.overhead_s`` (traced minus untraced median wall), and a self-time
table, ``self_s.<layer>`` plus ``self_s.setup`` and ``self_s.other``, which
sums to the traced wall time. ``service``, ``fleet``, ``search`` and
``chaos`` are not measured.

Correctness gate
================

- design-sim: each experiment's render, nn-accuracy: the ``AccuracyPoint``
  list, spec-replay: the cold results — each is hashed; at seed 0 the hashes
  must equal ``perfbench/digests.json``, and at any seed every iteration
  must hash like the first.
- spec-replay: the warm results must be byte-identical to the cold ones,
  and a subsample of the cold Figure-3 kernel outputs must be bit-identical
  to the frozen ``repro.ipu.seedref.fp_ip_batch_seed``.
- traced runs: each layer's call count must be nonzero on the workloads
  that exercise it and zero where a workload bypasses it (``EXERCISES`` and
  ``BYPASSES`` below). spec-replay's cold design sweep runs alignment
  simulations, so it exercises ``tile.sample`` too.

Every record carries its provenance (git commit and dirty flag when run in
a git checkout, CPUs, Python and numpy versions, engine, executor, seed and
isolation mode). Records are written to ``.perfbench_out/``, spans of traced
runs to ``.perfbench_out/<workload>-seed<n>-spans.json.gz``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_OF, LAYERS, attribute
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6
RUN_LIMIT_S = 165.0  # every run ends well inside the 180 s a run may take

# Layer coverage: span names each workload must reach, and must never reach.
EXERCISES = {
    "design-sim": ("design.network_perf", "tile.sample", "nn.tensor_sample", "fp.decode",
                   "tile.simulate_network", "tile.cycles", "hw.tile_cost"),
    "nn-accuracy": ("nn.train", "analysis.conv", "engine.pack", "engine.kernels"),
    "spec-replay": ("session.sweep", "engine.pack", "engine.kernels", "executor.run_points",
                    "store.get", "store.put", "design.sweep", "design.network_perf",
                    "tile.sample"),
}
BYPASSES = {
    "design-sim": ("engine.kernels", "store.get", "store.put", "nn.train"),
    "nn-accuracy": ("tile.sample", "store.get", "store.put"),
    "spec-replay": ("nn.train",),
}

PHASE_METRICS = ("fig8a_s", "fig8b_s", "fig10_s", "replay_cold_s", "replay_warm_s")


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # not a git checkout: never look above the root
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload, seed: int, child: dict | None) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    child = child or {}
    return {
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": child.get("python"),
        "numpy": child.get("numpy"),
        "engine": child.get("engine"),
        "backend": workload.backend,
        "workers": workload.workers,
        "seed": seed,
        "isolation": "fresh-interpreter",
    }


class Runner:
    """Starts iteration interpreters one at a time, in the checkout's root."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.t0 = time.monotonic()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        OUT.mkdir(exist_ok=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def child(self, trace: bool = False, setup_only: bool = False) -> dict:
        """One fresh interpreter; returns its record plus ``t_spawn``/``error``."""
        tag = f"{self.workload}-{os.getpid()}"
        workdir, out = OUT / f"work-{tag}", OUT / f"record-{tag}.json"
        workdir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "iteration.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(workdir), "--out", str(out)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        timeout = max(1.0, RUN_LIMIT_S + 10 - self.elapsed())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
            if proc.returncode != 0:
                record = {"error": proc.stderr.strip().splitlines()[-1:] or
                          [f"exit code {proc.returncode}"]}
            else:
                record = json.loads(out.read_text())
        except subprocess.TimeoutExpired:
            record = {"error": [f"iteration exceeded {timeout:.0f} s"]}
        finally:
            out.unlink(missing_ok=True)
            shutil.rmtree(workdir, ignore_errors=True)
        record["t_spawn"] = t_spawn
        record["traced"] = trace
        if "t_first" in record:
            record["setup_s"] = record["t_first"] - t_spawn
        if "t_end" in record:
            record["wall_s"] = record["t_end"] - t_spawn
        return record


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _unit(key: str) -> str:
    last = key.rsplit(".", 1)[1]
    if last in ("s", "s_per_call") or last.endswith("_s"):
        return "s"
    return {"hit_ratio": "ratio", "bytes": "bytes"}.get(last, "count")


def _tail(values) -> str:
    n = len(values)
    if n < 11:
        return f"n/a (n={n}; needs >= 11 iterations)"
    pct = 100.0 * (1 - 10 / n)
    return f"{statistics.quantiles(values, n=100)[int(pct) - 1]:.4f} s at p{int(pct)} (n={n})"


def gate(name: str, seed: int, records: list[dict]) -> None:
    """Set each iteration record's ``failures`` (empty when correct)."""
    pinned = json.loads((HERE / "digests.json").read_text())
    expected = pinned[name] if seed == pinned["seed"] else None
    first = next((r["digests"] for r in records if "digests" in r), None)
    for r in records:
        errors = list(r.get("error", [])) + list(r.get("errors", []))
        digests = r.get("digests")
        if digests is not None:
            if digests != first:
                errors.append("digest differs from the run's first iteration")
            if expected is not None and digests != expected:
                bad = sorted(k for k in expected if digests.get(k) != expected[k])
                errors.append(f"digest differs from the pinned seed-{seed} digest: {bad}")
        r["failures"] = errors


def layer_metrics(rec: dict) -> tuple[dict, dict, dict]:
    """(per-layer values, self seconds per layer, calls per span name) of
    one traced record."""
    spans, t0, t1 = rec["spans"], rec["t_first"], rec["t_end"]
    calls, busy, amount = {}, {}, {}
    for sname, start, end, _parent, _tid, depth, amt in spans:
        if depth < 0:
            continue
        calls[sname] = calls.get(sname, 0) + 1
        busy[sname] = busy.get(sname, 0.0) + (min(end, t1) - max(start, t0))
        if amt is not None:
            prev = amount.get(sname)
            amount[sname] = amt if prev is None else (
                [a + b for a, b in zip(prev, amt)] if isinstance(amt, list) else prev + amt)
    charged = attribute(spans, t0, t1)
    st = rec["stats"]

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    c = lambda k: calls.get(k, 0)
    s = lambda k: busy.get(k, 0.0)
    get_bytes, get_hits = amount.get("store.get", [0, 0])
    m = {
        "design.network_perf.calls": c("design.network_perf"),
        "design.network_perf.s": s("design.network_perf"),
        "design.memo.hit_ratio": ratio(st.get("design_hits", 0), st.get("design_misses", 0)),
        "tile.sample.calls": c("tile.sample"),
        "tile.sample.s": s("tile.sample"),
        "tile.sample.exponents": amount.get("tile.sample", 0),
        "nn.tensor_sample.s": s("nn.tensor_sample"),
        "fp.decode.s": s("fp.decode"),
        "fp.decode.values": amount.get("fp.decode", 0),
        "tile.simulate_network.calls": c("tile.simulate_network"),
        "tile.cycles.calls": c("tile.cycles"),
        "tile.cycles.s": s("tile.cycles"),
        "hw.tile_cost.calls": c("hw.tile_cost"),
        "hw.tile_cost.s": s("hw.tile_cost"),
        "nn.train.calls": c("nn.train"),
        "nn.train.s": s("nn.train"),
        "analysis.conv.calls": c("analysis.conv"),
        "analysis.conv.s": s("analysis.conv"),
        "analysis.conv.self_s": charged.get("analysis.conv", 0.0),
        "engine.pack.calls": c("engine.pack"),
        "engine.pack.rows": amount.get("engine.pack", 0),
        "engine.pack.s": s("engine.pack"),
        "engine.kernels.calls": c("engine.kernels"),
        "engine.kernels.ips": amount.get("engine.kernels", 0),
        "engine.kernels.s": s("engine.kernels"),
        "engine.kernels.s_per_call": s("engine.kernels") / max(c("engine.kernels"), 1),
        "session.plan.hit_ratio": ratio(st.get("plan_hits", 0), st.get("plan_misses", 0)),
        "session.sweep.s": s("session.sweep"),
        "executor.run_points.calls": c("executor.run_points"),
        "executor.run_points.s": s("executor.run_points"),
        "executor.tasks": st.get("tasks_dispatched", 0),
        "executor.dispatch_s": charged.get("executor.run_points", 0.0),
        "store.get.calls": c("store.get"),
        "store.get.hit_ratio": get_hits / c("store.get") if c("store.get") else 0.0,
        "store.get.bytes": get_bytes,
        "store.get.s": s("store.get"),
        "store.put.calls": c("store.put"),
        "store.put.bytes": amount.get("store.put", 0),
        "store.put.s": s("store.put"),
        "store.quarantined": st.get("store_quarantined", 0),
    }
    self_s = {layer: 0.0 for layer in LAYERS}
    for sname, secs in charged.items():
        if sname != "other":
            self_s[LAYER_OF[sname]] += secs
    self_s["setup"] = rec["setup_s"]
    self_s["other"] = charged["other"]
    return m, self_s, calls


def coverage(name: str, calls: dict) -> list[str]:
    errors = [f"layer coverage: {span} never called on {name}"
              for span in EXERCISES[name] if not calls.get(span)]
    errors += [f"layer coverage: {span} called {calls[span]}x on {name}, which bypasses it"
               for span in BYPASSES[name] if calls.get(span)]
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(args.workload, args.seed)
    # set-up probes first: they also warm the file cache for iteration 0
    probes = []
    while not args.trace and len(probes) < SETUP_PROBES:
        probes.append(runner.child(setup_only=True))
        if "error" in probes[-1]:
            break
    records: list[dict] = []
    passes = 0
    while not any("error" in p for p in probes):
        # traced runs alternate traced and untraced iterations, and which
        # of the two goes first
        started = runner.elapsed()
        order = (True, False) if passes % 2 == 0 else (False, True)
        for traced in (order if args.trace else (False,)):
            records.append(runner.child(trace=traced))
        passes += 1
        last_pass = runner.elapsed() - started
        if any("error" in r for r in records) or runner.elapsed() >= args.seconds \
                or runner.elapsed() + 1.5 * last_pass > RUN_LIMIT_S:
            break
    gate(args.workload, args.seed, records)
    plain = [r for r in records if not r["traced"] and "wall_s" in r]
    traced = [r for r in records if r["traced"] and "wall_s" in r]
    layer_rows = []
    for r in traced:
        m, self_s, calls = layer_metrics(r)
        r["failures"] += coverage(args.workload, calls)
        layer_rows.append((m, self_s))
    setup_samples = [r["setup_s"] for r in probes + plain if "setup_s" in r]
    failed = sum(bool(r["failures"]) for r in records)
    problems = [f"iteration {i}: {msg}" for i, r in enumerate(records) for msg in r["failures"]]
    problems += [f"set-up probe: {msg}" for p in probes for msg in p.get("error", [])]
    prov = provenance(workload, args.seed, next((r for r in records if "numpy" in r), None))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for i, r in enumerate(records):
        kind = "traced" if r["traced"] else "untraced"
        if "wall_s" in r:
            phases = " ".join(f"{k}={v:.3f}" for k, v in r["phases"].items())
            print(f"  iteration {i} ({kind}): wall {r['wall_s']:.3f} s, setup "
                  f"{r['setup_s']:.3f} s, rss {r['peak_rss_mb']:.1f} MB | {phases}")
        else:
            print(f"  iteration {i} ({kind}): FAILED {r.get('error')}")

    phase_s = {}
    for key in PHASE_METRICS:
        vals = [r["phases"][key[:-2]] for r in plain if key[:-2] in r["phases"]]
        phase_s[key] = _median(vals)
    walls = [r["wall_s"] for r in plain]
    if args.trace == 0:
        metrics = {
            "setup_s": {"value": _median(setup_samples), "unit": "s"},
            "wall_s": {"value": _median(walls), "unit": "s"},
            "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in plain]), "unit": "MB"},
        }
        print(f"iterations: {len(plain)}, set-up samples: {len(setup_samples)}")
        print(f"wall_s.tail: {_tail(walls)}")
        for key, value in phase_s.items():
            if value:
                print(f"{key}: {value:.4f} s (median of {len(plain)})")
    else:
        metrics = {}
        per_iter = [m for m, _ in layer_rows]
        self_rows = [self_s for _, self_s in layer_rows]
        for key in (per_iter[0] if per_iter else {}):
            metrics[key] = {"value": _median([m[key] for m in per_iter]), "unit": _unit(key)}
        for key, value in phase_s.items():
            metrics[key] = {"value": value, "unit": "s"}
        traced_wall = _median([r["wall_s"] for r in traced])
        overhead = traced_wall - _median(walls)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        table = {layer: _median([row[layer] for row in self_rows])
                 for layer in (self_rows[0] if self_rows else {})}
        for layer, value in table.items():
            metrics[f"self_s.{layer}"] = {"value": value, "unit": "s"}
        print(f"self time per layer, median of {len(traced)} traced iteration(s); "
              f"tracing overhead {overhead:+.3f} s on {_median(walls):.3f} s untraced")
        for layer, value in sorted(table.items(), key=lambda kv: -kv[1]):
            share = 100 * value / traced_wall if traced_wall else 0.0
            print(f"  {layer:<18} {value:10.4f} s {share:6.1f}%")
        print(f"  {'sum':<18} {sum(table.values()):10.4f} s   traced wall {traced_wall:.4f} s")
        _write_spans(args.workload, args.seed, traced, prov)

    for key, metric in metrics.items():
        print(f"{key}: {metric['value']:.6g} {metric['unit']}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    correct = not problems
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "provenance": prov, "metrics": metrics, "problems": problems,
        "iterations": [{k: v for k, v in r.items() if k != "spans"} for r in records],
        "setup_probes": probes,
    }, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _write_spans(name: str, seed: int, traced: list[dict], prov: dict) -> None:
    with gzip.open(OUT / f"{name}-seed{seed}-spans.json.gz", "wt") as fh:
        json.dump({"provenance": prov,
                   "fields": ["name", "start", "end", "parent", "thread", "depth", "amount"],
                   "iterations": [{"id": i, "t_spawn": r["t_spawn"], "t_first": r["t_first"],
                                   "t_end": r["t_end"], "spans": r["spans"]}
                                  for i, r in enumerate(traced)]}, fh)


if __name__ == "__main__":
    sys.exit(main())
