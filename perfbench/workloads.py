"""The benchmark's three workloads.

Each workload has a ``setup()`` (imports, input and spec generation, session
and store construction — everything before the first operation), a
``run(phase)`` (the timed operations, split into named phases) and a
``check(outputs)`` (correctness, run after timing stops). Experiment seeds
are derived from the workload seed; at seed 0 every experiment runs with the
seed the ``runner`` CLI uses.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import numpy as np

# design_pareto.json from the examples, at 384 samples; its rng is 41 + seed.
DESIGN_PARETO = {
    "name": "design-pareto-384",
    "designs": ["MC-IPU4", "MC-IPU8", "mc-ipu:8x4@24b", "mc-ipu:4x4@20b",
                "nvdla-like:8x8@36b", "INT8"],
    "tiles": ["small"],
    "precisions": [],
    "op_precisions": [[4, 4], [8, 4], [8, 8], [16, 16]],
    "samples": 384,
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class DesignSim:
    """fig7, fig8a, fig8b, fig9, fig10 and table1 at the runner's --quick sizes."""

    name = "design-sim"
    backend, workers = "serial", 1
    phases = ("fig7", "fig8a", "fig8b", "fig9", "fig10", "table1")

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def setup(self) -> None:
        from repro.api import DesignSession
        from repro.experiments import fig7, fig8, fig9, fig10, table1

        self.sessions = {name: DesignSession() for name in
                         ("fig7", "fig8a", "fig8b", "fig10", "table1")}
        s, seed = self.sessions, self.seed
        self.experiments = {
            "fig7": lambda: fig7.render(fig7.run(session=s["fig7"])),
            "fig8a": lambda: fig8.render(fig8.run_precision_sweep(
                samples=128, rng=11 + seed, session=s["fig8a"])),
            "fig8b": lambda: fig8.render(fig8.run_cluster_sweep(
                samples=128, rng=12 + seed, session=s["fig8b"])),
            "fig9": lambda: fig9.render(fig9.run(samples_per_layer=500, rng=21 + seed)),
            "fig10": lambda: fig10.render(fig10.run(
                samples=96, rng=31 + seed, session=s["fig10"])),
            "table1": lambda: table1.render(table1.run(
                samples=96, rng=41 + seed, session=s["table1"])),
        }

    def run(self, phase) -> dict:
        renders = {}
        for name in self.phases:
            with phase(name):
                renders[name] = self.experiments[name]()
                if name in self.sessions:
                    self.sessions[name].close()
        return renders

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()

    def check(self, renders: dict) -> tuple[dict, list[str]]:
        return {name: sha256(text) for name, text in renders.items()}, []

    def stats(self) -> dict:
        hits = sum(sum(s.stats.hits.values()) for s in self.sessions.values())
        misses = sum(sum(s.stats.misses.values()) for s in self.sessions.values())
        return {"design_hits": hits, "design_misses": misses}


class NNAccuracy:
    """Train the plain model, then the §3.1 quick accuracy run."""

    name = "nn-accuracy"
    backend, workers = "serial", 1
    phases = ("train", "eval")

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def setup(self) -> None:
        from repro.analysis._model_cache import trained_model
        from repro.analysis.accuracy import accuracy_vs_precision
        from repro.api import EmulationSession

        self.trained_model = trained_model
        self.accuracy_vs_precision = accuracy_vs_precision
        self.session = EmulationSession()

    def run(self, phase) -> list:
        with phase("train"):
            model, dataset = self.trained_model("plain", 7 + self.seed)
        with phase("eval"):
            points = self.accuracy_vs_precision(
                model, dataset.images[-32:], dataset.labels[-32:],
                precisions=(8, 12), batch_size=32, session=self.session)
            self.session.close()
        return points

    def close(self) -> None:
        self.session.close()

    def check(self, points) -> tuple[dict, list[str]]:
        errors = []
        if [p.precision for p in points] != [None, 8, 12]:
            errors.append(f"unexpected precisions {[p.precision for p in points]}")
        for p in points:
            if not 0.0 <= p.accuracy <= 1.0:
                errors.append(f"accuracy {p.accuracy} out of [0, 1]")
        text = repr([(p.precision, p.accuracy, p.per_batch) for p in points])
        return {"points": sha256(text)}, errors

    def stats(self) -> dict:
        st = self.session.stats
        return {"plan_hits": st.plan_hits, "plan_misses": st.plan_misses,
                "tasks_dispatched": st.tasks_dispatched}


class KernelCapture:
    """Keeps a few rows of every engine call's operands and exact outputs.

    Wraps ``fp_ip_points`` at each module that binds it; while ``active``,
    each call with equal-shape 2-D operand plans keeps ``rows`` evenly spaced
    rows offset by the workload seed. :meth:`verify` re-runs those rows through the
    frozen seed kernel ``repro.ipu.seedref.fp_ip_batch_seed``.
    """

    def __init__(self, seed: int, rows: int = 8):
        self.seed = seed
        self.rows = rows
        self.active = False
        self.samples: list[tuple] = []

    def install(self) -> None:
        from tracer import patch_function

        patch_function("repro.ipu.engine", "fp_ip_points", self._wrap)

    def _wrap(self, fn):
        from repro.ipu.engine import plan_values

        def wrapper(pa, pb, points, *args, **kwargs):
            results = fn(pa, pb, points, *args, **kwargs)
            if self.active and len(pa.shape) == 2 and pa.shape == pb.shape:
                n = pa.shape[0]
                idx = np.unique((np.arange(self.rows) * (n // self.rows + 1) + self.seed) % n)
                self.samples.append((pa.fmt, plan_values(pa[idx]), plan_values(pb[idx]),
                                     list(points), [r.values[idx].copy() for r in results]))
            return results

        return wrapper

    def verify(self) -> list[str]:
        from repro.ipu.seedref import fp_ip_batch_seed

        if not self.samples:
            return ["no fig3 kernel outputs were observed"]
        bad = {}
        for fmt, a, b, points, values in self.samples:
            for point, got in zip(points, values):
                ref = fp_ip_batch_seed(a, b, point.adder_width, point.software_precision,
                                       point.acc_fmt, fmt, point.multi_cycle)
                rows = int((ref.values.view(np.int64) != got.view(np.int64)).sum())
                if rows:
                    key = (point.adder_width, point.software_precision, point.multi_cycle)
                    bad[key] = bad.get(key, 0) + rows
        return [f"{rows} sampled kernel outputs differ from seedref at (adder_width, "
                f"software_precision, multi_cycle) = {key}" for key, rows in bad.items()]


class SpecReplay:
    """fig3 RunSpec + design-pareto DesignSweepSpec, cold then warm, on a fresh store."""

    name = "spec-replay"
    backend, workers = "thread", 2
    phases = ("replay_cold", "replay_warm")

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.store_dir = workdir / "store"

    def setup(self) -> None:
        from repro.api import DesignSession, DesignSweepSpec, EmulationSession
        from repro.experiments import fig3
        from repro.store import ResultStore

        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.spec = fig3.spec_for(sources=("laplace", "normal", "uniform"), seed=self.seed)
        self.design_spec = DesignSweepSpec.from_dict(
            dict(DESIGN_PARETO, rng=41 + self.seed))
        self.store = ResultStore(self.store_dir)
        self.emulation = {p: EmulationSession(backend="thread", workers=2, store=self.store)
                          for p in self.phases}
        self.design = {p: DesignSession(store=self.store) for p in self.phases}
        self.capture = KernelCapture(self.seed)
        self.capture.install()

    def run(self, phase) -> dict:
        out = {}
        for name in self.phases:
            with phase(name):
                self.capture.active = name == "replay_cold"
                with self.emulation[name] as session:
                    sweep = session.sweep(self.spec)
                self.capture.active = False
                with self.design[name] as session:
                    reports = session.sweep(self.design_spec)
            out[name] = (sweep, reports)
        return out

    def close(self) -> None:
        for session in (*self.emulation.values(), *self.design.values()):
            session.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def check(self, out: dict) -> tuple[dict, list[str]]:
        from repro.api.session import sweep_points_to_dicts

        texts = {}
        for name, (sweep, reports) in out.items():
            texts[name] = json.dumps({
                "sweep": sweep_points_to_dicts(sweep.points),
                "reports": [r.to_dict() for r in reports],
            }, sort_keys=True)
        errors = []
        if texts["replay_warm"] != texts["replay_cold"]:
            errors.append("warm replay differs from the cold results")
        errors += self.capture.verify()
        return {"replay": sha256(texts["replay_cold"])}, errors

    def stats(self) -> dict:
        sessions = self.emulation.values()
        return {
            "plan_hits": sum(s.stats.plan_hits for s in sessions),
            "plan_misses": sum(s.stats.plan_misses for s in sessions),
            "tasks_dispatched": sum(s.stats.tasks_dispatched for s in sessions),
            "design_hits": sum(sum(s.stats.hits.values()) for s in self.design.values()),
            "design_misses": sum(sum(s.stats.misses.values()) for s in self.design.values()),
            "store_quarantined": self.store.stats.quarantined,
        }


WORKLOADS = {w.name: w for w in (DesignSim, NNAccuracy, SpecReplay)}
