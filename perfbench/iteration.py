"""One benchmark iteration in a fresh interpreter (started by ``run.py``).

Usage::

    python perfbench/iteration.py --workload design-sim --seed 0 \
        --workdir .perfbench_out/work --out record.json [--trace] [--setup-only]

Runs the workload's set-up, its timed operations and its correctness check,
then writes one JSON record: monotonic timestamps of the first and last
operation, phase times, peak RSS, digests, check errors, session and store
counters and, with ``--trace``, the recorded spans. ``--setup-only`` stops
after set-up, so ``run.py`` can sample set-up time cheaply.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = None
    workload.setup()
    try:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t_first = time.monotonic()
        record = {"t_first": t_first}
        if not args.setup_only:
            record.update(_measure(workload, tracer))
    finally:
        workload.close()
    args.out.write_text(json.dumps(record))
    return 0


def _measure(workload, tracer) -> dict:
    phases = {}

    @contextmanager
    def phase(name):
        start = time.monotonic()
        try:
            with tracer.phase(name) if tracer else nullcontext():
                yield
        finally:
            phases[name] = time.monotonic() - start

    if tracer is not None:
        tracer.recording = True
    outputs = workload.run(phase)
    t_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.recording = False
    digests, errors = workload.check(outputs)
    import numpy

    from repro.ipu.engine import resolve_engine

    record = {
        "t_end": t_end, "phases": phases, "peak_rss_mb": peak_rss_mb,
        "digests": digests, "errors": errors, "stats": workload.stats(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "engine": resolve_engine(None),
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    return record


if __name__ == "__main__":
    sys.exit(main())
