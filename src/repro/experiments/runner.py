"""CLI entry point: regenerate any table/figure of the paper.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner fig3 fig9
    python -m repro.experiments.runner --all [--quick]
    python -m repro.experiments.runner --all --quick --json timings.json
    python -m repro.experiments.runner --spec examples/specs/fig3_quick.json
    python -m repro.experiments.runner --spec spec.json --workers 4
    python -m repro.experiments.runner --spec spec.json --backend thread --workers 8
    python -m repro.experiments.runner --spec spec.json --store results/
    python -m repro.experiments.runner --design-spec examples/specs/design_pareto.json
    python -m repro.experiments.runner --search examples/specs/search_quick.json
    python -m repro.experiments.runner --search spec.json --store results/ --backend thread
    python -m repro.experiments.runner --serve --port 8731 --store results/
    python -m repro.experiments.runner --serve --service-workers 4 --queue-cap 64
    python -m repro.experiments.runner --serve --host 0.0.0.0 --token s3cret
    python -m repro.experiments.runner --submit spec.json --url http://127.0.0.1:8731
    python -m repro.experiments.runner --design-spec spec.json \
        --fleet http://127.0.0.1:8731,http://127.0.0.1:8732 --shards 4
    python -m repro.experiments.runner --design-spec spec.json \
        --fleet http://127.0.0.1:8731 --store results/   # skip store-warm shards
    python -m repro.experiments.runner --search spec.json \
        --fleet http://127.0.0.1:8731,http://127.0.0.1:8732 --store results/
    python -m repro.experiments.runner --spec spec.json --store results/ \
        --chaos examples/specs/chaos_quick.json   # fault-injected replay
    python -m repro.experiments.runner --spec spec.json --trace trace.json
    python -m repro.experiments.runner --design-spec spec.json --profile
    python -m repro.experiments.runner --all --quick --profile
    python -m repro.experiments.runner --design-spec spec.json \
        --fleet http://127.0.0.1:8731,http://127.0.0.1:8732 --trace trace.json
    python -m repro.experiments.runner --verify-store results/

``--trace`` writes a Chrome trace-event JSON (load it in Perfetto /
``chrome://tracing``) covering every layer the run crossed — including
remote service jobs, whose spans come back over the wire; each named
experiment is one ``experiment.<name>`` span. ``--profile``
prints a per-phase wall-time tree after the result. Both leave the result
output byte-identical to an untraced run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

__all__ = ["EXPERIMENTS", "main"]


def _fig3(quick: bool) -> str:
    from repro.experiments import fig3

    if quick:
        return fig3.render(fig3.run(batch=4000, chunks=2,
                                    precisions=(8, 12, 16, 20, 24, 28, 38),
                                    sources=("laplace", "normal", "uniform")))
    return fig3.render(fig3.run())


def _fig7(quick: bool) -> str:
    from repro.experiments import fig7

    return fig7.render(fig7.run())


def _fig8a(quick: bool) -> str:
    from repro.experiments import fig8

    return fig8.render(fig8.run_precision_sweep(samples=128 if quick else 512))


def _fig8b(quick: bool) -> str:
    from repro.experiments import fig8

    return fig8.render(fig8.run_cluster_sweep(samples=128 if quick else 512))


def _fig9(quick: bool) -> str:
    from repro.experiments import fig9

    return fig9.render(fig9.run(samples_per_layer=500 if quick else 1500))


def _fig10(quick: bool) -> str:
    from repro.experiments import fig10

    return fig10.render(fig10.run(samples=96 if quick else 384))


def _table1(quick: bool) -> str:
    from repro.experiments import table1

    return table1.render(table1.run(samples=96 if quick else 384))


def _accuracy(quick: bool) -> str:
    from repro.experiments import accuracy_table

    if quick:
        return accuracy_table.render(
            accuracy_table.run(precisions=(8, 12), n_eval=32, styles=("plain",))
        )
    return accuracy_table.render(accuracy_table.run())


EXPERIMENTS = {
    "fig3": (_fig3, "error metrics vs IPU precision (FP16/FP32 accumulators)"),
    "fig7": (_fig7, "tile area & power breakdowns"),
    "fig8a": (_fig8a, "normalized exec time vs MC-IPU precision"),
    "fig8b": (_fig8b, "normalized exec time vs cluster size"),
    "fig9": (_fig9, "exponent-difference histograms (fwd vs bwd)"),
    "fig10": (_fig10, "area/power efficiency design space"),
    "table1": (_table1, "TOPS/mm2 and TOPS/W across designs"),
    "accuracy": (_accuracy, "Top-1 accuracy vs IPU precision"),
}


def _session_executor(spec_executor, backend: str | None, workers: int | None):
    """Resolve a replay's backend: CLI flags override the spec's executor."""
    from repro.api import ExecutorSpec

    spec = ExecutorSpec() if spec_executor is None else spec_executor
    if backend is None and workers is not None and spec.backend == "serial":
        # historical CLI convention: bare --workers N means threads
        backend = "thread"
    return spec.merged(backend=backend, workers=workers)


def _run_spec(path: str, workers: int | None, backend: str | None = None,
              store: str | None = None) -> str:
    """Replay a declarative RunSpec JSON through an emulation session."""
    from repro.api import EmulationSession, RunSpec, render_sweep

    try:  # bad files/specs exit cleanly; sweep bugs must keep their traceback
        spec = RunSpec.from_json(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"cannot load spec {path!r}: {exc}")
    executor = _session_executor(spec.executor, backend, workers)
    with EmulationSession(backend=executor, store=store) as session:
        sweep = session.sweep(spec)
        session._sync_executor_stats()
        stats = session.stats.as_dict()
    return render_sweep(sweep, title=spec.name), stats


def _run_design_spec(path: str, workers: int | None, backend: str | None = None,
                     store: str | None = None) -> str:
    """Replay a DesignSweepSpec JSON through a design session."""
    from repro.api import DesignSession, DesignSweepSpec, render_design_reports

    try:
        spec = DesignSweepSpec.from_json(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"cannot load design spec {path!r}: {exc}")
    executor = _session_executor(spec.executor, backend, workers)
    with DesignSession(backend=executor, store=store) as session:
        reports = session.sweep(spec)
        stats = session.stats.as_dict()
    return render_design_reports(reports, title=spec.name), stats


def _fleet_coordinator(args):
    """Build the --fleet coordinator (None + printed error on bad URLs)."""
    from repro.fleet import FleetCoordinator

    urls = [u.strip() for u in args.fleet.split(",") if u.strip()]
    if not urls:
        print("--fleet needs at least one endpoint URL", file=sys.stderr)
        return None
    return FleetCoordinator(urls, shards=args.shards, token=args.token,
                            store=args.store)


def _run_fleet(args, path: str, kind: str) -> int:
    """Shard a spec across --fleet endpoints and print the merged result
    (body byte-identical to the unsharded --spec/--design-spec output).
    With --store, store-warm shards are served from disk undispatched."""
    from repro.fleet import FleetError
    from repro.service import ServiceError

    coordinator = _fleet_coordinator(args)
    if coordinator is None:
        return 2
    try:
        with open(path) as fh:
            spec_dict = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable file or malformed JSON
        print(f"cannot load spec {path!r}: {exc}", file=sys.stderr)
        return 2
    start = time.time()
    try:
        result = coordinator.run(spec_dict, kind=kind)
    except ValueError as exc:  # an invalid spec body fails the plan build
        print(f"cannot load spec {path!r}: {exc}", file=sys.stderr)
        return 2
    except (FleetError, ServiceError) as exc:
        print(f"fleet error: {exc}", file=sys.stderr)
        return 2
    print(result["rendered"])
    elapsed = round(time.time() - start, 3)
    stats = coordinator.stats()
    if stats["shards_local"]:
        print(f"fleet degraded: {stats['shards_local']} shard(s) ran locally "
              "(endpoints unreachable)", file=sys.stderr)
    print(f"[fleet {path} over {len(coordinator.endpoints)} endpoints / "
          f"{stats['shards_completed']} shards "
          f"(retries={stats['retries']} redispatches={stats['redispatches']} "
          f"warm={stats['shards_skipped_warm']} local={stats['shards_local']}) "
          f"done in {elapsed:.1f}s]")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"spec": path, "fleet": stats, "stats": stats,
                       "seconds": {"fleet": elapsed}}, fh, indent=2)
            fh.write("\n")
    return 0


def _run_search(args) -> int:
    """Run (or resume) a SearchSpec JSON: locally through a SearchSession,
    or across --fleet endpoints (one job per rung candidate)."""
    from repro.fleet import FleetError
    from repro.search import SearchSession, SearchSpec, render_search
    from repro.service import ServiceError

    try:
        spec = SearchSpec.from_json(args.search)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot load search spec {args.search!r}: {exc}",
              file=sys.stderr)
        return 2
    fleet = None
    if args.fleet is not None:
        fleet = _fleet_coordinator(args)
        if fleet is None:
            return 2
    executor = _session_executor(spec.executor, args.backend, args.workers)
    start = time.time()
    try:
        with SearchSession(store=args.store, backend=executor,
                           fleet=fleet) as session:
            result = session.run(spec)
    except (FleetError, ServiceError) as exc:
        print(f"fleet error: {exc}", file=sys.stderr)
        return 2
    print(render_search(result))
    elapsed = round(time.time() - start, 3)
    stats = session.stats.to_dict()
    print(f"[search {args.search} rungs={stats['rungs_total']} "
          f"resumed={stats['rungs_resumed']} evaluated={stats['evaluated']} "
          f"computed={stats['computed']} cached={stats['cached']} "
          f"done in {elapsed:.1f}s]")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"search": args.search, "stats": stats,
                       "seconds": {"search": elapsed}}, fh, indent=2)
            fh.write("\n")
    return 0


def _serve(args) -> int:
    """Run the sweep service until ``POST /v1/shutdown`` or a signal."""
    import signal
    import threading

    from repro.service import ServiceServer
    from repro.service.server import MAX_FINISHED_JOBS

    port = 8731 if args.port is None else args.port
    try:
        server = ServiceServer(
            host=args.host or "127.0.0.1", port=port, store=args.store,
            backend=args.backend, workers=args.workers,
            queue_workers=args.service_workers or 1,
            queue_cap=args.queue_cap, token=args.token,
            max_finished_jobs=(MAX_FINISHED_JOBS if args.max_finished_jobs
                               is None else args.max_finished_jobs))
    except ValueError as exc:  # e.g. non-loopback bind without a token
        print(f"cannot start service: {exc}", file=sys.stderr)
        return 2

    def stop(signum, frame):
        # shutdown() joins the serve loop, so it must run off-signal-stack
        threading.Thread(target=server.httpd.shutdown, daemon=True).start()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, stop)
    print(f"serving on {server.url} "
          f"(store: {args.store or 'none'}, "
          f"workers: {server.service.queue_workers}, "
          f"queue cap: {server.service.queue_cap or 'unbounded'}, "
          f"auth: {'bearer' if server.token else 'open/loopback'}) "
          f"— POST /v1/shutdown to stop",
          flush=True)
    server.serve_forever()
    print("service stopped cleanly", flush=True)
    return 0


def _submit(args) -> int:
    """Submit a spec file to a running service and print its result."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url or "http://127.0.0.1:8731",
                           token=args.token)
    start = time.time()
    try:
        ticket = client.submit(args.submit)
        result = client.result(ticket["job"], timeout=600.0)
    except (OSError, ValueError) as exc:  # unreadable file or malformed JSON
        print(f"cannot load spec {args.submit!r}: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    from repro.obs.trace import trace_ingest

    spans = result.pop("trace_spans", None) if isinstance(result, dict) else None
    if spans:  # the service's job spans, parented under our trace
        trace_ingest(spans)
    print(result["rendered"])
    elapsed = round(time.time() - start, 3)
    print(f"[submit {args.submit} job {ticket['job']} "
          f"coalesced={str(ticket.get('coalesced', False)).lower()} "
          f"done in {elapsed:.1f}s]")
    if args.json:
        try:
            stats = client.stats()
        except ServiceError:  # stats are best-effort observability
            stats = None
        with open(args.json, "w") as fh:
            json.dump({"submit": args.submit, "job": ticket["job"],
                       "stats": stats, "seconds": {"submit": elapsed}},
                      fh, indent=2)
            fh.write("\n")
    return 0


def _verify_store(args) -> int:
    """Check every store entry against its checksum sidecar; print the JSON
    report. Corrupt entries are quarantined (and counted), never served."""
    from repro.store import ResultStore

    try:
        report = ResultStore(args.verify_store).verify()
    except OSError as exc:
        print(f"cannot verify store {args.verify_store!r}: {exc}",
              file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiments", nargs="*", help="experiment ids (see --list)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--quick", action="store_true", help="reduced sample counts")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write per-experiment wall-clock seconds to PATH")
    parser.add_argument("--spec", metavar="PATH", default=None,
                        help="run a declarative RunSpec JSON (repro.api) instead "
                             "of a named experiment")
    parser.add_argument("--design-spec", metavar="PATH", default=None,
                        help="run a declarative DesignSweepSpec JSON through a "
                             "DesignSession (joint accuracy x efficiency report)")
    parser.add_argument("--search", metavar="PATH", default=None,
                        help="run (or, with --store, resume) a SearchSpec JSON: "
                             "budgeted successive-halving design-space search "
                             "(repro.search)")
    parser.add_argument("--workers", type=int, default=None,
                        help="session workers for --spec/--design-spec/--serve runs")
    parser.add_argument("--backend", choices=("serial", "thread"),
                        default=None,
                        help="execution backend for --spec/--design-spec/--serve "
                             "runs (overrides the spec's executor field; results "
                             "are bit-identical across backends)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent result store directory for --spec/"
                             "--design-spec/--search/--serve runs (warm replays "
                             "are served from disk; interrupted sweeps and "
                             "searches resume); with --fleet it backs the "
                             "coordinator's warm-shard payload cache")
    parser.add_argument("--serve", action="store_true",
                        help="run the HTTP sweep service (repro.service) over "
                             "one shared session pair until POST /v1/shutdown")
    parser.add_argument("--port", type=int, default=None,
                        help="--serve listen port (0 = ephemeral; default 8731)")
    parser.add_argument("--host", default=None,
                        help="--serve bind address (default 127.0.0.1; "
                             "non-loopback binds require --token)")
    parser.add_argument("--service-workers", type=int, default=None,
                        help="--serve job-queue worker pool size (default 1; "
                             "distinct jobs run in parallel, identical "
                             "fingerprints still coalesce)")
    parser.add_argument("--queue-cap", type=int, default=None,
                        help="--serve max queued jobs before submits get "
                             "HTTP 429 + Retry-After (default: unbounded)")
    parser.add_argument("--max-finished-jobs", type=int, default=None,
                        help="--serve finished-job retention before the oldest "
                             "results are dropped (default 1024)")
    parser.add_argument("--token", default=None,
                        help="bearer token: required by --serve on non-loopback "
                             "binds, sent by --submit/--fleet clients (default: "
                             "the REPRO_SERVICE_TOKEN environment variable)")
    parser.add_argument("--submit", metavar="PATH", default=None,
                        help="submit a RunSpec/DesignSweepSpec/SearchSpec JSON "
                             "to a running service (kind auto-detected) and "
                             "print its result")
    parser.add_argument("--url", metavar="URL", default=None,
                        help="service URL for --submit "
                             "(default http://127.0.0.1:8731)")
    parser.add_argument("--fleet", metavar="URLS", default=None,
                        help="comma-separated service URLs: shard a --spec/"
                             "--design-spec across them and merge the results "
                             "byte-identically to a local run")
    parser.add_argument("--shards", type=int, default=None,
                        help="--fleet shard count (default: one per endpoint; "
                             "clamped to the sharded axis length)")
    parser.add_argument("--chaos", metavar="PATH", default=None,
                        help="arm a repro.chaos FaultPlan JSON for the run: "
                             "deterministic fault injection at the layer "
                             "boundaries (recovery keeps results "
                             "byte-identical; a [chaos ...] footer reports "
                             "the injected counts)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="arm the repro.obs tracer for the run and write "
                             "a Chrome trace-event JSON (Perfetto / "
                             "chrome://tracing) to PATH; spans cover every "
                             "layer crossed, including remote service jobs; "
                             "the result output stays byte-identical")
    parser.add_argument("--profile", action="store_true",
                        help="arm the repro.obs tracer and print a per-phase "
                             "wall-time tree after the result")
    parser.add_argument("--verify-store", metavar="DIR", default=None,
                        help="verify every entry of a result-store directory "
                             "against its checksum sidecar and print the JSON "
                             "report (corrupt entries are quarantined, "
                             "never served)")
    args = parser.parse_args(argv)

    if args.list:
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"{name:10s} {desc}")
        return 0
    modes = [flag for flag, on in (("--spec", args.spec is not None),
                                   ("--design-spec", args.design_spec is not None),
                                   ("--search", args.search is not None),
                                   ("--serve", args.serve),
                                   ("--submit", args.submit is not None),
                                   ("--verify-store",
                                    args.verify_store is not None)) if on]
    if len(modes) > 1:
        print(f"{' and '.join(modes)} are mutually exclusive", file=sys.stderr)
        return 2
    if modes and (args.experiments or args.all):
        print(f"{modes[0]} cannot be combined with named experiments", file=sys.stderr)
        return 2
    session_modes = {"--spec", "--design-spec", "--search", "--serve"}
    traced_modes = {"--spec", "--design-spec", "--search", "--submit", "experiment"}
    # named experiments (or --all) are the "experiment" mode
    mode = modes[0] if modes else ("experiment" if args.experiments or args.all else None)
    for flag, on, needs in (
        ("--backend", args.backend is not None, session_modes),
        ("--workers", args.workers is not None, session_modes),
        ("--store", args.store is not None, session_modes),
        ("--port", args.port is not None, {"--serve"}),
        ("--host", args.host is not None, {"--serve"}),
        ("--service-workers", args.service_workers is not None, {"--serve"}),
        ("--queue-cap", args.queue_cap is not None, {"--serve"}),
        ("--max-finished-jobs", args.max_finished_jobs is not None, {"--serve"}),
        ("--url", args.url is not None, {"--submit"}),
        ("--fleet", args.fleet is not None,
         {"--spec", "--design-spec", "--search"}),
        ("--chaos", args.chaos is not None, session_modes),
        ("--trace", args.trace is not None, traced_modes),
        ("--profile", args.profile, traced_modes),
    ):
        if on and mode not in needs:
            print(f"{flag} only applies to {'/'.join(sorted(needs))} runs",
                  file=sys.stderr)
            return 2
    if args.shards is not None and args.fleet is None:
        print("--shards only applies to --fleet runs", file=sys.stderr)
        return 2
    if args.shards is not None and args.search is not None:
        print("--shards does not apply to --search runs (rungs dispatch one "
              "job per candidate, not a shard plan)", file=sys.stderr)
        return 2
    if args.token is not None and not (args.serve or args.submit is not None
                                       or args.fleet is not None):
        print("--token only applies to --serve/--submit/--fleet runs",
              file=sys.stderr)
        return 2
    if args.fleet is not None:
        # --store stays allowed: it backs the coordinator's warm-shard cache
        for flag, on in (("--backend", args.backend is not None),
                         ("--workers", args.workers is not None)):
            if on:
                print(f"{flag} does not apply to --fleet runs (session "
                      "configuration lives on the service instances)",
                      file=sys.stderr)
                return 2
    if args.json is not None and args.serve:
        print("--json does not apply to --serve (use GET /v1/stats)",
              file=sys.stderr)
        return 2
    if args.verify_store is not None:
        return _verify_store(args)
    if args.trace is None and not args.profile:
        return _chaos_dispatch(args, parser)
    from repro.obs.export import render_profile, to_chrome_trace
    from repro.obs.trace import install as obs_install
    from repro.obs.trace import trace_span

    with obs_install() as tracer:
        with trace_span("runner", mode=mode.lstrip("-")):
            rc = _chaos_dispatch(args, parser)
        spans = tracer.export()
    if args.trace is not None:
        try:
            with open(args.trace, "w") as fh:
                json.dump(to_chrome_trace(spans), fh)
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write trace {args.trace!r}: {exc}", file=sys.stderr)
            return 2
        print(f"[trace {args.trace} spans={len(spans)} "
              f"dropped={tracer.dropped}]")
    if args.profile:
        print(render_profile(spans))
    return rc


def _chaos_dispatch(args, parser) -> int:
    """:func:`_dispatch`, under a chaos engine when ``--chaos`` asked."""
    if args.chaos is None:
        return _dispatch(args, parser)
    from repro.chaos import FaultPlan, install

    try:
        plan = FaultPlan.load(args.chaos)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot load chaos plan {args.chaos!r}: {exc}", file=sys.stderr)
        return 2
    with install(plan) as engine:
        rc = _dispatch(args, parser)
        stats = engine.stats()
    print(f"[chaos {args.chaos} seed={stats['seed']} "
          f"faults={len(stats['faults'])} "
          f"injected={sum(stats['injected'].values())}]")
    return rc


def _dispatch(args, parser) -> int:
    """Run the validated mode (everything below the flag checks)."""
    from repro.obs.trace import trace_span

    if args.serve:
        return _serve(args)
    if args.submit is not None:
        return _submit(args)
    if args.search is not None:
        return _run_search(args)
    if args.spec is not None or args.design_spec is not None:
        path = args.spec if args.spec is not None else args.design_spec
        if args.fleet is not None:
            kind = "sweep" if args.spec is not None else "design-sweep"
            return _run_fleet(args, path, kind)
        start = time.time()
        try:
            if args.spec is not None:
                output, stats = _run_spec(path, args.workers, args.backend,
                                          args.store)
            else:
                output, stats = _run_design_spec(path, args.workers,
                                                 args.backend, args.store)
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 2
        print(output)
        elapsed = round(time.time() - start, 3)
        print(f"[spec {path} done in {elapsed:.1f}s]")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump({"spec": path, "stats": stats,
                           "seconds": {"spec": elapsed}}, fh, indent=2)
                fh.write("\n")
        return 0
    names = list(EXPERIMENTS) if args.all else args.experiments
    if not names:
        parser.print_help()
        return 2
    timings: dict[str, float] = {}
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; use --list", file=sys.stderr)
            return 2
        fn, desc = EXPERIMENTS[name]
        print(f"\n{'=' * 72}\n{name}: {desc}\n{'=' * 72}")
        start = time.time()
        with trace_span(f"experiment.{name}", quick=args.quick):
            print(fn(args.quick))
        timings[name] = round(time.time() - start, 3)
        print(f"[{name} done in {timings[name]:.1f}s]")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"quick": args.quick, "seconds": timings}, fh, indent=2)
            fh.write("\n")
        print(f"[timings written to {args.json}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
