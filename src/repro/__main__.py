"""Command-line runner: ``python -m repro [options] <app>``.

Examples::

    python -m repro water-spatial
    python -m repro barnes --procs 8 --ft --l 0.25 --crash 3@0.5
    python -m repro counter --ft --coordinated --wan 5e-3 --trace lock,ckpt
    python -m repro tables --scale smoke
    python -m repro bench --smoke --check
    python -m repro crashsweep counter --every 40 --classes lock,ckpt_write
    python -m repro crashsweep counter --faults 2      # k=2, replication on
    python -m repro observe counter --procs 4 --interval 1e-3
    python -m repro observe session --rate 4000 --slo "p99(lat.request)<5ms"
    python -m repro observe session --crash 1@0.25 --replicate
    python -m repro trace counter --procs 4 --crash 2@0.5
    python -m repro monitor counter --procs 4 --crash 2@0.5
    python -m repro monitor counter --seed-violation cgc   # must exit 1
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Optional

from repro import DsmCluster, DsmConfig
from repro.core import LogOverflowPolicy
from repro.sim.network import MetaClusterConfig, NetworkConfig
from repro.sim.node import TimeBucket

APPS = [
    "counter", "kvstore", "session", "barnes", "water-nsq", "water-spatial",
    "lu", "tables", "bench",
]


def make_app(
    name: str,
    steps: Optional[int],
    size: Optional[int],
    rate: Optional[float] = None,
) -> Any:
    from repro.apps.barnes import BarnesApp, BarnesConfig
    from repro.apps.counter import CounterApp, CounterConfig
    from repro.apps.kvstore import KvStoreApp, KvStoreConfig
    from repro.apps.lu import LuApp, LuConfig
    from repro.apps.session import SessionApp, SessionConfig
    from repro.apps.water_nsq import WaterNsqApp, WaterNsqConfig
    from repro.apps.water_spatial import WaterSpatialApp, WaterSpatialConfig

    if name == "session":
        cfg = SessionConfig()
        if steps:
            cfg.steps = steps
        if size:
            cfg.n_keys = size
        if rate:
            cfg.rate = rate
        return SessionApp(cfg)
    if name == "counter":
        cfg = CounterConfig()
        if steps:
            cfg.steps = steps
        if size:
            cfg.n_elements = size
        return CounterApp(cfg)
    if name == "kvstore":
        cfg = KvStoreConfig()
        if steps:
            cfg.steps = steps
        if size:
            cfg.n_keys = size
        return KvStoreApp(cfg)
    if name == "barnes":
        cfg = BarnesConfig()
        if steps:
            cfg.steps = steps
        if size:
            cfg.n_bodies = size
        return BarnesApp(cfg)
    if name == "water-nsq":
        cfg = WaterNsqConfig()
        if steps:
            cfg.steps = steps
        if size:
            cfg.n_molecules = size
        return WaterNsqApp(cfg)
    if name == "water-spatial":
        cfg = WaterSpatialConfig()
        if steps:
            cfg.steps = steps
        if size:
            cfg.n_molecules = size
        return WaterSpatialApp(cfg)
    if name == "lu":
        cfg = LuConfig()
        if size:
            cfg.matrix_size = size
        return LuApp(cfg)
    raise ValueError(f"unknown app {name!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a DSM workload on the simulated fault-tolerant "
        "HLRC cluster (SC 2000 reproduction).",
    )
    p.add_argument("app", choices=APPS, help="workload, or 'tables' for the paper harness")
    p.add_argument("--procs", type=int, default=8, help="cluster size (default 8)")
    p.add_argument("--steps", type=int, default=None, help="application steps")
    p.add_argument("--size", type=int, default=None, help="problem size (app-specific)")
    p.add_argument(
        "--rate", type=float, default=None,
        help="open-loop arrival rate, requests per virtual second per "
        "process (session app only)",
    )
    p.add_argument("--ft", action="store_true", help="enable fault tolerance")
    p.add_argument(
        "--replicate", action="store_true",
        help="with --ft: buddy-replicate checkpoints + logs into the "
        "ring successor's memory (survives overlapping failures)",
    )
    p.add_argument("--l", type=float, default=0.1, help="OF policy L fraction")
    p.add_argument(
        "--coordinated",
        action="store_true",
        help="use the coordinated-checkpointing baseline instead of the "
        "paper's independent scheme",
    )
    p.add_argument(
        "--crash",
        metavar="PID@FRAC",
        default=None,
        help="fail-stop PID at FRAC of the failure-free runtime (e.g. 3@0.5)",
    )
    p.add_argument(
        "--wan",
        type=float,
        default=None,
        metavar="SECONDS",
        help="meta-cluster mode: split the cluster in two halves joined "
        "by a WAN link with this one-way latency",
    )
    from repro.sim.trace import Tracer

    p.add_argument(
        "--trace",
        default=None,
        metavar="KINDS",
        # derived from Tracer.KINDS so the help can never drift from
        # what the tracer actually accepts
        help="comma-separated trace kinds (" + ",".join(sorted(Tracer.KINDS)) + ")",
    )
    p.add_argument("--trace-limit", type=int, default=60)
    p.add_argument("--scale", default="smoke", choices=["smoke", "default"],
                   help="scale for the 'tables' harness")
    bench = p.add_argument_group("bench", "options for the 'bench' subcommand")
    bench.add_argument(
        "--suite", default="core", choices=["core", "scale"],
        help="bench: 'core' hot-path suite or the 'scale' node-count curve",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="bench: run the reduced smoke suite (used by CI)",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="bench: attach cProfile to the app benches and print hot spots",
    )
    bench.add_argument(
        "--bench-json", default=None, metavar="PATH",
        help="bench: baseline file to record to / check against "
        "(default benchmarks/BENCH_core.json or BENCH_scale.json per suite)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="bench: compare against the committed baseline instead of "
        "recording; exit 1 if events/sec regressed more than the budget",
    )
    bench.add_argument(
        "--budget", type=float, default=0.30, metavar="FRAC",
        help="bench --check: tolerated events/sec regression (default 0.30)",
    )
    return p


def make_cluster(args: argparse.Namespace) -> DsmCluster:
    net = NetworkConfig()
    if args.wan is not None:
        net = MetaClusterConfig(
            cluster_size=max(1, args.procs // 2), wan_latency=args.wan
        )
    kwargs = dict(
        config=DsmConfig(num_procs=args.procs),
        net_config=net,
    )
    if not args.ft:
        return DsmCluster(**kwargs)
    if args.coordinated:
        from repro.baselines import coordinated_cluster

        kwargs.pop("config")
        return coordinated_cluster(
            DsmConfig(num_procs=args.procs), l_fraction=args.l, net_config=net
        )
    if getattr(args, "replicate", False):
        from repro.core.ftmanager import FtConfig

        kwargs["ft_config"] = FtConfig(replicate=True)
    return DsmCluster(
        ft=True,
        policy_factory=lambda pid, fp: LogOverflowPolicy(args.l, fp),
        **kwargs,
    )


def build_crashsweep_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro crashsweep",
        description="Crash-point sweep fault-injection campaign: enumerate "
        "crash points of a traced failure-free run, re-run the app once "
        "per point, and assert the recovery-equivalence oracle.",
    )
    p.add_argument("app", choices=[a for a in APPS if a not in ("tables", "bench")])
    p.add_argument("--procs", type=int, default=4, help="cluster size (default 4)")
    p.add_argument("--steps", type=int, default=None, help="application steps")
    p.add_argument("--size", type=int, default=None, help="problem size")
    p.add_argument(
        "--rate", type=float, default=None,
        help="open-loop arrival rate, requests per virtual second per "
        "process (session app only)",
    )
    p.add_argument("--l", type=float, default=0.1, help="OF policy L fraction")
    p.add_argument(
        "--every", type=int, default=25,
        help="crash after every Nth traced protocol event (default 25)",
    )
    p.add_argument(
        "--classes", default=None,
        help="comma-separated crash-point classes (default: all classes "
        f"the --faults budget allows, out of {','.join(sweep_classes())})",
    )
    p.add_argument(
        "--faults", type=int, default=1, choices=(1, 2),
        help="fault budget: 2 adds the double/repl classes (second "
        "crashes inside recovery windows, crashes mid-replication); "
        "implies --replicate unless --no-replicate",
    )
    p.add_argument(
        "--replicate", action="store_true",
        help="enable the buddy-replication tier (FtConfig.replicate)",
    )
    p.add_argument(
        "--no-replicate", action="store_true",
        help="keep replication off even with --faults 2 (overlap points "
        "then degrade explicitly instead of recovering)",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="summary JSON path (default benchmarks/SWEEP_<app>.json)",
    )
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print one line per injected run")
    return p


def sweep_classes() -> tuple:
    from repro.faultinject import campaign

    return campaign.CLASSES


def run_crashsweep(argv: list) -> int:
    import json

    from repro.faultinject import CrashSweep

    args = build_crashsweep_parser().parse_args(argv)
    replicate = (args.replicate or args.faults >= 2) and not args.no_replicate
    ns = argparse.Namespace(
        procs=args.procs, ft=True, coordinated=False, wan=None, l=args.l,
        replicate=replicate,
    )
    sweep = CrashSweep(
        cluster_factory=lambda: make_cluster(ns),
        app_factory=lambda: make_app(args.app, args.steps, args.size, args.rate),
        every=args.every,
        classes=tuple(args.classes.split(",")) if args.classes else None,
        faults=args.faults,
    )

    t0 = time.time()

    def progress(res) -> None:
        if args.verbose:
            p = res.point
            base = f" base=p{p.base[1]}@{p.base[0]}" if p.base else ""
            print(
                f"  {p.cls:<10} p{p.victim}@{p.step}{base}: {res.outcome}"
                + (f" ({res.error})" if res.error else "")
            )

    summary = sweep.run(progress=progress)
    host_s = time.time() - t0

    print(f"crash sweep   {args.app} on {args.procs} simulated nodes "
          f"({len(summary.results)} points, {host_s:.1f}s host time)")
    print(summary.render())
    for note in summary.notes:
        print(f"note: {note}")

    suffix = "_k2" if args.faults >= 2 else ""
    out = args.out or f"benchmarks/SWEEP_{args.app}{suffix}.json"
    payload = summary.to_dict(
        app=args.app, procs=args.procs, replicate=replicate
    )
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"written to {out}")
    if not summary.ok:
        from repro.faultinject.campaign import DEGRADABLE_CLASSES

        for r in summary.results:
            if r.outcome == "failed" or (
                r.outcome == "degraded"
                and r.point.cls not in DEGRADABLE_CLASSES
            ):
                print(
                    f"FAIL {r.point.cls} p{r.point.victim}@{r.point.step}: "
                    f"{r.error}", file=sys.stderr,
                )
        return 1
    return 0


def build_observe_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro observe",
        description="Run one workload with the observability layer attached "
        "and emit a run report: per-node time series (log sizes, diff "
        "traffic, simulator rates), wait histograms, and summary tables. "
        "The full report is written as JSONL; a rendered version is printed.",
    )
    p.add_argument("app", choices=[a for a in APPS if a not in ("tables", "bench")])
    p.add_argument("--procs", type=int, default=4, help="cluster size (default 4)")
    p.add_argument("--steps", type=int, default=None, help="application steps")
    p.add_argument("--size", type=int, default=None, help="problem size")
    p.add_argument("--l", type=float, default=0.1, help="OF policy L fraction")
    p.add_argument(
        "--no-ft", action="store_true",
        help="observe the base protocol instead of the fault-tolerant one",
    )
    p.add_argument(
        "--replicate", action="store_true",
        help="enable the buddy-replication tier and report the "
        "ft.replica_bytes / ft.replica_lag series",
    )
    p.add_argument(
        "--interval", type=float, default=1e-3, metavar="SECONDS",
        help="virtual-time sampling cadence (default 1e-3); 0 disables the "
        "ticker, leaving barrier-episode sampling only",
    )
    p.add_argument(
        "--window", type=float, default=1e-3, metavar="SECONDS",
        help="windowed tail-latency collection: rotate every latency op "
        "class into fixed virtual-time windows of this width (default "
        "1e-3); 0 disables windowing (and SLO evaluation)",
    )
    p.add_argument(
        "--rate", type=float, default=None,
        help="open-loop arrival rate, requests per virtual second per "
        "process (session app only)",
    )
    p.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="declarative latency objective, e.g. 'p99(lat.request)<5ms' "
        "(repeatable); evaluated with multi-window burn-rate rules over "
        "the collected windows — any violation makes the exit code "
        "nonzero (the CI gate)",
    )
    p.add_argument(
        "--crash",
        metavar="PID@FRAC",
        default=None,
        help="fail-stop PID at FRAC of the failure-free runtime (e.g. "
        "1@0.5); the report then carries recovery records and the "
        "degradation timeline overlays the crash marks",
    )
    p.add_argument(
        "--crash2",
        metavar="PID@FRAC",
        default=None,
        help="schedule a second fail-stop (overlapping failures; pair "
        "with --replicate)",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="JSONL report path (default benchmarks/OBSERVE_<app>.jsonl)",
    )
    return p


def run_observe(argv: list) -> int:
    from repro.observe import (
        ClusterObserver,
        build_report,
        evaluate_report_slos,
        parse_slo,
        render_report,
        validate_report,
        write_jsonl,
    )

    args = build_observe_parser().parse_args(argv)
    if (args.crash or args.crash2) and args.no_ft:
        print("--crash requires fault tolerance (drop --no-ft)", file=sys.stderr)
        return 2
    if args.crash2 and not args.crash:
        print("--crash2 requires --crash", file=sys.stderr)
        return 2
    objectives = []
    for spec in args.slo or ():
        try:
            objectives.append(parse_slo(spec))
        except ValueError as exc:
            print(f"bad --slo: {exc}", file=sys.stderr)
            return 2
    if objectives and not args.window:
        print("--slo requires windowed collection (drop --window 0)",
              file=sys.stderr)
        return 2
    ns = argparse.Namespace(
        procs=args.procs, ft=not args.no_ft, coordinated=False, wan=None,
        l=args.l, replicate=args.replicate and not args.no_ft,
    )

    # failure-free pass to learn the runtime if a crash is requested
    crash_specs = []
    if args.crash:
        golden = make_cluster(ns)
        t_free = golden.run(
            make_app(args.app, args.steps, args.size, args.rate)
        ).wall_time
        for spec in (args.crash, args.crash2):
            if spec:
                pid_s, frac_s = spec.split("@")
                crash_specs.append((int(pid_s), float(frac_s) * t_free))

    cluster = make_cluster(ns)
    observer = ClusterObserver(
        cluster,
        interval=args.interval or None,
        sample_on_barrier=True,
        window_s=args.window or None,
    )
    for spec in crash_specs:
        cluster.schedule_crash(*spec)

    from repro.core.recovery import OverlappingFailureError

    t0 = time.time()
    try:
        result = cluster.run(
            make_app(args.app, args.steps, args.size, args.rate)
        )
    except OverlappingFailureError as exc:
        print(f"overlapping failures: {exc}", file=sys.stderr)
        print("(the single-fault model cannot recover this schedule; "
              "pair --crash2 with --replicate)", file=sys.stderr)
        return 1
    host_s = time.time() - t0
    observer.sample()  # final snapshot at end-of-run virtual time

    meta = {
        "app": args.app,
        "procs": args.procs,
        "ft": not args.no_ft,
        "replicate": ns.replicate,
        "l_fraction": args.l,
        "interval_s": args.interval,
        "host_time_s": round(host_s, 3),
    }
    if args.rate is not None:
        meta["rate"] = args.rate
    if args.crash:
        meta["crash"] = args.crash
        meta["crash2"] = args.crash2

    # SLO evaluation needs the wlat records, so build the report twice:
    # once to evaluate against, once carrying the verdicts
    report = build_report(
        observer.registry, meta, result=result,
        recoveries=observer.recovery_records,
    )
    slos = (
        evaluate_report_slos(report, objectives) if objectives else None
    )
    if slos is not None:
        report = build_report(
            observer.registry, meta, result=result,
            recoveries=observer.recovery_records, slos=slos,
        )
    print(render_report(report))

    out = args.out or f"benchmarks/OBSERVE_{args.app}.jsonl"
    write_jsonl(out, report)
    print(f"\nwritten to {out}")

    errors = validate_report(report, require_ft=not args.no_ft)
    if errors:
        for e in errors:
            print(f"INVALID: {e}", file=sys.stderr)
        return 1
    failed = [s for s in slos or () if not s.ok]
    for s in failed:
        print(
            f"SLO GATE: {s.objective.spec} violated in "
            f"{len(s.violations)} window(s)", file=sys.stderr,
        )
    return 1 if failed else 0


def build_trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one workload with causal span tracing attached and "
        "emit a Chrome trace-event JSON (loadable in Perfetto / "
        "chrome://tracing) plus an ASCII critical-path report. Exits "
        "nonzero if the span DAG is malformed or its per-node self-times "
        "fail to reconcile with the TimeStats buckets.",
    )
    p.add_argument("app", choices=[a for a in APPS if a not in ("tables", "bench")])
    p.add_argument("--procs", type=int, default=4, help="cluster size (default 4)")
    p.add_argument("--steps", type=int, default=None, help="application steps")
    p.add_argument("--size", type=int, default=None, help="problem size")
    p.add_argument("--l", type=float, default=0.1, help="OF policy L fraction")
    p.add_argument(
        "--no-ft", action="store_true",
        help="trace the base protocol instead of the fault-tolerant one",
    )
    p.add_argument(
        "--crash",
        metavar="PID@FRAC",
        default=None,
        help="fail-stop PID at FRAC of the failure-free runtime (e.g. 2@0.5); "
        "requires fault tolerance",
    )
    p.add_argument(
        "--crash2",
        metavar="PID@FRAC",
        default=None,
        help="schedule a second fail-stop (overlapping-failure traces; "
        "pair with --replicate to see the buddy fetch on the recovery "
        "critical path)",
    )
    p.add_argument(
        "--replicate", action="store_true",
        help="enable the buddy-replication tier (adds repl spans: "
        "checkpoint begin→commit transfers, recovery buddy fetches)",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="trace JSON path (default benchmarks/results/TRACE_<app>.json)",
    )
    p.add_argument(
        "--report", default=None, metavar="PATH",
        help="critical-path report path "
        "(default benchmarks/results/TRACE_<app>_critpath.txt)",
    )
    p.add_argument(
        "--top", type=int, default=12,
        help="critical-path segments to list in the report (default 12)",
    )
    return p


def run_trace(argv: list) -> int:
    import json
    import os

    from repro.observe.tracing import (
        SpanTracer,
        compute_critical_path,
        reconcile_with_time_stats,
        render_critpath_report,
        to_chrome_trace,
    )

    args = build_trace_parser().parse_args(argv)
    if (args.crash or args.crash2) and args.no_ft:
        print("--crash requires fault tolerance (drop --no-ft)", file=sys.stderr)
        return 2
    if args.crash2 and not args.crash:
        print("--crash2 requires --crash", file=sys.stderr)
        return 2
    ns = argparse.Namespace(
        procs=args.procs, ft=not args.no_ft, coordinated=False, wan=None,
        l=args.l, replicate=args.replicate and not args.no_ft,
    )

    # failure-free pass to learn the runtime if a crash is requested
    crash_specs = []
    if args.crash:
        golden = make_cluster(ns)
        t_free = golden.run(make_app(args.app, args.steps, args.size)).wall_time
        for spec in (args.crash, args.crash2):
            if spec:
                pid_s, frac_s = spec.split("@")
                crash_specs.append((int(pid_s), float(frac_s) * t_free))

    cluster = make_cluster(ns)
    tracer = SpanTracer(cluster)
    for spec in crash_specs:
        cluster.schedule_crash(*spec)

    t0 = time.time()
    result = cluster.run(make_app(args.app, args.steps, args.size))
    host_s = time.time() - t0

    errors = tracer.validate()
    errors += reconcile_with_time_stats(tracer)
    segments = compute_critical_path(tracer)
    report = render_critpath_report(tracer, segments, top=args.top)

    print(f"app           {args.app} on {args.procs} simulated nodes "
          f"({host_s:.1f}s host time)")
    print(f"virtual time  {result.wall_time * 1e3:10.3f} ms")
    if result.crashes:
        print(f"failures      {result.crashes} crash(es), "
              f"{result.recoveries} recover(ies)")
    print()
    print(report)

    out = args.out or f"benchmarks/results/TRACE_{args.app}.json"
    report_path = args.report or f"benchmarks/results/TRACE_{args.app}_critpath.txt"
    for path in (out, report_path):
        d = os.path.dirname(path)
        if d:
            os.makedirs(d, exist_ok=True)
    trace_json = to_chrome_trace(
        tracer,
        meta={
            "app": args.app,
            "procs": args.procs,
            "ft": not args.no_ft,
            "replicate": ns.replicate,
            "crash": args.crash,
            "crash2": args.crash2,
            "wall_time_s": result.wall_time,
        },
    )
    with open(out, "w") as fh:
        json.dump(trace_json, fh)
        fh.write("\n")
    with open(report_path, "w") as fh:
        fh.write(report + "\n")
    print(f"\ntrace written to {out} ({len(trace_json['traceEvents'])} events)")
    print(f"critical-path report written to {report_path}")

    if errors:
        for e in errors:
            print(f"MALFORMED: {e}", file=sys.stderr)
        return 1
    return 0


def build_monitor_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro monitor",
        description="Run one fault-tolerant workload with the online "
        "invariant monitor attached: the paper's trimming/garbage-"
        "collection bounds, vector-clock monotonicity, per-channel FIFO "
        "and the structural recoverability precondition are checked "
        "continuously (DESIGN.md §9). Exits nonzero on any violation and "
        "writes a post-mortem flight record (last-events ring + node "
        "state snapshot) as JSON.",
    )
    p.add_argument("app", choices=[a for a in APPS if a not in ("tables", "bench")])
    p.add_argument("--procs", type=int, default=4, help="cluster size (default 4)")
    p.add_argument("--steps", type=int, default=None, help="application steps")
    p.add_argument("--size", type=int, default=None, help="problem size")
    p.add_argument("--l", type=float, default=0.1, help="OF policy L fraction")
    p.add_argument(
        "--crash",
        metavar="PID@FRAC",
        default=None,
        help="fail-stop PID at FRAC of the failure-free runtime (e.g. 2@0.5)",
    )
    p.add_argument(
        "--ring", type=int, default=256,
        help="flight-recorder ring size in events (default 256)",
    )
    p.add_argument(
        "--flight", default=None, metavar="PATH",
        help="flight-record JSON path, written on violation "
        "(default benchmarks/FLIGHT_<app>.json)",
    )
    p.add_argument(
        "--seed-violation",
        choices=["cgc", "llt", "vclock", "fifo", "recoverability"],
        default=None,
        help="deliberately sabotage the run so the named invariant class "
        "is violated (self-test: the exit code must be nonzero)",
    )
    return p


def run_monitor(argv: list) -> int:
    from repro.observe import (
        InvariantMonitor,
        render_flight_record,
        seed_violation,
        write_flight_record,
    )

    args = build_monitor_parser().parse_args(argv)
    # the monitored invariants are the FT layer's — plain mode has
    # nothing to check, so ft is always on here
    ns = argparse.Namespace(
        procs=args.procs, ft=True, coordinated=False, wan=None, l=args.l
    )

    crash_spec = None
    if args.crash:
        pid_s, frac_s = args.crash.split("@")
        golden = make_cluster(ns)
        t_free = golden.run(make_app(args.app, args.steps, args.size)).wall_time
        crash_spec = (int(pid_s), float(frac_s) * t_free)

    cluster = make_cluster(ns)
    monitor = InvariantMonitor(cluster, ring_size=args.ring)
    if args.seed_violation:
        # must come after the monitor attach: the fifo seed reorders
        # outside the monitor's observation point
        seed_violation(cluster, args.seed_violation)
    if crash_spec:
        cluster.schedule_crash(*crash_spec)

    t0 = time.time()
    result = None
    run_error = None
    try:
        result = cluster.run(make_app(args.app, args.steps, args.size))
    except Exception as exc:  # seeded sabotage can corrupt the run
        if not monitor.violations:
            raise
        run_error = exc
    host_s = time.time() - t0
    monitor.finish()

    print(f"app           {args.app} on {args.procs} simulated nodes "
          f"({host_s:.1f}s host time)")
    if result is not None:
        print(f"virtual time  {result.wall_time * 1e3:10.3f} ms")
        if result.crashes:
            print(f"failures      {result.crashes} crash(es), "
                  f"{result.recoveries} recover(ies)")
    else:
        print(f"run aborted   {type(run_error).__name__}: {run_error} "
              "(after first violation; expected under seeded sabotage)")
    print()
    print(monitor.render_summary())

    if not monitor.violations:
        return 0
    dump = monitor.violation_dump or monitor.flight_record("violations")
    out = args.flight or f"benchmarks/FLIGHT_{args.app}.json"
    write_flight_record(out, dump)
    print()
    print(render_flight_record(dump))
    print(f"\nflight record written to {out}")
    return 1


def build_report_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Aggregate every pipeline's artifacts (OBSERVE run "
        "reports, TRACE span DAGs, SWEEP campaign summaries, BENCH "
        "baselines, FLIGHT records) into one analytics dashboard. "
        "Read-only. Exits nonzero on any malformed artifact, failed "
        "sweep, present flight record, or bench throughput regression "
        "beyond the threshold.",
    )
    p.add_argument(
        "paths", nargs="*", default=["benchmarks"],
        help="artifact files and/or directories to scan "
        "(default: benchmarks/)",
    )
    p.add_argument(
        "--threshold", type=float, default=None, metavar="FRAC",
        help="fractional aggregate-throughput drop that fails a bench "
        "trend (default 0.10)",
    )
    p.add_argument(
        "--html", default=None, metavar="PATH",
        help="also write the dashboard as a standalone HTML page",
    )
    return p


def run_report(argv: list) -> int:
    from repro.observe.analytics import (
        DEFAULT_THRESHOLD,
        build_dashboard,
        discover_artifacts,
        load_artifact,
        render_dashboard,
        render_html,
    )

    args = build_report_parser().parse_args(argv)
    paths = discover_artifacts(args.paths)
    if not paths:
        print(f"no artifacts found under {args.paths}", file=sys.stderr)
        return 1
    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    dash = build_dashboard(
        [load_artifact(p) for p in paths], threshold=threshold
    )
    print(render_dashboard(dash))
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(render_html(dash))
        print(f"\nhtml dashboard written to {args.html}")
    return 0 if dash["ok"] else 1


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "crashsweep":
        return run_crashsweep(argv[1:])
    if argv and argv[0] == "observe":
        return run_observe(argv[1:])
    if argv and argv[0] == "trace":
        return run_trace(argv[1:])
    if argv and argv[0] == "monitor":
        return run_monitor(argv[1:])
    if argv and argv[0] == "report":
        return run_report(argv[1:])
    args = build_parser().parse_args(argv)

    if args.app == "bench":
        from repro.metrics.bench import (
            check_report,
            check_scale_report,
            render_report,
            run_scale_suite,
            run_suite,
            write_report,
        )

        scale = args.suite == "scale"
        bench_json = args.bench_json or (
            "benchmarks/BENCH_scale.json" if scale
            else "benchmarks/BENCH_core.json"
        )
        runner = run_scale_suite if scale else run_suite
        report = runner(smoke=args.smoke, profile=args.profile)
        print(render_report(report))
        if args.check:
            checker = check_scale_report if scale else check_report
            ok, msg = checker(bench_json, report, budget=args.budget)
            print(("PASS " if ok else "FAIL ") + msg)
            return 0 if ok else 1
        if args.smoke or args.profile:
            # smoke/profiled numbers are not comparable to the full suite;
            # recording them would silently corrupt the committed baseline
            print("\n(smoke/profile run not recorded; run plain "
                  "`repro bench` to update " + bench_json + ")")
            return 0
        payload = write_report(bench_json, report)
        speedup = payload.get("speedup_events_per_sec")
        print(f"\nrecorded to {bench_json}"
              + (f" (x{speedup} vs baseline)" if speedup else ""))
        return 0

    if args.app == "tables":
        from repro.harness.figures import figure3_table, figure4_render
        from repro.harness.tables import (
            run_all_experiments,
            table1,
            table2,
            table3,
            table4,
        )

        ex = run_all_experiments(scale=args.scale)
        for fn in (table1, table2, table3, table4):
            print(fn(ex).render(), end="\n\n")
        print(figure3_table(ex).render(), end="\n\n")
        print(figure4_render(ex))
        return 0

    if args.crash and not args.ft:
        print("--crash requires --ft", file=sys.stderr)
        return 2

    # failure-free pass to learn the runtime if a crash is requested
    crash_spec = None
    if args.crash:
        pid_s, frac_s = args.crash.split("@")
        golden = make_cluster(args)
        t_free = golden.run(
            make_app(args.app, args.steps, args.size, args.rate)
        ).wall_time
        crash_spec = (int(pid_s), float(frac_s) * t_free)

    cluster = make_cluster(args)
    tracer = None
    if args.trace:
        from repro.sim.trace import Tracer

        kinds = set(args.trace.split(","))
        unknown = kinds - Tracer.KINDS
        if unknown:
            print(
                f"unknown trace kinds: {','.join(sorted(unknown))} "
                f"(choose from {','.join(sorted(Tracer.KINDS))})",
                file=sys.stderr,
            )
            return 2
        tracer = Tracer(cluster, kinds=kinds)
    if crash_spec:
        cluster.schedule_crash(*crash_spec)

    t0 = time.time()
    result = cluster.run(make_app(args.app, args.steps, args.size, args.rate))
    host_s = time.time() - t0

    print(f"app           {args.app} on {args.procs} simulated nodes")
    print(f"virtual time  {result.wall_time * 1e3:10.3f} ms")
    print(f"host time     {host_s * 1e3:10.0f} ms")
    print(f"messages      {result.traffic.total_msgs:10d}  "
          f"({result.traffic.total_bytes / 1e6:.2f} MB)")
    mean = result.mean_time_stats
    total = mean.total or 1.0
    breakdown = "  ".join(
        f"{b.value}={100 * mean.seconds[b] / total:.0f}%" for b in TimeBucket
    )
    print(f"time buckets  {breakdown}")
    if args.ft:
        ckpts = sum(s.checkpoints_taken for s in result.ft_stats if s)
        print(f"checkpoints   {ckpts:10d}")
        print(f"ft piggyback  {result.traffic.ft_bytes:10d} bytes "
              f"({result.traffic.ft_overhead_percent():.2f} %)")
    if result.crashes:
        print(f"failures      {result.crashes} crash(es), "
              f"{result.recoveries} recover(ies) — results verified")
    if tracer:
        print("\ntrace:")
        print(tracer.render(limit=args.trace_limit))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
