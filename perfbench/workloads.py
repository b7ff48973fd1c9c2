"""The benchmark's workloads, request accounting and work counters.

Each workload builds its inputs from the seed alone (:meth:`Workload.
inputs`) and runs them cold: every run constructs a fresh cluster,
application and observability consumers, exactly as a user's run does.

Requests. All three applications do their unit of work as one critical
section, ``acquire -> access -> release``: a counter increment, a
key-value put, a session request. :class:`RequestLedger` identifies each
by ``(pid, step, phase, k)`` -- the k-th acquire of a phase of a step in
program order -- so a request that recovery re-executes is the *same*
request: it is counted once, its latency runs from its first issue to its
first completion, and the re-execution is counted in ``replayed``. A
request starts when it is issued: at its scheduled arrival for the
open-loop session workload (so a stall also delays every request queued
behind it), at the ``acquire`` call for the closed-loop ones.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import DsmCluster, DsmConfig
from repro.apps.counter import CounterApp, CounterConfig
from repro.apps.kvstore import KvStoreApp, KvStoreConfig
from repro.apps.session import SessionApp, SessionConfig
from repro.core import LogOverflowPolicy
from repro.core.ftmanager import FtConfig
from repro.dsm.protocol import DsmProcess
from repro.observe import ClusterObserver, InvariantMonitor, SpanTracer
from repro.sim.node import TimeBucket

from spans import LayerTracer

#: checkpoint policy of every workload: log overflow at L = 0.1 of the
#: footprint, the repository's default operating point
L_FRACTION = 0.1


class RequestLedger:
    """Counts each issued request once; see the module docstring."""

    def __init__(self, cluster: DsmCluster, arrival: Optional[Callable[[int, int, int], float]]):
        self.cluster = cluster
        #: open loop: (pid, step, k) -> scheduled arrival; None: closed loop
        self.arrival = arrival
        self.issued: Dict[Tuple[int, int, int, int], float] = {}
        self.latency: Dict[Tuple[int, int, int, int], float] = {}
        self.replayed = 0
        self._cursor: Dict[int, Tuple[Any, int, int, int]] = {}
        self._open: Dict[int, Tuple[int, int, int, int]] = {}

    def on_acquire(self, proc: DsmProcess) -> None:
        pid = proc.pid
        state = self.cluster.hosts[pid].state
        step, phase = state["step"], state["phase"]
        cur = self._cursor.get(pid)
        if cur is not None and cur[0] is proc and cur[1:3] == (step, phase):
            k = cur[3] + 1
        else:
            k = 0  # new phase, or a new incarnation replaying from a checkpoint
        self._cursor[pid] = (proc, step, phase, k)
        key = (pid, step, phase, k)
        if key not in self.issued:
            now = proc.engine.now
            self.issued[key] = now if self.arrival is None else self.arrival(pid, step, k)
        self._open[pid] = key

    def on_release(self, proc: DsmProcess) -> None:
        key = self._open.pop(proc.pid)
        if key in self.latency:
            self.replayed += 1
        else:
            self.latency[key] = proc.engine.now - self.issued[key]


class _LedgerHooks:
    """Routes ``DsmProcess.acquire``/``release`` through the active ledger.

    Installed for the life of the benchmark process; with no active
    ledger the wrappers only forward.
    """

    def __init__(self) -> None:
        self.ledger: Optional[RequestLedger] = None
        self._installed = False

    def install(self) -> None:
        if self._installed:
            return
        self._installed = True
        hooks = self
        acquire = DsmProcess.acquire
        release = DsmProcess.release

        def acquire_w(proc: DsmProcess, lock_id: int):
            if hooks.ledger is not None:
                hooks.ledger.on_acquire(proc)
            return (yield from acquire(proc, lock_id))

        def release_w(proc: DsmProcess, lock_id: int):
            result = yield from release(proc, lock_id)
            if hooks.ledger is not None:
                hooks.ledger.on_release(proc)
            return result

        DsmProcess.acquire = acquire_w
        DsmProcess.release = release_w


LEDGER_HOOKS = _LedgerHooks()


@dataclass
class RunRecord:
    """Outcome of one cold run of a workload."""

    wall_s: float
    ok: bool
    error: str = ""
    #: deterministic work counters (must repeat exactly for one seed)
    counts: Dict[str, float] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)
    #: (pid, step, phase, k) -> issue time of every request
    issued: Dict[Tuple[int, int, int, int], float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: the LayerTracer of a traced run
    tracer: Any = None


@dataclass
class Inputs:
    """Everything a run needs, generated from the seed."""

    make_app: Callable[[], Any]
    crash: Optional[Tuple[int, float]]  # (pid, virtual time)
    expected_requests: int


@dataclass
class Workload:
    name: str
    why: str
    procs: int
    #: seed -> (app factory, expected request count)
    app: Callable[[int], Tuple[Callable[[], Any], int]]
    replicate: bool = False
    observer: bool = False
    monitor: bool = False
    span_tracer: bool = False
    #: (workload, crash-free inputs) -> (pid, virtual time) of the one fail-stop
    crash: Optional[Callable[["Workload", "Inputs"], Tuple[int, float]]] = None
    #: open loop: app -> (pid, step, k) -> arrival time
    arrival: Optional[Callable[[Any], Callable[[int, int, int], float]]] = None
    #: what counts as one failed operation: a request or a whole run
    unit: str = "run"

    # ------------------------------------------------------------------
    def inputs(self, seed: int) -> Inputs:
        make_app, expected = self.app(seed)
        inp = Inputs(make_app, None, expected)
        if self.crash is not None:
            inp.crash = self.crash(self, inp)
        return inp

    def make_cluster(self) -> DsmCluster:
        return DsmCluster(
            DsmConfig(num_procs=self.procs),
            ft=True,
            ft_config=FtConfig(replicate=self.replicate),
            policy_factory=lambda pid, fp: LogOverflowPolicy(L_FRACTION, fp),
        )

    def _attach(self, cluster: DsmCluster, tracer: Any) -> Dict[str, Any]:
        consumers: Dict[str, Any] = {}
        plan = [
            ("observe.observer", self.observer,
             lambda: ClusterObserver(cluster, window_s=1e-3)),
            ("observe.invariants", self.monitor, lambda: InvariantMonitor(cluster)),
            ("observe.tracing", self.span_tracer, lambda: SpanTracer(cluster)),
        ]
        for layer, wanted, attach in plan:
            if not wanted:
                continue
            consumers[layer] = (
                attach() if tracer is None
                else tracer.hook_consumer(layer, cluster, attach)
            )
        return consumers

    def time_setup(self, inp: Inputs) -> float:
        """Host seconds to build the cluster, attach consumers and set up."""
        t0 = time.perf_counter()
        cluster = self.make_cluster()
        self._attach(cluster, None)
        cluster.setup(inp.make_app())
        return time.perf_counter() - t0

    def run(self, inp: Inputs, trace: bool = False,
            prepare: Optional[Callable[[DsmCluster], None]] = None) -> RunRecord:
        """One cold run; ``trace`` makes it the traced run (layer spans on).

        ``prepare(cluster)`` runs after the consumers attach and before
        the run starts; tests use it to sabotage a run.
        """
        LEDGER_HOOKS.install()  # before the tracer, which restores on exit
        if not trace:
            return self._run(inp, None, prepare)
        with LayerTracer() as tracer:
            rec = self._run(inp, tracer, prepare)
        rec.tracer = tracer
        return rec

    def _run(self, inp: Inputs, tracer: Optional[LayerTracer],
             prepare: Optional[Callable[[DsmCluster], None]]) -> RunRecord:
        box: Dict[str, Any] = {}

        def body() -> None:
            app = inp.make_app()
            if tracer is not None:
                tracer.hook_app(app)
            cluster = self.make_cluster()
            consumers = self._attach(cluster, tracer)
            if prepare is not None:
                prepare(cluster)
            if inp.crash is not None:
                cluster.schedule_crash(*inp.crash)
            ledger = RequestLedger(
                cluster, self.arrival(app) if self.arrival else None
            )
            LEDGER_HOOKS.ledger = ledger
            box.update(cluster=cluster, ledger=ledger, consumers=consumers)
            try:
                box["result"] = cluster.run(app)
            finally:
                LEDGER_HOOKS.ledger = None
            monitor = consumers.get("observe.invariants")
            if monitor is not None:
                box["violations"] = monitor.finish()

        t0 = time.perf_counter()
        error = ""
        try:
            if tracer is None:
                body()
            else:
                tracer.run_root(body)
        except Exception as exc:  # a failed run is a measured outcome
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}".splitlines()[0]
        wall = time.perf_counter() - t0
        if not error and box.get("violations"):
            v = box["violations"][0]
            error = f"invariant violation ({len(box['violations'])}): {v.invariant} p{v.pid} {v.detail}"

        ledger: Optional[RequestLedger] = box.get("ledger")
        completed = len(ledger.latency) if ledger is not None else 0
        if not error and completed != inp.expected_requests:
            error = f"{completed} requests completed, {inp.expected_requests} issued"
        ok = not error
        attempted = inp.expected_requests if self.unit == "request" else 1
        failed = 0 if ok else attempted
        rec = RunRecord(wall, ok, error, attempted=attempted, failed=failed)
        if ok:
            rec.counts = work_counts(box["cluster"], box["result"], ledger)
            rec.latencies_s = sorted(ledger.latency.values())
            rec.issued = ledger.issued
        return rec


def work_counts(cluster: DsmCluster, result: Any, ledger: RequestLedger) -> Dict[str, float]:
    """Deterministic counters of one run (simulated quantities only)."""
    hosts = cluster.hosts
    protos = [h.proto for h in hosts if h.proto is not None]
    fts = [h.ft for h in hosts if h.ft is not None]
    traffic = result.traffic
    counts: Dict[str, float] = {
        "sim.engine.events": cluster.engine.steps,
        "sim.makespan_s": result.wall_time,
        "sim.network.msgs": traffic.total_msgs,
        "sim.network.bytes": traffic.total_bytes,
        "sim.network.ft_bytes": traffic.ft_bytes,
        "sim.network.replica_bytes": traffic.bytes_by_category.get("replica", 0),
        "sim.network.recovery_bytes": traffic.bytes_by_category.get("recovery", 0),
        "sim.storage.disk_bytes": sum(h.disk.bytes_written for h in hosts),
        "dsm.protocol.notices_applied": sum(p.stats.notices_applied for p in protos),
        "dsm.protocol.page_fetches": sum(p.stats.page_fetches for p in protos),
        "dsm.protocol.lock_acquires": sum(p.stats.lock_acquires for p in protos),
        "dsm.diff.bytes": sum(p.stats.diff_bytes_created for p in protos),
        "core.ftmanager.checkpoints": sum(f.stats.checkpoints_taken for f in fts),
        "core.checkpoint.retained": sum(
            len(h.ckpt_mgr.retained_seqnos) for h in hosts if h.ckpt_mgr is not None
        ),
        "core.logs.created_bytes": sum(f.logs.diff.bytes_created for f in fts),
        "core.logs.saved_bytes": sum(f.stats.logs_saved_bytes for f in fts),
        "core.replica.bytes": sum(f.repl.bytes_sent for f in fts if f.repl is not None),
        "core.recovery.recoveries": result.recoveries,
        "apps.requests": len(ledger.issued),
        "apps.replayed": ledger.replayed,
    }
    for bucket in TimeBucket:
        counts[f"sim.node.{bucket.value}_s"] = sum(
            ts.seconds[bucket] for ts in result.time_stats
        )
    phases = [rec for h in hosts for rec in h.recovery_phases]
    for phase in ("total", "detect", "restore", "handshake", "replay"):
        counts[f"core.recovery.{phase}_s"] = float(sum(r[phase] for r in phases))
    return counts


def compare_counts(runs: List[Dict[str, float]]) -> List[str]:
    """Every counter that differs between runs of one seed (exact match)."""
    if not runs:
        return []
    first = runs[0]
    bad = []
    for i, other in enumerate(runs[1:], start=1):
        for key in sorted(set(first) | set(other)):
            if first.get(key) != other.get(key):
                bad.append(f"{key}: run 0 has {first.get(key)!r}, run {i} has {other.get(key)!r}")
    return bad


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------
BARRIER_PROCS = 256


def _barrier_app(seed: int) -> Tuple[Callable[[], Any], int]:
    # counter draws nothing from its seed, so the seed sets the per-step
    # compute charge (0-10% above the app default): the simulated times
    # then differ between seeds while the notice traffic stays the same
    rng = np.random.default_rng(seed)
    cfg = dict(
        steps=1,
        n_elements=16 * BARRIER_PROCS,
        compute_per_step=1e-4 * (1.0 + 0.1 * float(rng.random())),
        seed=seed,
    )
    return (lambda: CounterApp(CounterConfig(**cfg))), BARRIER_PROCS * cfg["steps"]


SERVE_PROCS = 8
#: about twice what the cluster serves (~700 req/s/proc, barrier-coupled):
#: below that the latency is set by how far the processes' independent
#: arrival schedules drift apart between barriers, which varies ~30%
#: between seeds; in overload the backlog sets it and repeats within ~5%
SERVE_RATE = 1500.0
SERVE_STEPS = 80
SERVE_RPS = 8


def _serve_app(seed: int) -> Tuple[Callable[[], Any], int]:
    cfg = dict(steps=SERVE_STEPS, requests_per_step=SERVE_RPS, rate=SERVE_RATE, seed=seed)
    return (lambda: SessionApp(SessionConfig(**cfg))), SERVE_PROCS * SERVE_STEPS * SERVE_RPS


def _serve_crash(wl: Workload, inp: Inputs) -> Tuple[int, float]:
    # the makespan tracks the arrivals below saturation: crash p1 halfway
    # through its own arrival schedule
    return 1, 0.5 * float(inp.make_app().arrivals(1)[-1])


def _serve_arrival(app: SessionApp) -> Callable[[int, int, int], float]:
    rps = app.cfg.requests_per_step

    def arrival(pid: int, step: int, k: int) -> float:
        return float(app.arrivals(pid)[step * rps + k])

    return arrival


MONITOR_PROCS = 16
MONITOR_STEPS = 4
#: twice the app default: the log then overflows, and a checkpoint round
#: runs, on every step for every seed, so step times do not depend on
#: which steps the seed's keys happen to push over the threshold
MONITOR_PUTS = 8


def _monitor_app(seed: int) -> Tuple[Callable[[], Any], int]:
    cfg = dict(steps=MONITOR_STEPS, puts_per_step=MONITOR_PUTS, seed=seed)
    return (
        (lambda: KvStoreApp(KvStoreConfig(**cfg))),
        MONITOR_PROCS * MONITOR_STEPS * MONITOR_PUTS,
    )


def _monitor_crash(wl: Workload, inp: Inputs) -> Tuple[int, float]:
    # p3 (manager of stripe 3) fails just after issuing the first put of
    # the middle step, read off one untimed failure-free run without
    # consumers: its own put and every put to stripe 3 of that step wait
    # out the recovery, so the tail reflects the crash on every seed
    pid = 3
    plain = dataclasses.replace(wl, monitor=False, span_tracer=False, crash=None)
    rec = plain.run(inp)
    if not rec.ok:
        raise RuntimeError(f"failure-free run failed: {rec.error}")
    t_issue = rec.issued[(pid, inp.make_app().cfg.steps // 2, 0, 0)]
    return pid, t_issue + 1e-6


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="barrier-wide",
            why="counter, FT on, 256 procs weak-scaled, no crash, no observers: "
            "barrier write-notice application dominates; FT, recovery and observe idle",
            procs=BARRIER_PROCS,
            app=_barrier_app,
        ),
        Workload(
            name="serve-crash",
            why="session, 8 procs, FT + buddy replication, observer with windowed "
            "latency, one fail-stop; open loop at 1500 req/s/proc, twice capacity: "
            "the backlog grows",
            procs=SERVE_PROCS,
            app=_serve_app,
            replicate=True,
            observer=True,
            crash=_serve_crash,
            arrival=_serve_arrival,
            unit="request",
        ),
        Workload(
            name="monitor-crash",
            why="kvstore, 16 procs, FT, invariant monitor at every delivery plus "
            "span tracer, one fail-stop: two chained wrapping consumers",
            procs=MONITOR_PROCS,
            app=_monitor_app,
            monitor=True,
            span_tracer=True,
            crash=_monitor_crash,
        ),
    ]
}
