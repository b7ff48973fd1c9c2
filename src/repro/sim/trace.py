"""Structured event tracing for protocol debugging and teaching.

A :class:`Tracer` subscribes to a :class:`~repro.cluster.DsmCluster`'s
instrumentation bus and records protocol-level events with virtual
timestamps: message sends, lock acquires/releases, barrier passages,
interval flushes, page fetches, checkpoints, crashes and recoveries.
Events are plain records, filterable and renderable as a timeline —
the simulator's answer to a real DSM's debug logs.

    cluster = DsmCluster(...)
    tracer = Tracer(cluster, kinds={"lock", "ckpt"})
    cluster.run(app)
    print(tracer.render(limit=50))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    time: float
    pid: int
    kind: str  # send | lock | barrier | flush | fetch | ckpt | failure | ...
    detail: str
    #: engine event index at emission — with a deterministic engine,
    #: (pid, step) names one reproducible point in the execution, which
    #: is what the crash-sweep campaign enumerates as injection targets
    step: int = -1

    def render(self) -> str:
        # a negative step means "emitted before the engine ran any
        # event" (e.g. during setup) — render a placeholder, not #-1
        step = f"{self.step:<7d}" if self.step >= 0 else f"{'——':<7}"
        return (
            f"{self.time * 1e3:10.4f} ms "
            f"#{step} p{self.pid}  {self.kind:<10} {self.detail}"
        )


class Tracer:
    """Formats the cluster's bus events (:mod:`repro.sim.hooks`) as a
    flat timeline.

    ``send`` comes from the send hook; ``lock``/``barrier``/``ckpt``
    from the release op and the commit points (lock acquired, barrier
    passed, checkpoint taken); ``flush``/``fetch`` from completed ops;
    every other kind is a probe (fail-stops, checkpoint disk writes,
    recovery lifecycle and phases, replication).
    """

    KINDS = {
        "send",
        "lock",
        "barrier",
        "flush",
        "fetch",
        "ckpt",
        "ckpt_write",
        "recovery",
        "rphase",
        "repl",
        "failure",
    }

    def __init__(
        self,
        cluster: Any,
        kinds: Optional[Iterable[str]] = None,
        max_events: int = 100_000,
    ) -> None:
        self.cluster = cluster
        self.kinds: Set[str] = set(kinds) if kinds else set(self.KINDS)
        unknown = self.kinds - self.KINDS
        if unknown:
            raise ValueError(f"unknown trace kinds: {sorted(unknown)}")
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped = 0
        cluster.hooks.subscribe(
            send=self._on_send, probe=self._on_probe, op=self._on_op,
            commit=self._on_commit,
        )

    # ------------------------------------------------------------------
    def _emit(self, pid: int, kind: str, detail: str) -> None:
        if kind not in self.kinds:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        engine = self.cluster.engine
        self.events.append(
            TraceEvent(engine.now, pid, kind, detail, engine.steps)
        )

    def _on_send(self, src: int, dst: int, msg: Any) -> None:
        self._emit(
            src, "send", f"-> p{dst}  {type(msg).__name__} ({msg.category})"
        )

    def _on_probe(self, pid: int, kind: str, detail: str, data: Any) -> None:
        self._emit(pid, kind, detail)

    def _on_commit(self, proc: Any, kind: str, arg: Any) -> None:
        if kind == "acquire":
            lock_id, grantor = arg
            how = "local" if grantor is None else f"from p{grantor}"
            self._emit(proc.pid, "lock", f"acquired L{lock_id} {how}")
        elif kind == "barrier":
            self._emit(proc.pid, "barrier", f"passed episode {arg}")
        else:
            self._emit(
                proc.pid, "ckpt", f"checkpoint #{arg} Tckp={tuple(proc.vt)}"
            )

    def _on_op(self, proc: Any, kind: str, phase: str, arg: Any) -> None:
        if phase == "begin":
            if kind == "release":
                self._emit(proc.pid, "lock", f"release L{arg}")
        elif phase == "end":
            if kind == "flush":
                self._emit(
                    proc.pid, "flush",
                    f"interval {proc.vt[proc.pid]}: {arg} dirty pages",
                )
            elif kind == "fetch":
                self._emit(proc.pid, "fetch", f"page {tuple(arg)}")

    # ------------------------------------------------------------------
    def filter(
        self, kind: Optional[str] = None, pid: Optional[int] = None
    ) -> List[TraceEvent]:
        return [
            e
            for e in self.events
            if (kind is None or e.kind == kind)
            and (pid is None or e.pid == pid)
        ]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def render(
        self,
        limit: int = 100,
        kind: Optional[str] = None,
        pid: Optional[int] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> str:
        """A timeline of (up to ``limit``) events.

        ``kind``/``pid`` select an event class or node; ``since``/
        ``until`` bound the virtual-time window (seconds, inclusive) —
        so a crash-sweep debugging session can zoom straight to the
        events around an injected crash point instead of slicing
        ``tracer.events`` by hand.
        """
        events = [
            e
            for e in self.events
            if (kind is None or e.kind == kind)
            and (pid is None or e.pid == pid)
            and (since is None or e.time >= since)
            and (until is None or e.time <= until)
        ]
        lines = [e.render() for e in events[:limit]]
        if len(events) > limit:
            lines.append(f"... {len(events) - limit} more events")
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (max_events)")
        return "\n".join(lines)
