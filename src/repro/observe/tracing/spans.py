"""Causal span tracing: a span DAG with message edges over one run.

A :class:`SpanTracer` subscribes to a :class:`~repro.cluster.DsmCluster`'s
instrumentation bus (:mod:`repro.sim.hooks`) and upgrades observability
from flat events (the :class:`~repro.sim.trace.Tracer` timeline) to a
**span DAG**: every blocking protocol operation becomes a span
``[t0, t1]`` on its node's timeline, and every message becomes a
**causal edge** between the span that sent it and the node that
received it. On top of the DAG live the critical-path analysis
(``critpath.py``) and the Chrome trace-event export (``export.py``).

Span kinds
----------
* op spans, opened/closed by the ``op`` hook point's begin and
  end/abort: ``app`` (one per incarnation of a node's application main),
  ``compute``, ``fetch``, ``home_wait``, ``acquire``, ``barrier``,
  ``flush`` (interval flush with dirty pages), ``ckpt`` (the whole
  checkpoint operation);
* probe spans, derived from ``probe`` events: ``ckpt_write``
  (the stable-storage write, between the FT manager's existing
  begin/end probes) and ``recovery`` (failure-detection to live
  switch);
* wait spans, created *retroactively* whenever the protocol charges a
  wait bucket: ``page_wait``, ``lock_wait``, ``barrier_wait``. The
  protocol emits ``wait`` exactly once per wait, at the instant the
  wait ends and its bucket is charged, with the exact waited duration
  — so wait spans reconcile with the :class:`~repro.sim.node.TimeStats`
  bucket totals *by construction* (the invariant
  ``critpath.reconcile_with_time_stats`` checks).

Read-only guarantee
-------------------
The tracer only records; it sends no messages, charges no CPU,
schedules no events and never mutates protocol state (message identity
is tracked in a side table keyed by ``id(msg)``). The golden
determinism test passes with a SpanTracer attached.

Crash/recovery semantics
------------------------
A fail-stop closes every open span on the victim as ``abandoned`` (the
cluster emits a ``failure`` probe before killing the incarnation).
Recovery incarnations open fresh spans — ids are globally unique and
every span carries its ``incarnation`` (the host's ``crashed_count`` at
open), so the final incarnation's spans are exactly the ones that
reconcile with the final :class:`TimeStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dsm.messages import (
    BarrierArrive,
    BarrierRelease,
    DiffMsg,
    GrantInfo,
    LockAcquireReq,
    LockForward,
    LockGrant,
    PageFetchReply,
    PageFetchReq,
)
from repro.sim.node import TimeBucket

__all__ = ["Span", "CausalEdge", "SpanTracer", "WAIT_KINDS", "OP_KINDS"]

#: wait-span kinds (retroactive spans mirroring the TimeStats buckets)
WAIT_KINDS = ("page_wait", "lock_wait", "barrier_wait")

#: op/probe span kinds
OP_KINDS = (
    "app",
    "compute",
    "fetch",
    "home_wait",
    "acquire",
    "barrier",
    "flush",
    "ckpt",
    "ckpt_write",
    "recovery",
    "rphase",
    "repl",
)

#: which op-span kinds enclose the wait spans of each bucket
_WAIT_PARENTS = {
    TimeBucket.PAGE_WAIT: ("fetch", "home_wait"),
    TimeBucket.LOCK_WAIT: ("acquire",),
    TimeBucket.BARRIER_WAIT: ("barrier",),
}

#: message types whose arrival legitimately ends a wait, per parent kind
_WAIT_CAUSES = {
    "fetch": ("PageFetchReply",),
    "home_wait": ("DiffMsg",),
    "acquire": ("LockGrant", "LockForward"),
    "barrier": ("BarrierRelease",),
}


@dataclass
class Span:
    """One operation on one node's timeline."""

    sid: int
    pid: int
    kind: str
    t0: float
    detail: str = ""
    #: machine-readable operand (("page", (r, i)) / ("lock", id) /
    #: ("barrier", episode)); used to match causal edges to waits
    key: Optional[Tuple] = None
    incarnation: int = 0
    t1: float = -1.0
    status: str = "open"  # open | closed | abandoned | dropped
    parent: Optional[int] = None  # sid of the enclosing span (same pid)
    cause_edge: Optional[int] = None  # eid of the edge that ended a wait
    step0: int = -1
    step1: int = -1

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0) if self.t1 >= 0.0 else 0.0

    def overlaps(self, a: float, b: float) -> bool:
        return self.t1 > a and self.t0 < b


@dataclass
class CausalEdge:
    """One message: a happens-before edge between two node timelines."""

    eid: int
    src: int
    dst: int
    t_send: float
    msg_type: str
    key: Tuple
    src_span: Optional[int] = None  # sid of the span open at send
    dst_span: Optional[int] = None  # sid of the span open at receive
    t_recv: float = -1.0
    status: str = "inflight"  # inflight | delivered | dropped


def _page_op(page: Any) -> Tuple[str, Tuple]:
    return f"page {tuple(page)}", ("page", tuple(page))


#: op kind -> arg -> (span detail, span key) at the op's begin
_OP_DETAIL: Dict[str, Callable[[Any], Tuple[str, Optional[Tuple]]]] = {
    "app": lambda incarnation: (f"incarnation {incarnation}", None),
    "compute": lambda seconds: ("", None),
    "fetch": _page_op,
    "home_wait": _page_op,
    "acquire": lambda lock_id: (f"L{lock_id}", ("lock", lock_id)),
    "barrier": lambda episode: (f"ep{episode}", ("barrier", episode)),
    "flush": lambda dirty: (f"{dirty} dirty", None),
    "ckpt": lambda arg: ("", None),
}


def _edge_key(msg: Any) -> Tuple:
    if isinstance(msg, (PageFetchReq, PageFetchReply, DiffMsg)):
        return ("page", tuple(msg.page))
    if isinstance(msg, (LockAcquireReq, LockForward, LockGrant, GrantInfo)):
        return ("lock", msg.lock_id)
    if isinstance(msg, (BarrierArrive, BarrierRelease)):
        return ("barrier", msg.episode)
    return ("msg", type(msg).__name__)


class SpanTracer:
    """Records a span DAG with causal edges for one cluster run.

    Attach before ``cluster.run``; read ``spans`` / ``edges`` after.
    Observation is strictly read-only (see module docstring).
    """

    def __init__(
        self,
        cluster: Any,
        max_spans: int = 2_000_000,
        max_edges: int = 2_000_000,
    ) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.max_spans = max_spans
        self.max_edges = max_edges
        self.spans: List[Span] = []
        self.edges: List[CausalEdge] = []
        #: (pid, time) per observed fail-stop, in order — the critical
        #: path uses these to attribute detection windows (crash ->
        #: recovery begin) on the victim's timeline
        self.crash_points: List[Tuple[int, float]] = []
        self.dropped_spans = 0
        self.dropped_edges = 0
        #: open spans per pid, in open order (innermost last). A plain
        #: list, not a stack: probe spans (recovery) legally close out
        #: of LIFO order.
        self._open: Dict[int, List[Span]] = {}
        #: in-flight edges keyed by id(msg); FIFO per object identity
        #: (an object re-sent while still in flight appends)
        self._inflight: Dict[int, List[CausalEdge]] = {}
        #: delivered edges per destination pid, in arrival order
        self._delivered: Dict[int, List[CausalEdge]] = {}
        #: op spans per pid in begin order; a pid's ops nest strictly
        #: (one coroutine at a time), so an op's end closes the last one
        self._ops: Dict[int, List[Span]] = {}
        cluster.hooks.subscribe(
            send=self._on_send, deliver=self._on_deliver, op=self._on_op,
            wait=self._on_wait, probe=self._on_probe,
        )

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _open_span(
        self,
        pid: int,
        kind: str,
        detail: str = "",
        key: Optional[Tuple] = None,
    ) -> Span:
        now, step = self.engine.mark()
        open_list = self._open.setdefault(pid, [])
        parent = open_list[-1].sid if open_list else None
        span = Span(
            sid=len(self.spans),
            pid=pid,
            kind=kind,
            t0=now,
            detail=detail,
            key=key,
            incarnation=self.cluster.hosts[pid].crashed_count,
            parent=parent,
            step0=step,
        )
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            span.status = "dropped"
            return span
        self.spans.append(span)
        open_list.append(span)
        return span

    def _close_span(self, span: Span, status: str = "closed") -> None:
        if span.status != "open":
            return  # already abandoned by a crash, or dropped at the cap
        span.t1, span.step1 = self.engine.mark()
        span.status = status
        open_list = self._open.get(span.pid)
        if open_list is not None:
            for i in range(len(open_list) - 1, -1, -1):
                if open_list[i] is span:
                    del open_list[i]
                    break

    def _innermost(self, pid: int, kinds: Optional[Tuple[str, ...]] = None):
        open_list = self._open.get(pid)
        if not open_list:
            return None
        if kinds is None:
            return open_list[-1]
        for span in reversed(open_list):
            if span.kind in kinds:
                return span
        return None

    def _abandon_all(self, pid: int) -> None:
        now, step = self.engine.mark()
        for span in self._open.get(pid, ()):
            span.t1 = now
            span.step1 = step
            span.status = "abandoned"
        self._open[pid] = []

    # ------------------------------------------------------------------
    # wait spans (retroactive, exact by construction)
    # ------------------------------------------------------------------
    def _on_wait(self, proc: Any, kind: str, bucket: TimeBucket,
                 seconds: float) -> None:
        parent_kinds = _WAIT_PARENTS.get(bucket)
        if parent_kinds is None:
            return
        pid = proc.pid
        now = self.engine.now
        t0 = now - seconds
        parent = self._innermost(pid, parent_kinds)
        cause = None
        if parent is not None and parent.key is not None:
            cause = self._find_cause(pid, parent.kind, parent.key, t0)
        span = Span(
            sid=len(self.spans),
            pid=pid,
            kind=bucket.value,
            t0=t0,
            detail=parent.detail if parent is not None else "",
            key=parent.key if parent is not None else None,
            incarnation=self.cluster.hosts[pid].crashed_count,
            t1=now,
            status="closed",
            parent=parent.sid if parent is not None else None,
            cause_edge=cause.eid if cause is not None else None,
            step0=self.engine.steps,
            step1=self.engine.steps,
        )
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append(span)

    def _find_cause(
        self, pid: int, parent_kind: str, key: Tuple, t0: float
    ) -> Optional[CausalEdge]:
        """The most recent delivery that can have ended this wait.

        Scans the pid's arrival history backwards, bounded by the wait's
        start; returns None for locally satisfied waits (self-grants,
        manager-local barrier completion — the barrier case falls back
        to the last ``BarrierArrive``, i.e. the straggler).
        """
        arrivals = self._delivered.get(pid)
        if not arrivals:
            return None
        wanted = _WAIT_CAUSES[parent_kind]
        fallback = None
        for edge in reversed(arrivals):
            if edge.t_recv < t0 - 1e-12:
                break
            if edge.key != key:
                continue
            if edge.msg_type in wanted:
                return edge
            if (
                parent_kind == "barrier"
                and edge.msg_type == "BarrierArrive"
                and fallback is None
            ):
                fallback = edge
        return fallback

    # ------------------------------------------------------------------
    # bus subscribers
    # ------------------------------------------------------------------
    def _on_send(self, src: int, dst: int, msg: Any) -> None:
        """A message leaves: open its causal edge (side table keyed by
        ``id(msg)``; the payload is never touched)."""
        if len(self.edges) >= self.max_edges:
            self.dropped_edges += 1
            return
        open_span = self._innermost(src)
        edge = CausalEdge(
            eid=len(self.edges),
            src=src,
            dst=dst,
            t_send=self.engine.now,
            msg_type=type(msg).__name__,
            key=_edge_key(msg),
            src_span=open_span.sid if open_span is not None else None,
        )
        self.edges.append(edge)
        self._inflight.setdefault(id(msg), []).append(edge)

    def _on_deliver(self, src: int, dst: int, msg: Any, dropped: bool) -> None:
        """A message arrives (or is flushed with a rolled-back epoch, the
        coordinated baseline's global rollback): close its edge."""
        pending = self._inflight.get(id(msg))
        if not pending:
            return
        edge = pending.pop(0)
        if not pending:
            del self._inflight[id(msg)]
        if dropped:
            edge.status = "dropped"
            return
        edge.t_recv = self.engine.now
        edge.status = "delivered"
        open_span = self._innermost(dst)
        edge.dst_span = open_span.sid if open_span is not None else None
        self._delivered.setdefault(dst, []).append(edge)

    def _on_op(self, proc: Any, kind: str, phase: str, arg: Any) -> None:
        """Op spans: every protocol incarnation emits on the same bus,
        so spans survive crash/recovery with no re-attachment."""
        if kind not in _OP_DETAIL:
            return  # release: no span of its own
        ops = self._ops.setdefault(proc.pid, [])
        if phase == "begin":
            detail, key = _OP_DETAIL[kind](arg)
            ops.append(self._open_span(proc.pid, kind, detail, key))
            return
        span = ops.pop()
        if kind == "ckpt" and phase == "end":
            span.detail = f"#{proc.ft.stats.checkpoints_taken}"
        self._close_span(span)

    def _on_probe(self, pid: int, kind: str, detail: str, data: Any) -> None:
        if kind == "failure":
            # emitted by cluster.crash after its guard, before the kill:
            # everything open on the victim dies with the incarnation
            self.crash_points.append((pid, self.engine.now))
            self._abandon_all(pid)
        elif kind == "ckpt_write":
            if detail.startswith("begin"):
                self._open_span(pid, "ckpt_write", detail)
            else:
                span = self._innermost(pid, ("ckpt_write",))
                if span is not None:
                    self._close_span(span)
        elif kind == "recovery":
            if detail.startswith("begin"):
                self._open_span(pid, "recovery", detail)
            elif detail == "live":
                span = self._innermost(pid, ("recovery",))
                if span is not None:
                    self._close_span(span)
            else:
                # annotation (discarded_torn, restart_ckpt, ...)
                span = self._innermost(pid, ("recovery",))
                if span is not None:
                    span.detail += f"; {detail}"
        elif kind == "rphase":
            # recovery-phase anatomy (DESIGN.md §12): restore/handshake/
            # replay child spans nested under the open recovery span
            # (detection elapses while the node is down, so it has no
            # span of its own — the critical path attributes it from
            # the crash point instead)
            if detail.endswith("begin"):
                self._open_span(pid, "rphase", detail.split()[0])
            else:
                span = self._innermost(pid, ("rphase",))
                if span is not None:
                    self._close_span(span)
        elif kind == "repl":
            # replication tier: begin/commit bracket one checkpoint's
            # buddy transfer (overlapping the ckpt_write span); a fetch
            # is a zero-duration marker on the recovery critical path —
            # the recovering node pulling a lost peer's FT state from
            # its buddy — and annotates the enclosing recovery span
            if detail.startswith("begin"):
                self._open_span(pid, "repl", detail)
            elif detail.startswith("commit"):
                span = self._innermost(pid, ("repl",))
                if span is not None:
                    self._close_span(span)
            elif detail.startswith("fetch"):
                span = self._open_span(pid, "repl", detail)
                self._close_span(span)
                rec = self._innermost(pid, ("recovery",))
                if rec is not None:
                    rec.detail += f"; {detail}"

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def spans_by_kind(self, kind: str, pid: Optional[int] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.kind == kind and (pid is None or s.pid == pid)
        ]

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.status == "open"]

    def abandoned_spans(self, pid: Optional[int] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.status == "abandoned" and (pid is None or s.pid == pid)
        ]

    def delivered_edges(self) -> List[CausalEdge]:
        return [e for e in self.edges if e.status == "delivered"]

    def validate(self) -> List[str]:
        """Structural DAG checks; empty list = well-formed.

        Errors: unclosed spans after a completed run (every node is live
        or finished by then), time-reversed spans/edges, dangling parent
        or edge references, dropped edges without a rollback epoch, and
        hitting the span/edge caps (the DAG would be incomplete).
        """
        errors: List[str] = []
        sids = {s.sid for s in self.spans}
        for s in self.spans:
            if s.status == "open":
                errors.append(
                    f"unclosed span on live node: sid={s.sid} p{s.pid} "
                    f"{s.kind} opened at {s.t0:.6g}"
                )
                continue
            if s.t1 + 1e-12 < s.t0:
                errors.append(
                    f"span ends before it starts: sid={s.sid} p{s.pid} "
                    f"{s.kind} [{s.t0:.6g}, {s.t1:.6g}]"
                )
            if s.parent is not None and s.parent not in sids:
                errors.append(
                    f"dangling parent: sid={s.sid} -> {s.parent}"
                )
            if s.cause_edge is not None and not (
                0 <= s.cause_edge < len(self.edges)
            ):
                errors.append(
                    f"dangling cause edge: sid={s.sid} -> eid={s.cause_edge}"
                )
        for e in self.edges:
            if e.src_span is not None and e.src_span not in sids:
                errors.append(
                    f"dangling edge source span: eid={e.eid} -> {e.src_span}"
                )
            if e.status == "delivered" and e.t_recv + 1e-12 < e.t_send:
                errors.append(
                    f"edge received before sent: eid={e.eid} "
                    f"{e.msg_type} p{e.src}->p{e.dst}"
                )
            if e.status == "dropped" and self.cluster.network.epoch == 0:
                errors.append(
                    f"edge dropped without a rollback epoch: eid={e.eid} "
                    f"{e.msg_type} p{e.src}->p{e.dst}"
                )
        if self.dropped_spans or self.dropped_edges:
            errors.append(
                f"capacity exceeded: {self.dropped_spans} spans / "
                f"{self.dropped_edges} edges dropped — DAG incomplete "
                "(raise max_spans/max_edges)"
            )
        return errors
