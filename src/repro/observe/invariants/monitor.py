"""Online invariant monitor: the paper's theorems as runtime assertions.

An :class:`InvariantMonitor` subscribes to a
:class:`~repro.cluster.DsmCluster`'s instrumentation bus (the ``send``,
``deliver``, ``probe`` and ``event`` hook points, :mod:`repro.sim.hooks`)
and continuously checks five invariant classes derived from the paper
(Sultan et al., SC 2000); see DESIGN.md §9 for the catalog mapping each
check to its theorem/section. Like the observer and the span tracer it
is strictly read-only: it performs no scheduling, no sends and no state
mutation — a monitored run is bit-identical to an unmonitored one
(golden-determinism test).

The five invariant classes:

``cgc``
    Rule 3.1 discipline. Immediately after every CGC pass on node *i*, at
    most one retained copy per page has ``version <= Tmin`` (the older
    ones are garbage the pass must have dropped); the newest retained
    copy belongs to the latest committed checkpoint (never collected);
    and the retained window is monotone — the per-page oldest-retained
    seqno never decreases across trims. (The paper's "at most two
    checkpoints" claim is knowledge-relative — see DESIGN.md §9 for why
    the literal count can legitimately exceed 2 under stale ``T̂ckp``.)

``llt``
    Rules 1/2/3.2 exactness at every LLT pass: no retained log entry sits
    at or below its derived trim bound (so log size never exceeds the
    trim frontier, and entries below the globally stable frontier are
    trimmed as soon as the bounds converge to it); the incremental
    byte counters agree with the entries; and the trimming *knowledge*
    never runs ahead of reality (``T̂ckp_j <=`` j's actual latest
    checkpoint stamp, learned ``p0.v`` ≤ the home's actual maximal
    starting copy) — stale bounds trim less, bounds ahead of reality
    would trim entries recovery still needs.

``vclock``
    Per-node vector-time monotonicity at every observable point (the
    baseline resets on a fail-stop: replay legitimately rewinds), and
    happened-before consistency of every vector-clock stamp on every
    sent and delivered message: no stamp component may exceed the
    highest value its owner has ever been observed to reach.

``fifo``
    Per-channel FIFO: deliveries on each (src, dst) channel occur in
    exactly the order of the sends (payload identity, tracked through
    crashes — the network outlives process incarnations).

``recoverability``
    Structural recovery precondition, from metadata (not by replay):
    every page's retained-copy sequence is well formed and non-empty
    with a starting copy usable by every live peer (``p0.version <=``
    the peer's vector time — Rule 3's guarantee); the restart checkpoint
    is a committed stable-storage key and no torn keys exist outside a
    checkpoint write window; the rel/acq log replication of §4.2.1
    holds pairwise — every acquire a live node logged is present in its
    grantor's rel_log with the *actual* acquire timestamp (exactly at
    quiescence, prediction <= actual while an AcqAck is in flight), so a
    crash of either side can be replayed from the surviving copy; and,
    when the buddy-replication tier is on, the replicated-copy chains
    are sane — CGC trims never outran the buddy's acks, buddies never
    hold checkpoints the protected node did not commit, and no torn
    replica record survives quiescence.

On the first violation — and on every crash — the attached
:class:`~repro.observe.invariants.recorder.FlightRecorder` state is
snapshotted into a post-mortem flight record (JSON + ASCII, see
``recorder.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.dsm.vclock import VClock
from repro.observe.invariants.recorder import FlightRecorder
from repro.sim.storage import next_gen

__all__ = ["INVARIANTS", "Violation", "InvariantMonitor"]

#: the five checked invariant classes
INVARIANTS = ("cgc", "llt", "vclock", "fifo", "recoverability")

#: message attributes carrying vector-clock stamps (happened-before check)
_STAMP_ATTRS = ("vt", "acq_vt", "rel_vt", "diff_vt", "global_vt")

#: "not computed yet" marker (None is a meaningful vt floor)
_UNSET = object()

#: bound on remembered passing stamps (the memo is cleared when full)
_STAMP_MEMO = 4096


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    invariant: str  # one of INVARIANTS
    pid: int
    time: float
    step: int
    detail: str

    def render(self) -> str:
        return (
            f"{self.time * 1e3:10.4f} ms #{self.step:<7d} "
            f"[{self.invariant}] p{self.pid}: {self.detail}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "pid": self.pid,
            "time": self.time,
            "step": self.step,
            "detail": self.detail,
        }


class _ScanMemo:
    """What the incremental structural scan knows passed, and on which
    inputs: mutation generations (0: not known to pass) plus the scalars
    a check compares. Valid for one live set; see
    :meth:`InvariantMonitor._scan_structural`."""

    def __init__(self, live: List[bool]) -> None:
        n = len(live)
        #: live-and-not-recovering flag per pid the memo is valid for
        self.live = live
        #: pid -> max(ckpt_mgr.gen, store.gen) its host checks passed on
        self.hosts = [0] * n
        #: pid -> acquirer / grantor stamp seen by the last scan
        self.acq = [0] * n
        self.rel = [0] * n
        #: (acquirer, grantor) pairs that failed the last scan
        self.bad_pairs: Set[Tuple[int, int]] = set()
        #: (acquirer, grantor) -> (max of the two bucket gens, restart
        #: cut) the pair passed on
        self.pairs: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: pid -> (ckpt_mgr.gen, acked seqno mark) its ack check passed on
        self.acked: Dict[int, Tuple[int, int]] = {}
        #: (holder, protected) -> (replica store gen, protected's latest
        #: committed seqno) the held-chain check passed on
        self.held: Dict[Tuple[int, int], Tuple[int, Optional[int]]] = {}
        #: next_gen.last at the last scan, and whether every host and pair
        #: check passed then (if so and nothing was mutated since, the
        #: next scan skips both phases)
        self.gen = 0
        self.clean = False


class InvariantMonitor:
    """Continuously checks the paper-bound invariants of one cluster.

    The structural recoverability scan runs at every message delivery,
    incrementally: a sub-check is skipped while the mutation generations
    of everything it reads are those it last passed with (see
    :meth:`_scan_structural`). A full scan runs when a recovered node
    goes live and at :meth:`finish`. Violations are collected,
    deduplicated on (invariant, pid, detail) and capped; the first one
    snapshots a flight record (:attr:`violation_dump`), as does every
    crash (:attr:`crash_dumps`, last four kept).
    """

    def __init__(
        self,
        cluster: Any,
        ring_size: int = 256,
        max_violations: int = 64,
    ) -> None:
        self.cluster = cluster
        self.max_violations = max_violations
        self.recorder = FlightRecorder(ring_size)
        self.violations: List[Violation] = []
        self.dropped_violations = 0
        self.checks: Dict[str, int] = {k: 0 for k in INVARIANTS}
        self.violation_dump: Optional[Dict[str, Any]] = None
        self.crash_dumps: List[Dict[str, Any]] = []
        n = cluster.config.num_procs
        #: per-channel queue of sent-but-undelivered payload identities
        self._chan: Dict[Tuple[int, int], deque] = {}
        #: highest own vt component ever observed per process; never
        #: reset (a replay cannot legitimately overtake the pre-crash
        #: observation before re-executing the same intervals)
        self._hwm: List[int] = [0] * n
        #: the same marks as an array, for the vectorized stamp screen
        self._hwm_arr = np.zeros(n, dtype=np.int64)
        #: id -> stamp that passed the happened-before check (holding the
        #: stamp keeps its id unique); messages and piggybacks carry the
        #: same clock objects over and over
        self._stamps_passed: Dict[int, VClock] = {}
        #: last observed vt per process (monotonicity baseline; reset to
        #: None on fail-stop — replay rewinds legitimately)
        self._last_vt: List[Optional[VClock]] = [None] * n
        #: per-(pid, page) oldest retained checkpoint seqno (CGC
        #: monotonicity floor)
        self._ckpt_floor: Dict[Tuple[int, Any], int] = {}
        #: per-pid high-water mark of buddy-acked replica seqnos (the
        #: trim-never-ahead-of-ack bound; survives re-buddy resets)
        self._acked_hwm: Dict[int, int] = {}
        #: pids currently inside a ckpt_write begin/end window (torn
        #: stable-store keys are legal only there or while down)
        self._ckpt_writing: Set[int] = set()
        self._seen: Set[Tuple[str, int, str]] = set()
        #: what the incremental structural scan knows passed; replaced
        #: by an empty one to drop it (see _scan_structural)
        self._memo = _ScanMemo([])
        #: page -> home pid, built lazily (regions exist only after setup)
        self._homes: Optional[Dict[Any, int]] = None
        #: home pid -> its pages (built with _homes)
        self._pages_by_home: Dict[int, List[Any]] = {}
        cluster.hooks.subscribe(
            send=self._on_send, deliver=self._on_deliver,
            probe=self._on_probe, event=self.recorder.on_engine_event,
        )

    # ==================================================================
    # event handlers
    # ==================================================================
    def _on_send(self, src: int, dst: int, payload: Any) -> None:
        self._chan.setdefault((src, dst), deque()).append(payload)
        self._refresh_vclocks((src, dst))
        self._check_stamps(src, payload)
        eng = self.cluster.engine
        self.recorder.on_message("send", eng.now, eng.steps, src, dst, payload)

    def _on_deliver(self, src: int, dst: int, payload: Any,
                    dropped: bool) -> None:
        q = self._chan.get((src, dst))
        if not q:
            self._violate(
                "fifo", dst,
                f"delivery of {type(payload).__name__} from p{src} that "
                "was never sent on this channel",
            )
        elif q[0] is payload:
            q.popleft()
        else:
            self._violate(
                "fifo", dst,
                f"channel p{src}->p{dst} reordered: "
                f"{type(payload).__name__} delivered ahead of "
                f"{len(q)} earlier unsent-or-undelivered message(s)",
            )
            try:  # resync so one reorder doesn't cascade
                q.remove(payload)
            except ValueError:
                pass
        self.checks["fifo"] += 1
        self._refresh_vclocks((src, dst))
        self._check_stamps(src, payload)
        self._scan_structural(memo=self._memo)
        eng = self.cluster.engine
        self.recorder.on_message(
            "deliver", eng.now, eng.steps, src, dst, payload
        )

    def _on_probe(self, pid: int, kind: str, detail: str, data: Any) -> None:
        eng = self.cluster.engine
        self.recorder.on_probe(eng.now, eng.steps, pid, kind, detail)
        if kind == "llt":
            self._check_llt(pid)
        elif kind == "cgc":
            self._check_cgc(pid)
        elif kind == "ckpt_write":
            if detail.startswith("begin"):
                self._ckpt_writing.add(pid)
            else:
                # the commit marker lands later in this same engine
                # event (probe fires before commit_staged), so do NOT
                # scan here — the next delivery-driven scan runs after
                # the commit and must find no torn keys
                self._ckpt_writing.discard(pid)
        elif kind == "failure":
            # emitted before the kill: snapshot the victim's last state
            self._memo = _ScanMemo([])
            self._ckpt_writing.discard(pid)
            self._last_vt[pid] = None
            self.crash_dumps.append(
                self.flight_record(f"crash of p{pid} (fail-stop)")
            )
            del self.crash_dumps[:-4]
        elif kind == "recovery":
            self._memo = _ScanMemo([])
            if detail == "live":
                self._last_vt[pid] = None
                self._scan_structural()

    # ==================================================================
    # violation bookkeeping
    # ==================================================================
    def _violate(self, invariant: str, pid: int, detail: str) -> None:
        key = (invariant, pid, detail)
        if key in self._seen:
            return
        self._seen.add(key)
        if len(self.violations) >= self.max_violations:
            self.dropped_violations += 1
            return
        eng = self.cluster.engine
        v = Violation(invariant, pid, eng.now, eng.steps, detail)
        self.violations.append(v)
        if self.violation_dump is None:
            self.violation_dump = self.flight_record(
                f"invariant violation: [{invariant}] p{pid}: {detail}"
            )

    # ==================================================================
    # invariant 3 — vector clocks
    # ==================================================================
    def _refresh_vclocks(self, pids: Optional[Tuple[int, int]] = None) -> None:
        hwm = self._hwm
        last = self._last_vt
        hosts = self.cluster.hosts
        # Wide clusters refresh only the endpoints of the triggering
        # message: a vt component can reach a stamp only through a send
        # by its owner, and that send refreshes the owner first, so the
        # high-water marks stay exact. (Regression detection then checks
        # each host at its own next send/delivery instead of at every
        # message — the full sweep still runs in every structural scan.)
        if pids is not None and len(hosts) >= VClock.ARRAY_WIDTH:
            hosts = [hosts[p] for p in dict.fromkeys(pids)]
        for host in hosts:
            proto = host.proto
            if proto is None:
                continue
            vt = proto.vt
            pid = host.pid
            prev = last[pid]
            if prev is vt:
                continue  # unchanged since its last refresh
            own = vt.v[pid]
            if own > hwm[pid]:
                hwm[pid] = own
                self._hwm_arr[pid] = own
            if prev is not None and not prev.leq(vt):
                self._memo = _ScanMemo([])  # Rule 3 passes assumed growth
                self._violate(
                    "vclock", pid,
                    f"vector time regressed: {tuple(prev)} -> {tuple(vt)}",
                )
            last[pid] = vt
        self.checks["vclock"] += 1

    def _check_stamps(self, origin: int, msg: Any) -> None:
        for attr in _STAMP_ATTRS:
            t = getattr(msg, attr, None)
            if type(t) is VClock:
                self._check_stamp(origin, type(msg).__name__, attr, t)
        records = getattr(msg, "records", None)
        if records:
            for rec in records:
                for wn in rec:
                    t = getattr(wn, "vt", None)
                    if type(t) is VClock:
                        self._check_stamp(origin, "WriteNotice", "vt", t)
        pb = getattr(msg, "piggyback", None)
        if pb is not None:
            for _proc, tckp, _bar in pb.tckps:
                self._check_stamp(origin, "Piggyback", "tckp", tckp)

    def _check_stamp(self, origin: int, mname: str, attr: str,
                     t: VClock) -> None:
        passed = self._stamps_passed
        if passed.get(id(t)) is t:
            return  # passed before, and the marks never decrease
        hwm = self._hwm
        if len(t) >= VClock.ARRAY_WIDTH and not bool(
            (t.as_array() > self._hwm_arr).any()
        ):
            # vectorized screen; the loop below only names the culprit
            if len(passed) >= _STAMP_MEMO:
                passed.clear()
            passed[id(t)] = t
            return
        for j, c in enumerate(t.v):
            if c > hwm[j]:
                self._violate(
                    "vclock", origin,
                    f"{mname}.{attr} stamps component {j} at {c}, beyond "
                    f"p{j}'s highest observed vector time {hwm[j]} "
                    "(happened-before violated: the stamp names an "
                    "interval its owner never started)",
                )
                return
        if len(passed) >= _STAMP_MEMO:
            passed.clear()
        passed[id(t)] = t

    # ==================================================================
    # invariant 1 — CGC (Rule 3.1), checked at every "cgc" probe
    # ==================================================================
    def _check_cgc(self, pid: int) -> None:
        host = self.cluster.hosts[pid]
        ft, mgr = host.ft, host.ckpt_mgr
        if ft is None or mgr is None:
            return
        tmin = ft.trim.tmin()
        latest = mgr.latest
        # with buddy replication, a copy is collectible only when it is
        # ALSO buddy-held: CGC gates on the replica-ack seqno ceiling, so
        # copies <= Tmin above the ceiling legitimately survive the pass
        ceil = ft.cgc_seqno_ceiling()
        for page, copies in mgr.page_copies.items():
            # versions are non-decreasing, so copies <= Tmin form a
            # prefix; after a correct pass only its last element remains
            # (of those the ack ceiling lets the pass consider at all)
            n_le = sum(
                1 for c in copies
                if c.version.leq(tmin)
                and (ceil is None or c.ckpt_seqno <= ceil)
            )
            if n_le > 1:
                self._violate(
                    "cgc", pid,
                    f"page {tuple(page)}: {n_le} retained copies <= Tmin "
                    f"{tuple(tmin)} (and buddy-acked) after CGC — only "
                    "the maximal starting copy may remain at or below "
                    "Tmin (Rule 3.1)",
                )
            if latest is not None and copies and (
                copies[-1].ckpt_seqno != latest.seqno
            ):
                self._violate(
                    "cgc", pid,
                    f"page {tuple(page)}: newest retained copy is from "
                    f"checkpoint {copies[-1].ckpt_seqno} but the latest "
                    f"committed checkpoint is {latest.seqno} — the "
                    "restart checkpoint's copies must never be collected",
                )
            key = (pid, page)
            floor = copies[0].ckpt_seqno if copies else -1
            prev = self._ckpt_floor.get(key, -1)
            if floor < prev:
                self._violate(
                    "cgc", pid,
                    f"page {tuple(page)}: oldest retained checkpoint "
                    f"regressed from {prev} to {floor} — the retained "
                    "window must evolve only by prefix-drop or append",
                )
            if floor > prev:
                self._ckpt_floor[key] = floor
        self.checks["cgc"] += 1

    # ==================================================================
    # invariant 2 — LLT (Rules 1/2/3.2), checked at every "llt" probe
    # ==================================================================
    def _check_llt(self, pid: int) -> None:
        host = self.cluster.hosts[pid]
        ft = host.ft
        if ft is None:
            return
        trim, logs = ft.trim, ft.logs
        # Rule 3.2 exactness: no retained diff entry at/below the bound
        for page, entries in logs.diff.per_page.items():
            bound = trim.diff_bound(page)
            if bound and any(e.t[pid] <= bound for e in entries):
                self._violate(
                    "llt", pid,
                    f"diff log for page {tuple(page)} retains entries with "
                    f"T[{pid}] <= p0.v bound {bound} after LLT (Rule 3.2 "
                    "trim missed — log exceeds its trim frontier)",
                )
        # counter/entry agreement (the "log size" the bound governs)
        actual = sum(
            e.size_bytes for es in logs.diff.per_page.values() for e in es
        )
        if actual != logs.diff.volatile_bytes:
            self._violate(
                "llt", pid,
                f"diff-log byte accounting drifted: counter reports "
                f"{logs.diff.volatile_bytes}, entries sum to {actual}",
            )
        # Rule 2: rel entries per acquirer, acq entries vs own cut
        for j, entries in sorted(logs.rel.entries.items()):
            if j == pid:
                continue
            bound = trim.rel_bound(j)
            if bound and any(e.acq_t[j] <= bound for e in entries):
                self._violate(
                    "llt", pid,
                    f"rel_log[{j}] retains entries with acq_t[{j}] <= "
                    f"T̂ckp_{j}[{j}]={bound} after LLT (Rule 2 trim missed)",
                )
        own_bound = trim.acq_bound()
        if own_bound and any(
            e.acq_t[pid] <= own_bound
            for es in logs.acq.entries.values() for e in es
        ):
            self._violate(
                "llt", pid,
                f"acq_log retains entries with acq_t[{pid}] <= own "
                f"Tckp[{pid}]={own_bound} after LLT (Rule 2 trim missed)",
            )
        # barrier-log analogue
        bar_from = trim.bar_keep_from()
        if bar_from and any(b.episode < bar_from for b in logs.bar):
            self._violate(
                "llt", pid,
                f"barrier log retains episodes below {bar_from} after LLT",
            )
        # Rule 1: own write notices
        wn_from = trim.wn_keep_from()
        proto = host.proto
        if proto is not None and wn_from > 1:
            stale = [
                wn for rec in proto.notices.own_after(pid, 0) for wn in rec
                if wn.interval < wn_from
            ]
            if stale:
                self._violate(
                    "llt", pid,
                    f"{len(stale)} own write notices from intervals below "
                    f"{wn_from} retained after LLT (Rule 1 trim missed)",
                )
        # frontier validity: trimming knowledge must lag reality — a
        # frontier ahead of reality would have trimmed entries that
        # recovery still needs
        hosts = self.cluster.hosts
        for j in range(ft.n):
            if j == pid:
                continue
            peer_mgr = hosts[j].ckpt_mgr
            if peer_mgr is None:
                continue
            known = trim.tckp[j]
            if peer_mgr.latest is None:
                if any(known.v):
                    self._violate(
                        "llt", pid,
                        f"knows checkpoint stamp {tuple(known)} for p{j}, "
                        "which has never committed a checkpoint",
                    )
            elif not known.leq(peer_mgr.latest.tckp):
                self._violate(
                    "llt", pid,
                    f"T̂ckp_{j} knowledge {tuple(known)} exceeds p{j}'s "
                    f"actual latest checkpoint "
                    f"{tuple(peer_mgr.latest.tckp)} — trim frontier ran "
                    "ahead of reality",
                )
        for page, v in trim.p0v.items():
            home_mgr = hosts[self._home_of(page)].ckpt_mgr
            if home_mgr is None:
                continue
            copies = home_mgr.page_copies.get(page)
            if copies and v > copies[0].version[pid]:
                self._violate(
                    "llt", pid,
                    f"learned p0.v[{pid}]={v} for page {tuple(page)} "
                    f"exceeds the home's actual maximal-starting-copy "
                    f"component {copies[0].version[pid]}",
                )
        self.checks["llt"] += 1

    def _home_of(self, page: Any) -> int:
        if self._homes is None:
            self._pages_homed_at(-1)  # builds both lazy maps
        return self._homes[page]

    def _pages_homed_at(self, pid: int) -> List[Any]:
        if self._homes is None:  # build the maps lazily
            self._homes = {
                p: self.cluster.regions.home_of(p)
                for p in self.cluster.regions.all_page_ids()
            }
            self._pages_by_home = {}
            for p, h in self._homes.items():
                self._pages_by_home.setdefault(h, []).append(p)
        return self._pages_by_home.get(pid, [])

    # ==================================================================
    # invariant 5 — structural recoverability
    # ==================================================================
    def _scan_structural(
        self, final: bool = False, memo: Optional["_ScanMemo"] = None,
    ) -> None:
        """One recoverability scan over every host.

        Without ``memo`` this is the full scan (a recovered node's live
        switch, :meth:`finish`). With it (the per-delivery scan) a
        sub-check is skipped when ``memo`` shows it passed on the inputs
        it would read now. Inputs are compared by mutation generation
        (``gen``, DESIGN.md §9), so a skipped check is one that passed on
        identical state — and would pass again. The one input without a
        generation is the live peers' vector times in the Rule 3 check: a
        pass there survives their growth, and the memo is dropped when
        one regresses, when the live set changes, and on every failure or
        recovery probe. So the incremental scan emits exactly the full
        scan's violations, in the same order. ``final`` scans are full.
        """
        hosts = self.cluster.hosts
        if len(hosts) >= VClock.ARRAY_WIDTH:
            self._refresh_vclocks()  # full monotonicity sweep (see above)
        if memo is not None:
            live = [h.live and not h.recovering for h in hosts]
            if live != memo.live:
                memo = self._memo = _ScanMemo(live)
        if memo is None or not memo.clean or memo.gen != next_gen.last:
            # both phases always run (``and`` would short-circuit)
            clean = self._scan_hosts(memo)
            clean = self._scan_pairs(final, memo) and clean
            if memo is not None:
                memo.gen, memo.clean = next_gen.last, clean
        # else: nothing was mutated since a scan at which every host and
        # pair check passed
        self._scan_replicas(final, memo)
        self.checks["recoverability"] += 1

    def _scan_hosts(self, memo: Optional["_ScanMemo"]) -> bool:
        """Per-host stable state: retained-copy chains (Rule 3), the
        restart checkpoint, torn keys. Returns True when all passed."""
        hosts = self.cluster.hosts
        wide = len(hosts) >= VClock.ARRAY_WIDTH
        # Wide clusters: one componentwise min over every live vector
        # time screens the per-(page, peer) Rule 3 loop (computed on
        # first use: the incremental scan rarely needs it)
        vt_floor: Any = _UNSET
        clean = True
        for host in hosts:
            mgr = host.ckpt_mgr
            if mgr is None:
                continue
            pid = host.pid
            store = mgr.store
            # generations come from one increasing counter, so the max
            # of two changes exactly when either structure is mutated
            stamp = max(mgr.gen, store.gen)
            if memo is not None and memo.hosts[pid] == stamp:
                continue
            if vt_floor is _UNSET:
                vt_floor = self._live_vt_floor() if wide else None
            ok = self._check_pages(host, vt_floor)
            if mgr.latest is not None:
                key = ("ckpt", mgr.latest.seqno)
                if key not in store or store.is_pending(key):
                    ok = False
                    self._violate(
                        "recoverability", pid,
                        f"restart checkpoint {mgr.latest.seqno} is not a "
                        "committed stable-storage key",
                    )
            # read even outside the check's window: a store without torn
            # keys is what lets the memo skip this check while it holds
            torn = store.pending_keys()
            if torn:
                ok = False
                if (host.live and not host.recovering
                        and pid not in self._ckpt_writing):
                    self._violate(
                        "recoverability", pid,
                        f"stable store holds torn keys {torn} outside any "
                        "checkpoint write window",
                    )
            if memo is not None:
                memo.hosts[pid] = stamp if ok else 0
            clean = clean and ok
        return clean

    def _scan_pairs(self, final: bool, memo: Optional["_ScanMemo"]) -> bool:
        """§4.2.1 replication, pairwise (see :meth:`_check_pair`).
        Returns True when every visited pair passed."""
        hosts = self.cluster.hosts
        bad = set()
        for i, g in self._pairs_to_check(memo):
            host, peer = hosts[i], hosts[g]
            ft = host.ft
            if (g == i or ft is None or not host.live or host.recovering
                    or peer.ft is None or not peer.live or peer.recovering):
                continue
            mine = ft.logs.acq.entries.get(g)
            if not mine:
                continue
            mgr = host.ckpt_mgr
            own_cut = (
                mgr.latest.tckp[i]
                if mgr is not None and mgr.latest is not None else 0
            )
            rel = peer.ft.logs.rel
            pair = (i, g)
            bucket = max(ft.logs.acq.bucket_gen[g], rel.bucket_gen[i])
            stamp = (bucket, own_cut)
            if memo is not None and memo.pairs.get(pair) == stamp:
                continue  # a candidate whose own buckets are unchanged
            if self._check_pair(i, g, mine, rel.entries.get(i, ()), own_cut,
                                final):
                if memo is not None:
                    memo.pairs[pair] = stamp
            else:
                bad.add(pair)
                if memo is not None:
                    memo.pairs.pop(pair, None)
        if memo is not None:
            memo.bad_pairs = bad
        return not bad

    def _pairs_to_check(
        self, memo: Optional["_ScanMemo"]
    ) -> List[Tuple[int, int]]:
        """The (acquirer, grantor) pairs a scan visits, in order.

        The full scan visits all of them. The incremental one visits the
        pairs that failed last time plus those whose inputs changed since
        the last scan: the acquirer's acq_log or checkpoint manager (its
        restart cut), or the grantor's rel_log. Every other pair passed
        on the very same inputs.
        """
        hosts = self.cluster.hosts
        n = len(hosts)
        if memo is None:
            return [(i, g) for i in range(n) for g in range(n)]
        todo = set(memo.bad_pairs)
        regranted = []
        for host in hosts:
            ft = host.ft
            if ft is None:
                continue
            i = host.pid
            acq = ft.logs.acq
            mgr = host.ckpt_mgr
            stamp = max(acq.gen, mgr.gen) if mgr is not None else acq.gen
            if memo.acq[i] != stamp:
                memo.acq[i] = stamp
                todo.update((i, g) for g in acq.entries)
            rel_gen = ft.logs.rel.gen
            if memo.rel[i] != rel_gen:
                memo.rel[i] = rel_gen
                regranted.append(i)
        if regranted:
            for host in hosts:
                if host.ft is not None:
                    grantors = host.ft.logs.acq.entries
                    todo.update(
                        (host.pid, g) for g in regranted if g in grantors
                    )
        return sorted(todo)

    def _live_vt_floor(self) -> Optional[np.ndarray]:
        """Componentwise min of every live vector time (None: none live)."""
        live_vts = [
            h.proto.vt.as_array()
            for h in self.cluster.hosts
            if h.live and not h.recovering and h.proto is not None
        ]
        return np.minimum.reduce(live_vts) if live_vts else None

    def _check_pages(self, host: Any, vt_floor: Optional[np.ndarray]) -> bool:
        """Retained-copy chains of the pages homed at ``host``: non-empty,
        monotone, and with a starting copy every live peer can use
        (Rule 3). Returns True when nothing was violated.

        A copy version below ``vt_floor`` (the min over every live vector
        time) is below every peer's vt, so the O(peers) ``leq`` loop runs
        only when that screen fails, and then emits exactly what the
        plain loop would.
        """
        hosts = self.cluster.hosts
        mgr = host.ckpt_mgr
        pid = host.pid
        ok = True
        # iterate the pages that MUST have a copy sequence here (the
        # ones homed at this node) rather than page_copies' own keys,
        # so a vanished page is a violation, not a silent skip
        for page in self._pages_homed_at(pid):
            copies = mgr.page_copies.get(page)
            if not copies:
                ok = False
                self._violate(
                    "recoverability", pid,
                    f"page {tuple(page)} has no retained checkpoint "
                    "copies — no recovery could obtain a starting copy",
                )
                continue
            for a, b in zip(copies, copies[1:]):
                if not (a.version.leq(b.version)
                        and a.ckpt_seqno < b.ckpt_seqno):
                    ok = False
                    self._violate(
                        "recoverability", pid,
                        f"page {tuple(page)} retained-copy sequence "
                        f"is not monotone at checkpoints "
                        f"{a.ckpt_seqno}/{b.ckpt_seqno}",
                    )
                    break
            # Rule 3 precondition: every live peer's replay ceiling
            # (its current vt) dominates the oldest retained copy, so
            # a usable starting copy exists for any single failure
            p0 = copies[0]
            if vt_floor is not None and bool(
                (p0.version.as_array() <= vt_floor).all()
            ):
                continue
            for peer in hosts:
                if (peer.pid == pid or not peer.live
                        or peer.recovering or peer.proto is None):
                    continue
                if not p0.version.leq(peer.proto.vt):
                    ok = False
                    self._violate(
                        "recoverability", pid,
                        f"oldest retained copy of page {tuple(page)} "
                        f"(version {tuple(p0.version)}) is not <= "
                        f"p{peer.pid}'s vector time "
                        f"{tuple(peer.proto.vt)} — a crash of "
                        f"p{peer.pid} would find no usable starting "
                        "copy (Rule 3 precondition)",
                    )
        return ok

    def _check_pair(self, i: int, g: int, mine: List[Any], rel: List[Any],
                    own_cut: int, final: bool) -> bool:
        """§4.2.1 replication for one (acquirer ``i``, grantor ``g``) pair:
        every acquire ``i`` logged (``mine``) must be present in ``g``'s
        rel_log for ``i`` (``rel``) — a lost entry means a replay of our
        acquires would lose a grant. Returns True when nothing was
        violated.

        Caveats that bound what is checkable from metadata alone:

        * entries at or below ``i``'s own checkpoint cut are dead (a
          restart replays nothing before the cut) and may linger in its
          acq_log until its next LLT pass — skipped;
        * grantors log the acquirer's *actual* acquire timestamp: the
          initial entry carries the grant-time prediction (= actual on
          every failure-free path) and the acquirer's AcqAck replaces it
          with the actual vt when the two diverge (recovery-forced
          resends). Entries are matched by grant identity — lock id plus
          the *grantor's own* vt component, which both sides compute
          identically. A matched pair must agree: exactly once the run
          has quiesced (``final``), and within prediction <= actual while
          an AcqAck may still be in flight. A missing match is flagged
          only when the grantor retains an *older* grant for us: correct
          trimming is a prefix drop in grant order, so old-retained +
          new-missing is a definite loss, while all-later/empty is just
          the grantor's earlier trim.
        """
        theirs: Dict[Tuple[int, int], List[Any]] = {}
        for e in rel:
            theirs.setdefault((e.lock_id, e.acq_t[g]), []).append(e.acq_t)
        oldest_rel = min((e.acq_t[g] for e in rel), default=None)
        for e in mine:
            if e.acq_t[i] <= own_cut:
                continue  # dead: below our own restart cut
            logged = theirs.get((e.lock_id, e.acq_t[g]))
            if logged is not None:
                if final:
                    if not any(t == e.acq_t for t in logged):
                        self._violate(
                            "recoverability", i,
                            f"p{g}'s rel_log[{i}] entry for lock "
                            f"{e.lock_id} does not exactly match "
                            f"the acquirer's actual timestamp "
                            f"{tuple(e.acq_t)} after quiescence — "
                            "the §4.2.1 pair disagrees (AcqAck "
                            "fix-up lost)",
                        )
                        return False
                elif not any(t.leq(e.acq_t) for t in logged):
                    self._violate(
                        "recoverability", i,
                        f"p{g}'s rel_log[{i}] entry for lock "
                        f"{e.lock_id} stamps a timestamp beyond "
                        f"the acquirer's actual {tuple(e.acq_t)} "
                        "— the grantor logged an acquire that "
                        "never happened",
                    )
                    return False
                continue
            if oldest_rel is not None and oldest_rel < e.acq_t[g]:
                self._violate(
                    "recoverability", i,
                    f"acq_log entry (lock {e.lock_id}, acq_t "
                    f"{tuple(e.acq_t)}) granted by p{g} is missing "
                    f"from p{g}'s rel_log[{i}], which still holds "
                    f"an older grant — the §4.2.1 replicated pair "
                    "lost an entry",
                )
                return False
        return True

    def _scan_replicas(self, final: bool,
                       memo: Optional["_ScanMemo"]) -> None:
        """Replication-tier recoverability: trims never outran buddy
        acks, and buddy-held replica chains are sane (``memo`` as for
        :meth:`_scan_structural`).

        The protected side's bound uses a high-water mark of acked
        seqnos rather than the current ``acked_seqno``: re-buddying
        resets the ack counter to "nothing held" while previously-acked
        (and therefore legitimately trimmed) state waits for the full
        re-sync to be acknowledged — the genuine exposure window the
        double-fault sweep's degraded points come from, not a trim bug.
        """
        if not self.cluster.replication:
            return  # no replicators, and no replica store is ever filled
        hosts = self.cluster.hosts
        for host in hosts:
            ft = host.ft
            repl = ft.repl if ft is not None else None
            if repl is None or not host.live or host.recovering:
                continue
            pid = host.pid
            mgr = host.ckpt_mgr
            latest_committed = (
                mgr.next_seqno - 1 if mgr is not None else 0
            )
            if repl.acked_seqno > latest_committed:
                self._violate(
                    "recoverability", pid,
                    f"replica ack seqno {repl.acked_seqno} exceeds the "
                    f"latest committed checkpoint {latest_committed} — "
                    "the buddy acked state that was never replicated",
                )
            hwm = max(
                self._acked_hwm.get(pid, 0), max(0, repl.acked_seqno)
            )
            self._acked_hwm[pid] = hwm
            if mgr is None:
                continue
            stamp = (mgr.gen, hwm)
            if memo is not None and memo.acked.get(pid) == stamp:
                continue
            ok = True
            for page, copies in mgr.page_copies.items():
                if copies and copies[0].ckpt_seqno > hwm:
                    ok = False
                    self._violate(
                        "recoverability", pid,
                        f"page {tuple(page)}: oldest retained copy is "
                        f"from checkpoint {copies[0].ckpt_seqno}, "
                        f"beyond the highest buddy-acked seqno {hwm} "
                        "— CGC trimmed state no replica ever held",
                    )
                    break
            if memo is not None:
                if ok:
                    memo.acked[pid] = stamp
                else:
                    memo.acked.pop(pid, None)
        # the buddy's side of each chain
        for holder in hosts:
            if not holder.live:
                continue
            rstore = holder.replica_store
            for protected in rstore.protected_pids():
                st = rstore.store_for(protected)
                p_host = hosts[protected]
                p_live = p_host.live and not p_host.recovering
                p_latest = (
                    p_host.ckpt_mgr.next_seqno - 1
                    if p_live and p_host.ckpt_mgr is not None else None
                )
                pair = (holder.pid, protected)
                stamp = (st.gen, p_latest)
                if memo is not None and memo.held.get(pair) == stamp:
                    continue
                ok = True
                for key in st.keys():
                    if st.is_pending(key):
                        # torn records are legal mid-transfer and after
                        # a sender crash; only a quiesced run with the
                        # protected node alive must have none left (the
                        # run can end with the final commit still in
                        # flight — a drained network is what makes the
                        # record definitively torn rather than pending)
                        if (final and p_live and p_host.finished
                                and not self.cluster.network.inflight_msgs):
                            ok = False
                            self._violate(
                                "recoverability", holder.pid,
                                f"replica record {key} of p{protected} "
                                "is still torn (begin without commit) "
                                "after the run quiesced",
                            )
                        continue
                    if p_latest is not None and key[1] > p_latest:
                        ok = False
                        self._violate(
                            "recoverability", holder.pid,
                            f"holds a committed replica of "
                            f"p{protected}'s checkpoint {key[1]}, which "
                            f"p{protected} never committed "
                            f"(latest {p_latest})",
                        )
                if memo is not None:
                    if ok:
                        memo.held[pair] = stamp
                    else:
                        memo.held.pop(pair, None)

    # ==================================================================
    # lifecycle / reporting
    # ==================================================================
    def finish(self) -> List[Violation]:
        """Final full check after the run; returns all violations."""
        self._refresh_vclocks()
        self._scan_structural(final=True)
        return self.violations

    def flight_record(self, reason: str) -> Dict[str, Any]:
        """Assemble a post-mortem flight record at the current instant."""
        eng = self.cluster.engine
        traffic = self.cluster.network.traffic
        return {
            "reason": reason,
            "time": eng.now,
            "step": eng.steps,
            "violations": [v.to_dict() for v in self.violations],
            "dropped_violations": self.dropped_violations,
            "checks": dict(self.checks),
            "nodes": [self._node_snapshot(h) for h in self.cluster.hosts],
            "cluster": {
                "crashes": self.cluster.crashes,
                "recoveries": self.cluster.recoveries,
                "traffic_bytes": traffic.total_bytes,
                "traffic_msgs": traffic.total_msgs,
                "inflight_msgs": self.cluster.network.inflight_msgs,
            },
            "events": self.recorder.dump(),
            "events_recorded": self.recorder.recorded,
        }

    @staticmethod
    def _node_snapshot(host: Any) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "pid": host.pid,
            "live": host.live,
            "recovering": host.recovering,
            "finished": host.finished,
            "crashes": host.crashed_count,
            "recoveries": host.recovered_count,
            "queued": len(host.queued),
            "vt": None,
        }
        if host.proto is not None:
            out["vt"] = list(host.proto.vt)
        mgr = host.ckpt_mgr
        if mgr is not None:
            out["retained_seqnos"] = mgr.retained_seqnos
            out["window_size"] = mgr.window_size
            out["latest_ckpt"] = (
                mgr.latest.seqno if mgr.latest is not None else None
            )
        ft = host.ft
        if ft is not None:
            out["log_volatile_bytes"] = ft.logs.diff.volatile_bytes
            out["log_saved_bytes"] = ft.logs.diff.saved_bytes
            out["rel_entries"] = ft.logs.rel.count()
            out["acq_entries"] = ft.logs.acq.count()
            out["checkpoints_taken"] = ft.stats.checkpoints_taken
        return out

    def render_summary(self) -> str:
        """One-screen check/violation summary for the CLI."""
        lines = [f"{'invariant':<14} {'checks':>8}   {'violations':>10}"]
        for k in INVARIANTS:
            n = sum(1 for v in self.violations if v.invariant == k)
            lines.append(f"{k:<14} {self.checks[k]:>8}   {n:>10}")
        total = len(self.violations)
        verdict = "ALL INVARIANTS HELD" if not total else (
            f"{total} VIOLATION(S)"
            + (f" (+{self.dropped_violations} dropped)"
               if self.dropped_violations else "")
        )
        lines.append(f"{'total':<14} {sum(self.checks.values()):>8}   {verdict}")
        return "\n".join(lines)
