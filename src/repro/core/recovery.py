"""Single-fault recovery by log-based replay (§4.3).

The paper's prototype implemented logging but not recovery; this module
implements the full procedure the paper specifies, which is also how the
test suite *proves* that LLT/CGC retain exactly enough state:

1. **Restart** from the restart checkpoint (or the virtual initial
   checkpoint): restore private state, vector time, homed pages + their
   version vectors, the saved logs, and the small protocol structures.
2. **Handshake** with every peer, collecting: ``rel_log[me]`` entries
   (grants to the failed process — drive acquire replay), ``acq_log``
   mirrors of the failed process's own grants (restore its ``rel_log``),
   peers' write-notice logs, barrier history (or mirrors, when the failed
   process managed the barrier), lock-manager self-grant mirrors, and
   all diffs peers retain for pages homed at the failed process.
3. **Replay**: the application re-runs from the restored state; the
   :class:`ReplayDriver` satisfies each synchronization operation from
   the logs and each page miss by *local emulation of a home* — an
   evolving page copy built from the maximal starting copy plus
   happened-before diffs applied in a linear extension of the vector-time
   partial order (componentwise-sum order).
4. **Live switch**: when a synchronization operation finds no log entry,
   the execution has caught up with the crash point; the driver finalizes
   (applies residual homed diffs, reconstructs lock-token placement from
   arrival/departure counts) and the process continues live. A
   ``RecoveryDone`` broadcast lets peers re-issue requests the failed
   incarnation consumed and lets lock managers repair lost forwards.

Known limitation: replay alignment of lock events relies on each
release-that-grants being distinguishable by vector time, which holds
whenever locks protect actual writes (true of all bundled applications
and of race-free programs doing useful work under locks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.checkpoint import Checkpoint
from repro.core.ftmanager import FtManager
from repro.core.logs import RelEntry
from repro.dsm.diff import Diff, apply_diff, concat_diffs, merge_runs
from repro.dsm.interval import NoticeTable
from repro.dsm.messages import (
    GrantInfo,
    RecoveryDone,
    RecoveryQuery,
    RecoveryReply,
    WriteNotice,
)
from repro.dsm.pages import PageEntry, PageId, PageState
from repro.dsm.protocol import DsmProcess
from repro.dsm.vclock import VClock
from repro.sim.engine import Future
from repro.sim.node import TimeBucket

__all__ = [
    "OverlappingFailureError",
    "RecoveryResponder",
    "RecoveryManager",
    "ReplayDriver",
]


class OverlappingFailureError(RuntimeError):
    """A second failure overlapped this recovery in an unrecoverable way.

    The protocol's volatile rel/acq logs are *not* part of checkpoints —
    they are rebuilt from peers' mirrors during the handshake. If a peer
    we depend on failed at-or-after our own crash, its mirrors may no
    longer cover what our replay needs, and proceeding could silently
    diverge. The paper assumes single failures (§2); we detect the
    violated assumption and fail loudly instead of hanging or diverging.
    """

REL_ENTRY_WIRE = 40  # lock id + vt, modeled
NOTICE_WIRE = 16
VT_WIRE = 32


def _sum_key(t: VClock) -> int:
    """Componentwise sum: a linear extension of the vector-time order."""
    return sum(t.v)


# ======================================================================
# peer side
# ======================================================================


class RecoveryResponder:
    """Serves recovery queries from a peer's live state.

    Responses are computed in the message handler ("recovery of a process
    does not interfere with other operational processes") and their CPU
    cost is accrued as handler debt.
    """

    def __init__(self, host: Any) -> None:
        self.host = host

    def handle(self, src: int, query: RecoveryQuery) -> None:
        kind = query.kind
        if kind.startswith("replica_"):
            # serve from the volatile replica tier: ``src`` lost a peer
            # to an overlapping failure and fetches that peer's mirrored
            # FT state from us (its buddy). detail = (protected, inner)
            from repro.core.replica import serve_replica_query

            protected, inner = query.detail
            payload, size = serve_replica_query(
                self.host, protected, src, kind[len("replica_") :], inner
            )
        elif kind == "handshake":
            payload, size = self._handshake(src)
        elif kind == "page_diffs":
            payload, size = self._page_diffs(query.detail)
        elif kind == "home_diffs":
            payload, size = self._home_diffs(src)
        elif kind == "starting_copy":
            payload, size = self._starting_copy(query.detail)
        else:
            raise RuntimeError(f"unknown recovery query kind {kind!r}")
        reply = RecoveryReply(
            kind=kind,
            responder=self.host.pid,
            payload=payload,
            payload_size=size,
            qid=query.qid,
            responder_crash_time=self.host.last_crash_time,
            responder_recovering=self.host.recovering,
        )
        self.host.proto.cpu.accrue_handler(20e-6)
        self.host.cluster.send(self.host.pid, src, reply)

    # ------------------------------------------------------------------
    def _handshake(self, src: int) -> Tuple[Dict[str, Any], int]:
        host = self.host
        proto: DsmProcess = host.proto
        ft: FtManager = host.ft
        rel_entries = ft.logs.rel.for_acquirer(src)
        acq_mirror = ft.logs.acq.for_grantor(src)
        wn = proto.notices.own_after(proto.pid, 0)
        self_grants: Dict[int, List[VClock]] = {}
        for lock_id in proto.locks.managed_locks():
            mgr = proto.locks.manager(lock_id)
            entries = mgr.self_grants.get(src)
            if entries:
                self_grants[lock_id] = list(entries)
        # buddy mirrors of self-grants for locks `src` manages itself
        for lock_id, entries in ft.buddy_selfgrants.get(src, {}).items():
            if entries:
                self_grants.setdefault(lock_id, []).extend(entries)
        bar_history: Dict[int, VClock] = {}
        if proto.barrier_mgr is not None:
            bar_history = dict(proto.barrier_mgr.history)
        bar_mirror = [(b.episode, b.global_vt) for b in ft.logs.bar]
        tokens = proto.locks.chain_snapshot()
        managed_owners = {
            lock_id: proto.locks.manager(lock_id).owner()
            for lock_id in proto.locks.managed_locks()
        }
        payload = {
            "managed_owners": managed_owners,
            "rel_entries": rel_entries,
            "acq_mirror": acq_mirror,
            "wn": wn,
            "self_grants": self_grants,
            "bar_history": bar_history,
            "bar_mirror": bar_mirror,
            "tckp": ft.trim.tckp[proto.pid],
            "bar_ep": ft.trim.bar_ep[proto.pid],
            "tokens": tokens,
            "completed_seq": dict(proto._completed_seq),
        }
        size = (
            (len(rel_entries) + len(acq_mirror)) * REL_ENTRY_WIRE
            + len(wn) * NOTICE_WIRE
            + sum(len(v) for v in self_grants.values()) * VT_WIRE
            + (len(bar_history) + len(bar_mirror)) * VT_WIRE
            + len(tokens) * 8
            + VT_WIRE
        )
        return payload, size

    def _page_diffs(self, page: PageId) -> Tuple[List[Tuple[VClock, Diff]], int]:
        ft: FtManager = self.host.ft
        entries = [(e.t, e.diff) for e in ft.logs.diff.entries_for(page)]
        size = sum(d.size_bytes + VT_WIRE for _, d in entries)
        return entries, size

    def _home_diffs(self, src: int) -> Tuple[Dict[PageId, List[Tuple[VClock, Diff]]], int]:
        ft: FtManager = self.host.ft
        proto: DsmProcess = self.host.proto
        out: Dict[PageId, List[Tuple[VClock, Diff]]] = {}
        size = 0
        for page in ft.logs.diff.pages():
            if proto.regions.home_of(page) != src:
                continue
            entries = [(e.t, e.diff) for e in ft.logs.diff.entries_for(page)]
            if entries:
                out[page] = entries
                size += sum(d.size_bytes + VT_WIRE for _, d in entries)
        return out, size

    def _starting_copy(
        self, detail: Tuple[PageId, VClock]
    ) -> Tuple[Tuple[bytes, VClock], int]:
        page, ceiling = detail
        copy = self.host.ckpt_mgr.maximal_starting_copy(page, ceiling)
        return (copy.data, copy.version), len(copy.data) + VT_WIRE


# ======================================================================
# recovering side
# ======================================================================


class RecoveryManager:
    """Drives the recovery of one failed process."""

    def __init__(self, host: Any) -> None:
        self.host = host
        self.cluster = host.cluster
        self.pid = host.pid
        #: when the incarnation this manager recovers crashed; replies
        #: from peers that failed at-or-after this instant signal overlap
        self.crash_time = host.last_crash_time
        self._pending: Dict[int, Future] = {}
        #: phase-boundary virtual times (recovery anatomy, DESIGN.md §12):
        #: begin / restore end / handshake end, filled as the procedure
        #: advances; a killed incarnation's partial marks die with it
        self._t_begin = -1.0
        self._t_restored = -1.0
        self._t_handshake = -1.0
        #: buddy-replica fetch accounting (the stable-store-vs-replica
        #: split of the restore/replay work)
        self.replica_fetches = 0
        self.replica_fetch_s = 0.0

    # -- query plumbing -------------------------------------------------
    def query(self, dst: int, kind: str, detail: Any = None) -> Iterator[Any]:
        while True:
            # qids are host-level monotonic: a restarted recovery must
            # never reuse a qid a killed incarnation has in flight, or a
            # stale reply could resolve the wrong future
            qid = self.host.next_qid()
            fut = Future(f"recovery {kind} -> {dst}")
            self._pending[qid] = fut
            self.cluster.send(
                self.pid,
                dst,
                RecoveryQuery(kind=kind, requester=self.pid, detail=detail, qid=qid),
            )
            reply: RecoveryReply = yield fut
            if kind.startswith("replica_"):
                # replica fetches are served from the holder's volatile
                # replica tier, which is valid regardless of the holder's
                # own failure history — no overlap check applies
                return reply.payload
            if not self.cluster.replication:
                self._check_overlap(reply)
                return reply.payload
            if (
                reply.responder_crash_time >= 0
                and reply.responder_crash_time >= self.crash_time
            ):
                # overlapping failure: the responder lost the mirrors we
                # need — fall back to its buddy's replica of them
                payload = yield from self._query_replica(dst, kind, detail)
                return payload
            if reply.responder_recovering:
                # the responder crashed strictly before us and is still
                # rebuilding: its mirrors of *us* are intact but possibly
                # not yet drained into its state — retry until it is
                # live.  Deadlock-free: in any mutually-recovering pair
                # exactly one side sees overlap (>= above) and completes
                # via the replica path, unblocking the other.
                from repro.sim.engine import Delay

                yield Delay(self.cluster.config.failure_detection_delay)
                continue
            return reply.payload

    def _query_replica(self, lost: int, kind: str, detail: Any) -> Iterator[Any]:
        """Fetch what ``lost`` would have answered from a replica holder.

        Tries holders in ring order; a holder whose record is missing or
        torn answers with the NO_REPLICA sentinel and the next one is
        tried. No holder left = the replica chain itself was lost
        (e.g. both ends crashed before a re-sync) — that is the residual,
        explicitly-diagnosed unrecoverable overlap.
        """
        from repro.core.replica import NO_REPLICA

        cluster = self.cluster
        tried: List[int] = []
        while True:
            holder = cluster.replica_holder(lost, exclude=tuple(tried))
            if holder is None:
                raise OverlappingFailureError(
                    f"recovery of p{self.pid} (crashed t={self.crash_time:.6f}) "
                    f"depends on p{lost}, which failed too, and no live "
                    f"replica of p{lost}'s FT state survives — the replica "
                    "chain was lost before a re-sync could repair it "
                    "(overlapping failures exceed what one buddy covers)"
                )
            if cluster.probe is not None:
                cluster.probe(
                    self.pid, "repl", f"fetch kind={kind} lost={lost} holder={holder}"
                )
            t0 = cluster.engine.now
            payload = yield from self.query(holder, "replica_" + kind, (lost, detail))
            self.replica_fetches += 1
            self.replica_fetch_s += cluster.engine.now - t0
            if isinstance(payload, str) and payload == NO_REPLICA:
                tried.append(holder)
                continue
            return payload

    def _check_overlap(self, reply: RecoveryReply) -> None:
        # Only the *ordering* of the failures matters. A responder that
        # crashed strictly before us rebuilt (or is rebuilding) its logs
        # from mirrors recorded while we were still alive, and queries it
        # cannot yet answer are held until it can — that interleaving is
        # the workable mutual-recovery dance. A responder that failed
        # at-or-after us lost the very mirrors our replay depends on, and
        # its own rebuild cannot reach us for them (we are down): that is
        # the unrecoverable overlap.
        if (
            reply.responder_crash_time >= 0
            and reply.responder_crash_time >= self.crash_time
        ):
            raise OverlappingFailureError(
                f"recovery of p{self.pid} (crashed t={self.crash_time:.6f}) "
                f"depends on p{reply.responder}, which failed at "
                f"t={reply.responder_crash_time:.6f} — its volatile logs "
                "may no longer cover this replay (overlapping failures "
                "exceed the single-fault model, §2)"
            )

    def query_all(self, kind: str, detail: Any = None) -> Iterator[Any]:
        """Query every live peer; returns {pid: payload}."""
        out: Dict[int, Any] = {}
        for j in range(self.cluster.config.num_procs):
            if j == self.pid:
                continue
            out[j] = yield from self.query(j, kind, detail)
        return out

    def on_reply(self, src: int, reply: RecoveryReply) -> None:
        fut = self._pending.pop(reply.qid, None)
        if fut is not None:
            fut.resolve(reply)

    # ------------------------------------------------------------------
    # the recovery procedure
    # ------------------------------------------------------------------
    def _rphase(self, detail: str) -> None:
        """Announce a recovery-phase boundary on the probe hook."""
        if self.cluster.probe is not None:
            self.cluster.probe(self.pid, "rphase", detail)

    def recover_and_resume(self) -> Iterator[Any]:
        host = self.host
        cluster = self.cluster
        host.recovery_mgr = self
        self._t_begin = cluster.engine.now
        self._rphase("restore begin")

        # 1. rebuild volatile infrastructure -----------------------------
        proto = host.make_protocol()
        proto.rebind_homes()
        host.proto = proto
        cluster._install_ft(host)  # fresh FtManager over the surviving store
        ft: FtManager = host.ft

        if cluster.replication:
            # answer recovery queries held while we were down *now*, not
            # at go-live: a peer recovering concurrently retries its
            # queries against us and would otherwise wait forever while
            # we wait on it (replies carry responder_recovering=True, so
            # the peer knows to retry / fall back as appropriate)
            held = [(s, m) for (s, m) in host.queued if isinstance(m, RecoveryQuery)]
            if held:
                host.queued = [
                    e for e in host.queued if not isinstance(e[1], RecoveryQuery)
                ]
                for s, m in held:
                    host.responder.handle(s, m)

        # a crash during a checkpoint disk write leaves a marker-less
        # (torn) record on stable storage; it must not be a restart point
        torn = host.ckpt_mgr.discard_torn()
        if torn and cluster.probe is not None:
            cluster.probe(self.pid, "recovery", f"discarded_torn n={torn}")

        ckpt: Optional[Checkpoint] = host.ckpt_mgr.restart_checkpoint()
        if ckpt is not None:
            self._restore_from_checkpoint(proto, ft, ckpt)
            host.state = ckpt.restore_app_state()
            if cluster.probe is not None:
                cluster.probe(
                    self.pid, "recovery", f"restart_ckpt seqno={ckpt.seqno}"
                )
        else:
            # restart from the virtual checkpoint 0: initial private
            # state and the *seeded* initial contents of homed pages
            host.state = cluster.app.init_state(self.pid)
            for page, copies in host.ckpt_mgr.page_copies.items():
                seed = copies[0]
                proto.page_bytes(page)[:] = np.frombuffer(
                    seed.data, dtype=np.uint8
                )
                proto.home[page].version = seed.version
                proto.have_v[page] = seed.version
        ft.app_state_fn = lambda h=host: h.state
        tckp = ckpt.tckp if ckpt is not None else VClock.zero(proto.n)

        # disk read: restart checkpoint + saved logs
        restore_bytes = host.store.used_bytes
        yield from proto.cpu.charge(
            TimeBucket.LOG_CKPT, host.disk.read_cost(restore_bytes)
        )
        self._t_restored = cluster.engine.now
        self._rphase("restore end")

        # 2. handshake ----------------------------------------------------
        self._rphase("handshake begin")
        replies = yield from self.query_all("handshake")
        driver = ReplayDriver(proto, ft, self, tckp, ckpt)
        driver.ingest_handshakes(replies)

        home_diffs = yield from self.query_all("home_diffs")
        driver.ingest_home_diffs(home_diffs)
        self._t_handshake = cluster.engine.now
        self._rphase("handshake end")

        # 3. replay -------------------------------------------------------
        self._rphase("replay begin")
        proto.replay = driver
        driver.apply_eligible_home_diffs()
        driver.on_live = self._go_live

        yield from cluster._app_main(host)
        # if the app finished while still in replay mode (every remaining
        # operation was logged before the crash), the live switch still
        # must happen: peers need the RecoveryDone and the queued messages
        if not driver.live:
            driver.go_live()
        host.recovery_mgr = None

    def _finish_phases(self) -> None:
        """Record this incarnation's completed recovery anatomy.

        Emitted at the live switch, *before* the ``recovery live`` probe
        so the span tracer closes the replay child span while its parent
        recovery span is still open. Phase durations (all virtual time):

        * ``detect``    — fail-stop to recovery start (the cluster's
          failure-detection delay);
        * ``restore``   — infrastructure rebuild + stable-store read of
          the restart checkpoint and saved logs;
        * ``handshake`` — the two ``query_all`` rounds (handshake and
          home-diff collection), including any buddy-replica fallback
          fetches (counted separately in ``replica_fetches``/
          ``replica_fetch_s``);
        * ``replay``    — log-guided re-execution up to the live switch;
        * ``resume``    — the live switch itself (RecoveryDone broadcast,
          forwarded-lock repair, queue drain); it runs synchronously in
          zero virtual time today but is recorded so the schema names
          every phase of the recovery path.
        """
        host = self.host
        t_live = self.cluster.engine.now
        self._rphase("replay end")
        rec = {
            "incarnation": host.crashed_count,
            "crash_time": self.crash_time,
            "detect": self._t_begin - self.crash_time,
            "restore": self._t_restored - self._t_begin,
            "handshake": self._t_handshake - self._t_restored,
            "replay": t_live - self._t_handshake,
            "resume": 0.0,
            "total": t_live - self.crash_time,
            "replica_fetches": self.replica_fetches,
            "replica_fetch_s": self.replica_fetch_s,
        }
        host.recovery_phases.append(rec)
        obs = self.cluster.observer
        if obs is not None:
            obs.on_recovery_phases(self.pid, rec)

    def _go_live(self) -> None:
        """Called by the driver at the live switch."""
        host = self.host
        cluster = self.cluster
        self._finish_phases()
        host.recovering = False
        host.live = True
        cluster.recoveries += 1
        host.recovered_count += 1
        if cluster.probe is not None:
            cluster.probe(self.pid, "recovery", "live")
        for j in range(cluster.config.num_procs):
            if j != self.pid:
                cluster.send(self.pid, j, RecoveryDone(proc=self.pid))
        # repair our own managed locks / pending ops
        assert host.proto is not None
        host.proto.repair_forwards_for(self.pid)
        if cluster.replication:
            # re-enter the replication ring: our new incarnation picks a
            # buddy and full-syncs; peers that had re-buddied away from
            # us (or to a now-suboptimal ring position) re-evaluate
            cluster._recompute_buddies()
        host.drain_queue()

    # ------------------------------------------------------------------
    def _restore_from_checkpoint(
        self, proto: DsmProcess, ft: FtManager, ckpt: Checkpoint
    ) -> None:
        proto.vt = ckpt.tckp
        # homed pages: contents + version vectors from the restart ckpt
        for page, version in ckpt.homed_versions.items():
            copies = ft.ckpt_mgr.page_copies[page]
            data = None
            for c in copies:
                if c.ckpt_seqno == ckpt.seqno:
                    data = c.data
                    break
            if data is None:
                raise RuntimeError(
                    f"restart checkpoint {ckpt.seqno} lost page {page} "
                    "(CGC must never collect the latest checkpoint)"
                )
            proto.page_bytes(page)[:] = np.frombuffer(data, dtype=np.uint8)
            hp = proto.home[page]
            hp.version = version
            hp.drop_snapshot()
            proto.have_v[page] = version
        # own write notices
        for wn in ckpt.own_notices:
            proto.notices.add(wn)
        # saved diff log
        for page, entries in ckpt.diff_log.items():
            for e in entries:
                ft.logs.diff.append(page, e.diff, e.t, saved=True)
            # restoring is not creating: undo the double count
            ft.logs.diff.bytes_created -= sum(e.size_bytes for e in entries)
        # protocol bookkeeping
        for lock_id, (has_token, held) in ckpt.lock_tokens.items():
            st = proto.locks.token(lock_id)
            st.has_token = has_token
            st.held = held
            if has_token and not held:
                st.rel_vt = ckpt.tckp  # conservative release snapshot
        proto._acq_seq = dict(ckpt.acq_seq)
        proto._completed_seq = dict(ckpt.acq_seq)
        proto.barrier_episode = ckpt.barrier_episode
        proto.last_barrier_global = ckpt.last_barrier_global
        ft.trim.learn_tckp(self.pid, ckpt.tckp, ckpt.barrier_episode)


# ======================================================================
# replay
# ======================================================================


@dataclass
class _PoolEntry:
    creator: int
    t: VClock
    diff: Diff
    applied: bool = False


class ReplayDriver:
    """Satisfies DSM operations from recovered logs during replay."""

    def __init__(
        self,
        proto: DsmProcess,
        ft: FtManager,
        rm: RecoveryManager,
        tckp: VClock,
        ckpt: Optional[Checkpoint],
    ) -> None:
        self.proto = proto
        self.ft = ft
        self.rm = rm
        self.tckp = tckp
        self.pid = proto.pid
        #: lock -> ordered pending acquire records: (acq_t, grantor|None)
        #: grantor None means a self-grant record
        self.acquire_records: Dict[int, List[Tuple[VClock, Optional[int]]]] = {}
        #: lock -> number of post-checkpoint token departures (grants by me)
        self.departures: Dict[int, int] = {}
        #: lock -> arrivals replayed (non-self acquires consumed)
        self.arrivals: Dict[int, int] = {}
        #: lock -> initial token presence at restart
        self.initial_token: Dict[int, bool] = {}
        #: lock -> owner as tracked by its (live) manager via GrantInfo —
        #: the authoritative token-placement source (the rel/acq mirrors
        #: may be legitimately trimmed under Rule 2)
        self.owner_reports: Dict[int, int] = {}
        #: lock -> peer currently reporting the token (for locks the
        #: recovering process manages itself)
        self.peer_token_holders: Dict[int, int] = {}
        #: lock -> {proc: (successor, seq)} pointers, for chain rebuilds
        self.succ_edges: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self.bar_history: Dict[int, VClock] = {}
        #: collected peers' write notices (NOT merged into proto.notices:
        #: only happened-before ones are surfaced, at vt advances)
        self.peer_notices = NoticeTable(proto.n)
        #: page -> evolving home-emulation copy
        self.evolving: Dict[PageId, np.ndarray] = {}
        self.evolving_v: Dict[PageId, VClock] = {}
        #: page -> diff pool for home emulation (sum-ordered)
        self.pool: Dict[PageId, List[_PoolEntry]] = {}
        self.pool_fetched: Set[PageId] = set()
        #: pools for the pages homed at the recovering process
        self.home_pool: Dict[PageId, List[_PoolEntry]] = {}
        self.live = False
        self.on_live = lambda: None
        self.stats_replayed_acquires = 0
        self.stats_replayed_barriers = 0
        self.stats_replayed_fetches = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest_handshakes(self, replies: Dict[int, Dict[str, Any]]) -> None:
        proto = self.proto
        me = self.pid
        for src, payload in replies.items():
            for entry in payload["rel_entries"]:
                if entry.acq_t[me] > self.tckp[me]:
                    self.acquire_records.setdefault(entry.lock_id, []).append(
                        (entry.acq_t, src)
                    )
            for entry in payload["acq_mirror"]:
                # grants the failed process made: restore rel_log + count
                # post-checkpoint departures
                self.ft.logs.rel.append(src, entry.lock_id, entry.acq_t)
                if entry.acq_t[me] > self.tckp[me]:
                    self.departures[entry.lock_id] = (
                        self.departures.get(entry.lock_id, 0) + 1
                    )
            for wn in payload["wn"]:
                self.peer_notices.add(wn)
            for lock_id, entries in payload["self_grants"].items():
                for acq_t in entries:
                    if acq_t[me] > self.tckp[me]:
                        self.acquire_records.setdefault(lock_id, []).append(
                            (acq_t, None)
                        )
            self.bar_history.update(payload["bar_history"])
            for episode, global_vt in payload["bar_mirror"]:
                self.bar_history.setdefault(episode, global_vt)
            self.ft.trim.learn_tckp(src, payload["tckp"], payload["bar_ep"])
            self.owner_reports.update(payload["managed_owners"])
            for lock_id, (has_token, held, succ, succ_seq) in payload[
                "tokens"
            ].items():
                if has_token:
                    self.peer_token_holders[lock_id] = src
                if succ is not None:
                    self.succ_edges.setdefault(lock_id, {})[src] = (succ, succ_seq)
            for lock_id, seq in payload["completed_seq"].items():
                if proto.locks.manages(lock_id):
                    mgr = proto.locks.manager(lock_id)
                    mgr.last_seq[src] = max(mgr.last_seq.get(src, -1), seq)
        # snapshot pre-replay token presence for the finalize arithmetic
        for lock_id in set(self.acquire_records) | set(self.departures):
            self.initial_token[lock_id] = proto.locks.token(lock_id).has_token
        for records in self.acquire_records.values():
            records.sort(key=lambda r: r[0][me])


        # if we are the barrier manager, rebuild its episode state
        if proto.barrier_mgr is not None and self.bar_history:
            mgr = proto.barrier_mgr
            mgr.history = dict(self.bar_history)
            last = max(self.bar_history)
            mgr.next_episode = last + 1
            mgr.last_global = self.bar_history[last]

    def ingest_home_diffs(
        self, replies: Dict[int, Dict[PageId, List[Tuple[VClock, Diff]]]]
    ) -> None:
        for src, pages in replies.items():
            for page, entries in pages.items():
                pool = self.home_pool.setdefault(page, [])
                for t, diff in entries:
                    pool.append(_PoolEntry(src, t, diff))
        for pool in self.home_pool.values():
            pool.sort(key=lambda e: _sum_key(e.t))

    # ------------------------------------------------------------------
    # vt advancement: invalidations + homed-page diff application
    # ------------------------------------------------------------------
    def advance_vt(self, new_vt: VClock) -> None:
        proto = self.proto
        old = proto.vt
        joined = old.join(new_vt)
        # replayed notices are not counted in stats.notices_applied
        proto._apply_notices(self.peer_notices.between(old, joined))
        proto.vt = joined
        self.apply_eligible_home_diffs()

    def apply_eligible_home_diffs(self) -> None:
        """Apply collected diffs for our homed pages that happened before
        the current replay point.

        Newly eligible entries are batched per page: when the coverage
        union (:func:`merge_runs`) proves their byte ranges disjoint —
        the common case, since HLRC writers of a page partition it — the
        batch collapses into one concatenated diff applied with a single
        vectorized scatter; overlapping batches fall back to sequential
        application in pool (componentwise-sum) order.
        """
        proto = self.proto
        vt = proto.vt
        for page, pool in self.home_pool.items():
            hp = proto.home[page]
            batch = []
            for e in pool:
                if e.applied:
                    continue
                interval = e.t[e.creator]
                if e.t[e.creator] > vt[e.creator]:
                    continue
                e.applied = True
                if hp.is_duplicate(e.creator, interval):
                    continue
                batch.append((e, interval))
            if batch:
                buf = proto.page_bytes(page)
                diffs = [e.diff for e, _ in batch]
                if len(diffs) > 1 and sum(
                    hi - lo for lo, hi in merge_runs(diffs)
                ) == sum(d.payload_bytes for d in diffs):
                    apply_diff(buf, concat_diffs(diffs))
                else:
                    for d in diffs:
                        apply_diff(buf, d)
                for e, interval in batch:
                    hp.advance(e.creator, interval)
            proto.have_v[page] = proto.have_v[page].join(hp.version)

    def apply_all_home_diffs(self) -> None:
        """Finalize: bring every homed page fully up to the crash point."""
        proto = self.proto
        for page, pool in self.home_pool.items():
            hp = proto.home[page]
            buf = proto.page_bytes(page)
            for e in pool:
                if e.applied:
                    continue
                e.applied = True
                interval = e.t[e.creator]
                if hp.is_duplicate(e.creator, interval):
                    continue
                apply_diff(buf, e.diff)
                hp.advance(e.creator, interval)
            proto.have_v[page] = proto.have_v[page].join(hp.version)

    # ------------------------------------------------------------------
    # replayed operations
    # ------------------------------------------------------------------
    def replay_acquire(self, lock_id: int, seq: int) -> Iterator[Any]:
        records = self.acquire_records.get(lock_id)
        if not records:
            self.go_live()
            return False
        acq_t, grantor = records.pop(0)
        proto = self.proto
        st = proto.locks.token(lock_id)
        if grantor is None:
            # self-grant: the token was already resting here
            if not st.has_token:
                raise RuntimeError(
                    f"replay: self-grant of lock {lock_id} without token at "
                    f"{self.pid}"
                )
            st.held = True
            st.rel_vt = None
        else:
            st.has_token = True
            st.held = True
            st.rel_vt = None
            self.arrivals[lock_id] = self.arrivals.get(lock_id, 0) + 1
            # rebuild the acq_log mirror (of the grantor's rel_log)
            self.ft.logs.acq.append(grantor, lock_id, acq_t)
        proto._completed_seq[lock_id] = seq
        self.advance_vt(acq_t)
        self.stats_replayed_acquires += 1
        return True
        yield  # pragma: no cover — generator form for protocol symmetry

    def replay_barrier(self, episode: int) -> Iterator[Any]:
        global_vt = self.bar_history.get(episode)
        if global_vt is None:
            self.go_live()
            return False
        proto = self.proto
        self.advance_vt(global_vt)
        proto.last_barrier_global = global_vt
        self.ft.logs.log_barrier(episode, global_vt)
        self.stats_replayed_barriers += 1
        return True
        yield  # pragma: no cover

    def replay_fetch(self, page: PageId, entry: PageEntry) -> Iterator[Any]:
        """Resolve a page miss by local emulation of the page's home."""
        proto = self.proto
        if page not in self.pool_fetched:
            yield from self._collect_page(page)
        buf, version = self._advance_evolving(page)
        proto.page_bytes(page)[:] = buf
        entry.state = PageState.RO
        entry.needed_v = None
        proto.have_v[page] = version
        self.stats_replayed_fetches += 1

    def _collect_page(self, page: PageId) -> Iterator[Any]:
        """First miss on ``page``: fetch starting copy + all diff logs."""
        proto = self.proto
        home = proto.regions.home_of(page)
        data, version = yield from self.rm.query(
            home, "starting_copy", (page, proto.vt)
        )
        self.evolving[page] = np.frombuffer(data, dtype=np.uint8).copy()
        self.evolving_v[page] = version
        pool: List[_PoolEntry] = []
        diffs = yield from self.rm.query_all("page_diffs", page)
        for src, entries in diffs.items():
            for t, diff in entries:
                pool.append(_PoolEntry(src, t, diff))
        pool.sort(key=lambda e: _sum_key(e.t))
        self.pool[page] = pool
        self.pool_fetched.add(page)

    def _advance_evolving(self, page: PageId) -> Tuple[np.ndarray, VClock]:
        """Apply newly happened-before diffs to the evolving copy.

        Includes the recovering process's own diffs (restored + rebuilt),
        read straight from its diff log.
        """
        proto = self.proto
        vt = proto.vt
        buf = self.evolving[page]
        version = self.evolving_v[page]
        pool = self.pool[page]
        # merge own log entries lazily (they grow as replay flushes)
        own = [
            _PoolEntry(self.pid, e.t, e.diff)
            for e in self.ft.logs.diff.entries_for(page)
        ]
        merged = sorted(pool + own, key=lambda e: _sum_key(e.t))
        for e in merged:
            interval = e.t[e.creator]
            if interval <= version[e.creator]:
                continue  # already reflected
            if interval > vt[e.creator]:
                continue  # did not happen before the current point
            apply_diff(buf, e.diff)
            version = version.with_component(e.creator, interval)
        self.evolving_v[page] = version
        return buf, version

    def replay_home_access(self, page: PageId, entry: PageEntry) -> Iterator[Any]:
        proto = self.proto
        self.apply_eligible_home_diffs()
        hp = proto.home[page]
        if entry.needed_v is not None and not hp.ready_for(entry.needed_v):
            raise RuntimeError(
                f"replay: homed page {page} cannot reach {entry.needed_v} "
                f"(version {hp.version}); writers trimmed needed diffs "
                "(Rule 3 violated)"
            )
        entry.needed_v = None
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # live switch
    # ------------------------------------------------------------------
    def go_live(self) -> None:
        if self.live:
            return
        self.live = True
        self.finalize()
        self.on_live()

    def finalize(self) -> None:
        proto = self.proto
        proto.replay = None
        self.apply_all_home_diffs()
        # For locks this process manages, the GrantInfo stream that queued
        # while it was down IS its own owner tracking: every transfer the
        # grantors performed after their handshake replies went out is
        # recorded there, so the last queued entry per lock supersedes any
        # token snapshot a (possibly long-stale) reply carried. Without
        # this, a transfer races the sequential handshake round and the
        # manager resurrects the token at itself.
        queued_owner: Dict[int, int] = {}
        for _src, qmsg in self.rm.host.queued:
            if isinstance(qmsg, GrantInfo) and proto.locks.manages(qmsg.lock_id):
                queued_owner[qmsg.lock_id] = qmsg.grantee
        # reconstruct token placement. Preference order:
        #   1. the lock manager's owner tracking (GrantInfo) — robust,
        #   2. for locks we manage ourselves: peers' token snapshots,
        #      corrected by the queued GrantInfo stream above,
        #   3. fall back to initial + arrivals - departures arithmetic
        #      (can undercount departures whose mirrors Rule 2 trimmed).
        all_locks = (
            set(self.initial_token)
            | set(self.departures)
            | set(self.arrivals)
            | set(self.owner_reports)
            | set(queued_owner)
            | set(proto.locks.known_locks())
        )
        for lock_id in all_locks:
            st = proto.locks.token(lock_id)
            if st.held:
                st.has_token = True
                continue
            owner = self.owner_reports.get(lock_id)
            if owner is not None:
                st.has_token = owner == self.pid
            elif proto.locks.manages(lock_id):
                if lock_id in queued_owner:
                    st.has_token = queued_owner[lock_id] == self.pid
                else:
                    st.has_token = lock_id not in self.peer_token_holders
            else:
                initial = self.initial_token.get(lock_id, st.has_token)
                present = (
                    int(initial)
                    + self.arrivals.get(lock_id, 0)
                    - self.departures.get(lock_id, 0)
                )
                st.has_token = present > 0
            if st.has_token and st.rel_vt is None:
                st.rel_vt = proto.vt
        # rebuild manager chains for this process's own managed locks,
        # now that its own token placement is known
        managed = set(proto.locks.managed_locks()) | {
            l for l in all_locks if proto.locks.manages(l)
        } | {l for l in self.succ_edges if proto.locks.manages(l)}
        for lock_id in managed:
            holder = queued_owner.get(
                lock_id, self.peer_token_holders.get(lock_id)
            )
            if holder is None:
                holder = self.pid  # at/heading to the recovering process
            proto.locks.restore_chain(
                lock_id, holder, self.succ_edges.get(lock_id, {})
            )
