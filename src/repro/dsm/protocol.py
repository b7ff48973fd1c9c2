"""The per-process HLRC protocol engine.

One :class:`DsmProcess` per node implements the application-facing DSM
API (acquire/release/barrier/read/write/compute) as simulator coroutines,
plus the message handlers for the home, lock and barrier sub-protocols.

Interval discipline
-------------------
``vt[i]`` is the index of the last *flushed* interval of process ``i``.
An interval is flushed (diffs created and sent to homes, write notices
generated, ``vt[i]`` bumped) at every synchronization operation that had
intervening writes: lock acquire (before the request), lock release, and
barrier arrival. Flushing at acquire keeps the invariant that no page is
dirty when invalidations are applied.

Fault-tolerance integration
---------------------------
All FT behaviour is behind :class:`FtHooks` (a no-op here). The
fault-tolerant system of the paper installs a real implementation
(:class:`repro.core.ftmanager.FtManager`) that logs, checkpoints, trims
and piggybacks without the base protocol knowing.

Recovery integration
--------------------
When ``self.replay`` is set (a :class:`repro.core.recovery.ReplayDriver`),
synchronization and page faults are satisfied from recovered logs instead
of messages (§4.3); the driver flips the process back to live mode when
the logs are exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.dsm.barrier import BarrierManagerState
from repro.dsm.config import DsmConfig
from repro.dsm.diff import Diff, apply_diff, compute_diff
from repro.dsm.home import HomeDirectory, HomePage
from repro.dsm.interval import NoticeTable
from repro.dsm.locks import LockTable
from repro.dsm.messages import (
    BarrierArrive,
    BarrierRelease,
    DiffMsg,
    GrantInfo,
    LockAcquireReq,
    LockForward,
    LockGrant,
    Message,
    PageFetchReply,
    PageFetchReq,
    Piggyback,
    WriteNotice,
)
from repro.dsm.pages import PageEntry, PageId, PageState, RegionSet, SharedRegion
from repro.dsm.vclock import VClock
from repro.sim.engine import Delay, Engine, Future
from repro.sim.node import CpuModel, TimeBucket

__all__ = ["DsmProcess", "FtHooks", "ProtocolStats"]


class FtHooks:
    """Fault-tolerance extension points; the base protocol is a no-op."""

    def on_interval_flush(
        self, page: PageId, diff: Diff, vt: VClock, is_home: bool
    ) -> Iterator[Delay]:
        """A diff for ``page`` was created at interval flush (vt = new vt)."""
        return iter(())

    def home_wants_diffs(self) -> bool:
        """True when homes must twin/diff their own pages (FT logging)."""
        return False

    def on_grant(self, lock_id: int, acquirer: int, acq_t: VClock) -> None:
        """This process granted ``lock_id``; ``acq_t`` is the acquirer's new vt."""

    def on_acquire_done(self, lock_id: int, grantor: int, acq_t: VClock) -> None:
        """This process completed an acquire granted by ``grantor``."""

    def on_self_grant(self, lock_id: int, acq_t: VClock) -> None:
        """This process re-acquired its own resting token (local acquire)."""

    def on_buddy_self_grant(self, grantor: int, lock_id: int, acq_t: VClock) -> None:
        """Hold a buddy mirror of a manager's own self-grant."""

    def on_mirror_self_grant(self, grantor: int, lock_id: int, acq_t: VClock) -> None:
        """Managed lock: a peer's self-grant was mirrored into manager state."""

    def on_owner_observed(self, lock_id: int, owner: int) -> None:
        """Managed lock: the token's observed owner advanced to ``owner``."""

    def on_barrier_done(self, episode: int, global_vt: VClock) -> None:
        """This process passed barrier ``episode``."""

    def at_sync_point(self, at_barrier: bool = False) -> Iterator[Delay]:
        """Called at sync points (after release, before barrier arrival)."""
        return iter(())

    def at_safe_point(self) -> Iterator[Delay]:
        """Called at application-declared checkpoint-safe points."""
        return iter(())

    def piggyback_for(self, dst: int) -> Optional[Piggyback]:
        return None

    def on_piggyback(self, src: int, pb: Piggyback) -> None:
        pass

    def on_diff_received(self, page: PageId, writer: int, diff_vt: VClock) -> None:
        """Home received and applied a diff (drives p0.v advertisements)."""

    def handle_ft_message(self, src: int, msg: "Message") -> bool:
        """Give the FT layer first pick of unknown messages (baselines)."""
        return False

    def record_if_channel_state(self, src: int, msg: "Message") -> None:
        """Coordinated-checkpointing hook: record cut-crossing messages."""

    def log_append_cost(self, nbytes: int) -> float:
        return 0.0


@dataclass
class ProtocolStats:
    """Per-process protocol event counters."""

    page_fetches: int = 0
    page_fetch_bytes: int = 0
    diffs_sent: int = 0
    diff_bytes_sent: int = 0
    diffs_created: int = 0
    diff_bytes_created: int = 0
    lock_acquires: int = 0
    barriers: int = 0
    notices_created: int = 0
    notices_applied: int = 0
    intervals: int = 0


class DsmProcess:
    """Protocol state and application API for one process."""

    def __init__(
        self,
        pid: int,
        config: DsmConfig,
        regions: RegionSet,
        engine: Engine,
        send_fn: Callable[[int, int, Message], None],
        cpu: Optional[CpuModel] = None,
    ) -> None:
        self.pid = pid
        self.config = config
        self.n = config.num_procs
        self.regions = regions
        self.engine = engine
        self._send_raw = send_fn
        self.cpu = cpu or CpuModel()

        self.vt = VClock.zero(self.n)
        self.notices = NoticeTable(self.n)
        self.locks = LockTable(pid, self.n)
        self.home = HomeDirectory(self.n)
        self.stats = ProtocolStats()

        # local memory: one uint8 backing array per region
        self.backing: Dict[int, np.ndarray] = {}
        self.entries: Dict[PageId, PageEntry] = {}
        # version of the local copy (what we know we have)
        self.have_v: Dict[PageId, VClock] = {}
        self._dirty: List[PageId] = []

        # pending operation futures
        self._fetch_waiting: Dict[PageId, Future] = {}
        self._lock_waiting: Dict[int, Future] = {}
        self._home_waiting: Dict[PageId, Future] = {}
        self._barrier_future: Optional[Future] = None

        # lock acquire sequence numbers (per lock) for request dedupe,
        # and in-flight requests for post-recovery re-sends
        self._acq_seq: Dict[int, int] = {}
        self._completed_seq: Dict[int, int] = {}
        self._pending_acquires: Dict[int, LockAcquireReq] = {}
        self._pending_fetch_req: Dict[PageId, PageFetchReq] = {}
        self._pending_arrive: Optional[BarrierArrive] = None
        #: a barrier release that arrived while we were not yet waiting
        #: (possible when a queued release drains right after recovery)
        self._stashed_release: Optional[BarrierRelease] = None

        # barrier participant state
        self.barrier_episode = 0
        self.last_barrier_global = VClock.zero(self.n)
        self.barrier_mgr: Optional[BarrierManagerState] = (
            BarrierManagerState(self.n) if pid == config.barrier_manager else None
        )

        self.ft: FtHooks = FtHooks()
        #: observability probe (repro.observe.NodeProbe); None = no
        #: observer attached — instrumented sites cost one attribute
        #: check, and the probe itself only reads/records (never
        #: schedules), so observation cannot perturb the run
        self.obs: Any = None
        #: recovery replay driver (duck-typed); None = live operation
        self.replay: Any = None

        self._init_memory()

    # ------------------------------------------------------------------
    # memory setup
    # ------------------------------------------------------------------
    def _init_memory(self) -> None:
        for region in self.regions:
            self.backing[region.region_id] = np.zeros(region.nbytes, dtype=np.uint8)
            for i in range(region.num_pages):
                pid_ = region.page_id(i)
                entry = PageEntry()
                if region.home_of(i) == self.pid:
                    # home copies start valid (and authoritative)
                    entry.state = PageState.RO
                    self.home.add_page(pid_)
                self.entries[pid_] = entry
                self.have_v[pid_] = VClock.zero(self.n)

    def rebind_homes(self) -> None:
        """Re-derive home directory after explicit home placement changes.

        Must be called before any sharing (the cluster does this when the
        region set is sealed).
        """
        self.home = HomeDirectory(self.n)
        for region in self.regions:
            for i in range(region.num_pages):
                pid_ = region.page_id(i)
                entry = self.entries[pid_]
                if region.home_of(i) == self.pid:
                    entry.state = PageState.RO
                    self.home.add_page(pid_)
                elif entry.state is not PageState.INVALID and not self.is_home(pid_):
                    entry.state = PageState.INVALID

    def is_home(self, page: PageId) -> bool:
        return page in self.home

    def page_bytes(self, page: PageId) -> np.ndarray:
        region = self.regions[page.region]
        lo, hi = region.page_slice(page.index)
        return self.backing[page.region][lo:hi]

    def typed_view(self, region: SharedRegion) -> np.ndarray:
        """The whole region as its element dtype (local copy)."""
        raw = self.backing[region.region_id]
        return raw.view(region.dtype)[: region.num_elements]

    # ------------------------------------------------------------------
    # application API — computation
    # ------------------------------------------------------------------
    def compute(self, seconds: float) -> Iterator[Delay]:
        """Charge ``seconds`` of application computation."""
        yield from self.cpu.charge(TimeBucket.COMPUTE, seconds)

    # ------------------------------------------------------------------
    # application API — checkpointing
    # ------------------------------------------------------------------
    def ckpt_point(self) -> Iterator[Any]:
        """Declare a checkpoint-safe point (resumable private state).

        A checkpoint requested by the policy since the last safe point is
        taken here.
        """
        yield from self.cpu.drain_debt()
        yield from self.ft.at_safe_point()

    def checkpoint(self) -> Iterator[Any]:
        """Application-requested checkpoint, taken immediately (the
        exported API of §5.4; the call site is by definition safe)."""
        yield from self.cpu.drain_debt()
        take = getattr(self.ft, "take_checkpoint", None)
        if take is not None:
            yield from take()

    # ------------------------------------------------------------------
    # application API — shared memory access
    # ------------------------------------------------------------------
    def read_range(self, region: SharedRegion, lo: int, hi: int) -> Iterator[Any]:
        """Make elements [lo, hi) readable; returns the typed local view."""
        pages = region.pages_for_range(lo, hi)
        if self._range_ready(region, pages, for_write=False):
            return self.typed_view(region)[lo:hi]
        for idx in pages:
            yield from self._ensure_valid(region.page_id(idx))
        return self.typed_view(region)[lo:hi]

    def write_range(self, region: SharedRegion, lo: int, hi: int) -> Iterator[Any]:
        """Make elements [lo, hi) writable; returns the typed local view.

        The caller must only write inside the declared range (the
        simulator stands in for per-page write protection).
        """
        pages = region.pages_for_range(lo, hi)
        if self._range_ready(region, pages, for_write=True):
            return self.typed_view(region)[lo:hi]
        for idx in pages:
            yield from self._ensure_writable(region.page_id(idx))
        return self.typed_view(region)[lo:hi]

    def _range_ready(self, region: SharedRegion, pages: range, for_write: bool) -> bool:
        """True when every page in ``pages`` can be served without a yield.

        This is the no-yield fast path of ``read_range``/``write_range``:
        when there is no handler debt to drain and every covered page is
        already valid (and dirty, for writes), the per-page
        ``_ensure_valid``/``_ensure_writable`` loop would execute zero
        yields, so it can be skipped wholesale. The check is pure except
        for clearing ``needed_v`` on satisfied home pages — exactly the
        side effect ``_ensure_home_ready`` would have performed — and
        mutates nothing when it returns False, so the fallback slow path
        starts from pristine state.
        """
        if self.cpu.handler_debt or self.replay is not None:
            return False
        entries = self.entries
        home = self.home
        have_v = self.have_v
        page_id = region.page_id
        satisfied_homes: List[PageEntry] = []
        for idx in pages:
            page = page_id(idx)
            entry = entries[page]
            if for_write and not entry.dirty:
                return False
            hp = home.get(page)
            needed = entry.needed_v
            if hp is not None:
                if needed is not None:
                    if not needed.leq(hp.version):
                        return False
                    satisfied_homes.append(entry)
            else:
                if entry.state is PageState.INVALID:
                    return False
                if needed is not None and not needed.leq(have_v[page]):
                    return False
        for entry in satisfied_homes:
            entry.needed_v = None
        return True

    def _ensure_valid(self, page: PageId) -> Iterator[Any]:
        yield from self.cpu.drain_debt()
        entry = self.entries[page]
        if self.is_home(page):
            yield from self._ensure_home_ready(page, entry)
            return
        if entry.state is not PageState.INVALID and (
            entry.needed_v is None or entry.needed_v.leq(self.have_v[page])
        ):
            return
        yield from self._fetch(page, entry)

    def _ensure_writable(self, page: PageId) -> Iterator[Any]:
        yield from self._ensure_valid(page)
        entry = self.entries[page]
        if entry.dirty:
            return
        fault = self.cpu.costs.page_fault_handler
        is_home = self.is_home(page)
        region = self.regions[page.region]
        if not is_home:
            # base protocol: twin needed to produce the diff for the home
            twin_cost = fault + region.config.page_size * self.cpu.costs.twin_create_per_byte
            yield from self.cpu.charge(TimeBucket.OVERHEAD, twin_cost)
            entry.twin = self.page_bytes(page).copy()
        elif self.ft.home_wants_diffs():
            # FT-only overhead: the home twins its own page to log a diff
            twin_cost = fault + region.config.page_size * self.cpu.costs.twin_create_per_byte
            yield from self.cpu.charge(TimeBucket.LOG_CKPT, twin_cost)
            entry.twin = self.page_bytes(page).copy()
        entry.dirty = True
        entry.state = PageState.RW
        self._dirty.append(page)

    def _fetch(self, page: PageId, entry: PageEntry) -> Iterator[Any]:
        if self.replay is not None:
            yield from self.replay.replay_fetch(page, entry)
            return
        t0 = self.engine.now
        fut = Future(f"fetch p{page} @{self.pid}")
        self._fetch_waiting[page] = fut
        needed = entry.needed_v or VClock.zero(self.n)
        req = PageFetchReq(page=page, requester=self.pid, needed_v=needed)
        self._pending_fetch_req[page] = req
        self._send(self.regions.home_of(page), req)
        reply: PageFetchReply = yield fut
        self._pending_fetch_req.pop(page, None)
        wait = self.engine.now - t0
        self.cpu.stats.add(TimeBucket.PAGE_WAIT, wait)
        if self.obs is not None:
            self.obs.fetch_wait.observe(wait)
            self.obs.fetch_lat.observe(wait)
        # install the page
        buf = self.page_bytes(page)
        buf[:] = np.frombuffer(reply.data, dtype=np.uint8)
        copy_cost = len(reply.data) * self.cpu.costs.twin_create_per_byte
        yield from self.cpu.charge(TimeBucket.OVERHEAD, copy_cost)
        entry.state = PageState.RO
        entry.needed_v = None
        self.have_v[page] = reply.version
        self.stats.page_fetches += 1
        self.stats.page_fetch_bytes += len(reply.data)

    def _ensure_home_ready(self, page: PageId, entry: PageEntry) -> Iterator[Any]:
        """Home access path: wait for in-flight diffs if a notice demands."""
        if self.replay is not None:
            yield from self.replay.replay_home_access(page, entry)
            return
        hp = self.home[page]
        needed = entry.needed_v
        if needed is not None and not hp.ready_for(needed):
            t0 = self.engine.now
            fut = Future(f"homewait p{page} @{self.pid}")
            self._home_waiting[page] = fut
            hp.wait_fetch(self.pid, needed, lambda: fut.resolve(None))
            yield fut
            self.cpu.stats.add(TimeBucket.PAGE_WAIT, self.engine.now - t0)
        entry.needed_v = None

    # ------------------------------------------------------------------
    # interval flush
    # ------------------------------------------------------------------
    def _end_interval(self) -> Iterator[Any]:
        """Flush dirty pages: create diffs + notices, send diffs to homes."""
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, []
        new_interval = self.vt[self.pid] + 1
        self.vt = self.vt.bump(self.pid)
        self.stats.intervals += 1
        for page in dirty:
            entry = self.entries[page]
            region = self.regions[page.region]
            is_home = self.is_home(page)
            if entry.twin is not None:
                cost = region.config.page_size * self.cpu.costs.diff_compute_per_byte
                bucket = TimeBucket.LOG_CKPT if is_home else TimeBucket.OVERHEAD
                yield from self.cpu.charge(bucket, cost)
                diff = compute_diff(entry.twin, self.page_bytes(page))
            else:
                diff = Diff(())
            entry.twin = None
            entry.dirty = False
            entry.state = PageState.RO
            notice = WriteNotice(self.pid, new_interval, page, self.vt)
            self.notices.add(notice)
            self.stats.notices_created += 1
            if not diff.empty:
                self.stats.diffs_created += 1
                self.stats.diff_bytes_created += diff.size_bytes
            yield from self.ft.on_interval_flush(page, diff, self.vt, is_home)
            if is_home:
                hp = self.home[page]
                hp.advance(self.pid, new_interval)
                self.have_v[page] = hp.version
                hp.service_pending()
            else:
                self.have_v[page] = self.have_v[page].with_component(
                    self.pid, new_interval
                )
                # diffs are sent even during recovery replay: the home
                # discards duplicates by version, and flushes past the
                # crash point must reach it (§4.3)
                self._send(
                    self.regions.home_of(page),
                    DiffMsg(
                        page=page,
                        writer=self.pid,
                        diff=diff,
                        diff_vt=self.vt,
                    ),
                )
                self.stats.diffs_sent += 1
                self.stats.diff_bytes_sent += diff.size_bytes

    # ------------------------------------------------------------------
    # application API — locks
    # ------------------------------------------------------------------
    def acquire(self, lock_id: int) -> Iterator[Any]:
        """Acquire a global lock (LRC acquire semantics)."""
        yield from self.cpu.drain_debt()
        yield from self._end_interval()
        seq = self._acq_seq.get(lock_id, 0) + 1
        self._acq_seq[lock_id] = seq
        if self.replay is not None:
            done = yield from self.replay.replay_acquire(lock_id, seq)
            if done:
                self.stats.lock_acquires += 1
                return
            # replay exhausted mid-acquire: fall through to a live acquire
        st = self.locks.token(lock_id)
        if st.has_token and st.successor is None and not st.held:
            # token is resting here and nobody was promised it
            grant = LockGrant(
                lock_id=lock_id,
                grantor=self.pid,
                rel_vt=st.rel_vt or VClock.zero(self.n),
                notices=[],
            )
            self._complete_acquire(lock_id, grant, local=True)
            self._record_self_grant(lock_id)
            return
        t0 = self.engine.now
        fut = Future(f"lock{lock_id} @{self.pid}")
        self._lock_waiting[lock_id] = fut
        req = LockAcquireReq(
            lock_id=lock_id, acquirer=self.pid, acq_vt=self.vt, seq=seq
        )
        self._pending_acquires[lock_id] = req
        manager = self.config.lock_manager(lock_id)
        if manager == self.pid:
            self._manager_handle_acquire(req)
        else:
            self._send(manager, req)
        grant: LockGrant = yield fut
        wait = self.engine.now - t0
        self.cpu.stats.add(TimeBucket.LOCK_WAIT, wait)
        if self.obs is not None:
            self.obs.lock_wait.observe(wait)
            self.obs.lock_lat.observe(wait)
        self._complete_acquire(lock_id, grant, local=False)
        yield from self.cpu.charge(
            TimeBucket.OVERHEAD,
            self.cpu.costs.message_handler
            + len(grant.notices) * 1e-6,
        )

    def _complete_acquire(self, lock_id: int, grant: LockGrant, local: bool) -> None:
        st = self.locks.token(lock_id)
        st.has_token = True
        st.held = True
        st.rel_vt = None
        self._pending_acquires.pop(lock_id, None)
        self._completed_seq[lock_id] = self._acq_seq.get(lock_id, 0)
        self.stats.notices_applied += self._apply_notices(grant.notices)
        # the acquire starts a new local interval (bump); this guarantees
        # every acquire has a unique, strictly increasing own-component,
        # which Rule 2 trimming and replay alignment rely on
        self.vt = self.vt.bump(self.pid).join(grant.rel_vt)
        self.stats.lock_acquires += 1
        if not local:
            self.ft.on_acquire_done(lock_id, grant.grantor, self.vt)

    def release(self, lock_id: int) -> Iterator[Any]:
        """Release a lock: flush the interval, then pass the token if owed."""
        yield from self.cpu.drain_debt()
        st = self.locks.token(lock_id)
        if not st.held:
            raise RuntimeError(f"process {self.pid} releasing unheld lock {lock_id}")
        yield from self._end_interval()
        st.held = False
        st.rel_vt = self.vt
        if self.replay is None and st.successor is not None:
            acquirer, acq_vt, seq = st.successor
            st.successor = None
            self._grant_to(lock_id, acquirer, acq_vt, seq)
        yield from self.ft.at_sync_point()

    def _grant_to(
        self, lock_id: int, acquirer: int, acq_vt: VClock, seq: int = 0
    ) -> None:
        st = self.locks.token(lock_id)
        assert st.has_token and not st.held
        st.granted[acquirer] = max(st.granted.get(acquirer, -1), seq)
        rel_vt = st.rel_vt or VClock.zero(self.n)
        notices = self.notices.between(acq_vt, rel_vt)
        # exclude the acquirer's own notices; it has its own writes
        notices = [wn for wn in notices if wn.creator != acquirer]
        grant = LockGrant(
            lock_id=lock_id, grantor=self.pid, rel_vt=rel_vt, notices=notices,
            seq=seq,
        )
        if acquirer == self.pid:
            # forwarded-to-self: the token never leaves; complete locally
            fut = self._lock_waiting.pop(lock_id, None)
            if fut is not None:
                fut.resolve(grant)
                self.engine.call_soon(lambda: self._record_self_grant(lock_id))
            return
        st.has_token = False
        # mirror the acquirer's post-acquire vt (including its bump)
        acq_t = acq_vt.bump(acquirer).join(rel_vt)
        self.ft.on_grant(lock_id, acquirer, acq_t)
        self._send(acquirer, grant)
        # tell the manager where the token went (recovery bookkeeping)
        manager = self.config.lock_manager(lock_id)
        info = GrantInfo(lock_id=lock_id, grantor=self.pid, grantee=acquirer)
        if manager == self.pid:
            self.locks.manager(lock_id).grant_observed(acquirer)
            self.ft.on_owner_observed(lock_id, acquirer)
        else:
            self._send(manager, info)

    def _record_self_grant(self, lock_id: int) -> None:
        """Mirror a completed local (self) acquire on a *distinct* node.

        Normally the mirror lives at the lock manager; when this process
        manages the lock itself, the mirror goes to a buddy process so
        that it survives a crash here.
        """
        acq_t = self.vt
        self.ft.on_self_grant(lock_id, acq_t)
        manager = self.config.lock_manager(lock_id)
        if manager == self.pid:
            self.locks.manager(lock_id).log_self_grant(self.pid, acq_t)
            if self.n > 1:
                buddy = (self.pid + 1) % self.n
                self._send(
                    buddy,
                    GrantInfo(
                        lock_id=lock_id,
                        grantor=self.pid,
                        grantee=self.pid,
                        acq_t=acq_t,
                    ),
                )
        else:
            self._send(
                manager,
                GrantInfo(
                    lock_id=lock_id,
                    grantor=self.pid,
                    grantee=self.pid,
                    acq_t=acq_t,
                ),
            )

    # ------------------------------------------------------------------
    # application API — barrier
    # ------------------------------------------------------------------
    def barrier(self) -> Iterator[Any]:
        """Global barrier over all processes."""
        yield from self.cpu.drain_debt()
        yield from self.ft.at_sync_point(at_barrier=True)
        yield from self._end_interval()
        episode = self.barrier_episode
        if self.replay is not None:
            done = yield from self.replay.replay_barrier(episode)
            if done:
                self.barrier_episode += 1
                self.stats.barriers += 1
                return
        if (
            self._stashed_release is not None
            and self._stashed_release.episode == episode
        ):
            # the release for this episode already arrived (it answered a
            # pre-crash arrival, delivered during the post-recovery drain)
            release = self._stashed_release
            self._stashed_release = None
            self._complete_barrier(release)
            yield from self.cpu.charge(
                TimeBucket.OVERHEAD,
                self.cpu.costs.message_handler + len(release.notices) * 1e-6,
            )
            return
        own = self.notices.own_after(self.pid, self.last_barrier_global[self.pid])
        arrive = BarrierArrive(
            episode=episode, proc=self.pid, vt=self.vt, notices=own
        )
        t0 = self.engine.now
        fut = Future(f"barrier{episode} @{self.pid}")
        self._barrier_future = fut
        self._pending_arrive = arrive
        mgr = self.config.barrier_manager
        if mgr == self.pid:
            self._manager_handle_arrive(arrive)
        else:
            self._send(mgr, arrive)
        release: BarrierRelease = yield fut
        self._pending_arrive = None
        wait = self.engine.now - t0
        self.cpu.stats.add(TimeBucket.BARRIER_WAIT, wait)
        if self.obs is not None:
            self.obs.barrier_wait.observe(wait)
            self.obs.barrier_lat.observe(wait)
        self._complete_barrier(release)
        yield from self.cpu.charge(
            TimeBucket.OVERHEAD,
            self.cpu.costs.message_handler + len(release.notices) * 1e-6,
        )

    def _complete_barrier(self, release: BarrierRelease) -> None:
        self.stats.notices_applied += self._apply_notices(release.notices)
        self.vt = self.vt.join(release.global_vt)
        self.last_barrier_global = release.global_vt
        self.barrier_episode += 1
        self.stats.barriers += 1
        self.ft.on_barrier_done(release.episode, release.global_vt)
        if self.obs is not None:
            self.obs.on_barrier(release.episode)

    # ------------------------------------------------------------------
    # invalidations
    # ------------------------------------------------------------------
    def _apply_notices(self, notices: List[WriteNotice]) -> int:
        """Record a batch of write notices and invalidate the pages they cover.

        One bulk insert, then one visit per page: the page's new notices
        fold into one ``needed_v`` update and its state flips at most
        once. ``needed_v`` accumulates *write intervals* per creator (home
        versions advance only as diffs are applied, so full causal
        timestamps would demand versions that never materialize). The
        fold keeps the order rule of one-at-a-time application (DESIGN.md
        §10): while ``needed_v`` is covered by ``have_v``, a notice whose
        write the local copy already has is dropped for good. Returns the
        number of new notices.
        """
        new = self.notices.add_all(notices, self.pid)
        by_page: Dict[PageId, List[WriteNotice]] = {}
        for wn in new:
            group = by_page.get(wn.page)
            if group is None:
                by_page[wn.page] = [wn]
            else:
                group.append(wn)
        zero = VClock.zero(self.n)
        for page, group in by_page.items():
            entry = self.entries[page]
            have = self.have_v[page]
            needed = entry.needed_v
            start = 0
            if needed is None or needed.leq(have):
                for start, wn in enumerate(group):
                    if wn.interval > have[wn.creator]:
                        break
                else:
                    continue
            top: Dict[int, int] = {}
            for wn in group[start:]:
                if wn.interval > top.get(wn.creator, 0):
                    top[wn.creator] = wn.interval
            raised = (needed or zero).join_sparse(top)
            if raised is needed:
                continue
            entry.needed_v = raised
            if not self.is_home(page):
                if entry.dirty:
                    raise RuntimeError(
                        f"invalidation hit dirty page {page} at {self.pid}; "
                        "intervals must be flushed before applying notices"
                    )
                entry.state = PageState.INVALID
        return len(new)

    # ------------------------------------------------------------------
    # message handling (instantaneous; CPU cost becomes handler debt)
    # ------------------------------------------------------------------
    def handle_message(self, src: int, msg: Message) -> None:
        if msg.piggyback is not None:
            self.ft.on_piggyback(src, msg.piggyback)
        self.cpu.accrue_handler(self.cpu.costs.message_handler)
        if self.ft.handle_ft_message(src, msg):
            return
        self.ft.record_if_channel_state(src, msg)
        if isinstance(msg, LockAcquireReq):
            self._manager_handle_acquire(msg)
        elif isinstance(msg, GrantInfo):
            if msg.acq_t is not None and not self.locks.manages(msg.lock_id):
                # buddy copy of a manager's own self-grant
                self.ft.on_buddy_self_grant(msg.grantor, msg.lock_id, msg.acq_t)
            else:
                mgr = self.locks.manager(msg.lock_id)
                if msg.acq_t is not None:
                    mgr.log_self_grant(msg.grantor, msg.acq_t)
                    self.ft.on_mirror_self_grant(msg.grantor, msg.lock_id, msg.acq_t)
                else:
                    mgr.grant_observed(msg.grantee)
                    self.ft.on_owner_observed(msg.lock_id, msg.grantee)
        elif isinstance(msg, LockForward):
            self._handle_forward(msg)
        elif isinstance(msg, LockGrant):
            self._handle_grant(msg)
        elif isinstance(msg, DiffMsg):
            self._handle_diff(src, msg)
        elif isinstance(msg, PageFetchReq):
            self._handle_fetch_req(msg)
        elif isinstance(msg, PageFetchReply):
            self._handle_fetch_reply(msg)
        elif isinstance(msg, BarrierArrive):
            self._manager_handle_arrive(msg)
        elif isinstance(msg, BarrierRelease):
            self._handle_barrier_release(msg)
        else:
            raise RuntimeError(f"process {self.pid}: unknown message {msg!r}")

    # -- locks --------------------------------------------------------------
    def _manager_handle_acquire(self, req: LockAcquireReq) -> None:
        mgr = self.locks.manager(req.lock_id)
        if mgr.is_duplicate(req.acquirer, req.seq):
            return
        if mgr.in_chain_at_or_after_owner(req.acquirer):
            # re-sent request already queued in the live chain
            return
        prev = mgr.append(req.acquirer, req.seq)
        fwd = LockForward(
            lock_id=req.lock_id, acquirer=req.acquirer, acq_vt=req.acq_vt, seq=req.seq
        )
        if prev == self.pid:
            self._handle_forward(fwd)
        else:
            self._send(prev, fwd)

    def _handle_forward(self, fwd: LockForward) -> None:
        st = self.locks.token(fwd.lock_id)
        if fwd.seq <= st.granted.get(fwd.acquirer, -1):
            return  # re-issued forward for a grant that already went out
        if st.has_token and not st.held and st.successor is None:
            self._grant_to(fwd.lock_id, fwd.acquirer, fwd.acq_vt, fwd.seq)
        else:
            if st.successor is not None:
                if st.successor[0] == fwd.acquirer:
                    return  # repair-forward duplicate after a recovery
                raise RuntimeError(
                    f"lock {fwd.lock_id}: two successors at {self.pid} "
                    "(manager must serialize the chain)"
                )
            st.successor = (fwd.acquirer, fwd.acq_vt, fwd.seq)

    def _handle_grant(self, grant: LockGrant) -> None:
        if grant.seq and grant.seq <= self._completed_seq.get(grant.lock_id, 0):
            # grant for an acquire that recovery replay already accounted
            # for. Usually a duplicate of a transfer whose effect the
            # live-switch placement already reflects — but if this exact
            # grant was parked in our queue while we were down AND the
            # placement says the token is elsewhere, the report it used
            # was stale (the grantor moved the token *after* answering
            # our handshake): a dead process cannot grant onward, so a
            # queued grant matching our last completed acquire IS the
            # token, physically. Accept it only when nothing here has
            # touched the token since the live switch — if placement
            # already materialized it and a drained forward passed it on
            # (``granted`` non-empty, rebuilt fresh at recovery), this
            # copy is spent; likewise for older transfers (seq strictly
            # below) and a token we still hold.
            st = self.locks.token(grant.lock_id)
            if (
                grant.seq == self._completed_seq.get(grant.lock_id, 0)
                and not st.has_token
                and not st.granted
            ):
                st.has_token = True
                st.held = False
                if st.rel_vt is None:
                    st.rel_vt = grant.rel_vt
                if st.successor is not None:
                    # a repair forward raced ahead of this acceptance and
                    # parked the next waiter here; serve it now
                    acquirer, acq_vt, seq = st.successor
                    st.successor = None
                    self._grant_to(grant.lock_id, acquirer, acq_vt, seq)
            return
        fut = self._lock_waiting.pop(grant.lock_id, None)
        if fut is not None:
            fut.resolve(grant)
            return
        # grant addressed to a pre-crash request whose acquire has not
        # yet been re-reached: accept the token so the retried acquire's
        # fast path finds it
        st = self.locks.token(grant.lock_id)
        if not st.has_token:
            st.has_token = True
            st.held = False
            if st.rel_vt is None:
                st.rel_vt = grant.rel_vt

    # -- home / pages ------------------------------------------------------
    def _handle_diff(self, src: int, msg: DiffMsg) -> None:
        hp = self.home[msg.page]
        interval = msg.diff_vt[msg.writer]
        if hp.is_duplicate(msg.writer, interval):
            return
        apply_diff(self.page_bytes(msg.page), msg.diff)
        self.cpu.accrue_handler(
            msg.diff.payload_bytes * self.cpu.costs.diff_apply_per_byte
        )
        hp.advance(msg.writer, interval)
        hp.applied_bytes += msg.diff.size_bytes
        self.have_v[msg.page] = self.have_v[msg.page].join(hp.version)
        self.ft.on_diff_received(msg.page, msg.writer, msg.diff_vt)
        hp.service_pending()

    def page_snapshot(self, page: PageId, hp: Optional["HomePage"] = None) -> bytes:
        """Immutable snapshot of a homed page's current contents.

        Fetch replies and checkpoints share one cached ``bytes`` object
        per (page, version): the payload travels by reference and is
        copied only on install. The cache is keyed by version-object
        *identity* — the home replaces the version whenever the contents
        legally change — and bypassed while the page is dirty or the
        process is replaying, when bytes can move under an unchanged
        version.
        """
        if hp is None:
            hp = self.home[page]
        if self.entries[page].dirty or self.replay is not None:
            return self.page_bytes(page).tobytes()
        version = hp.version
        if hp.snap_version is not version:
            hp.snap = self.page_bytes(page).tobytes()
            hp.snap_version = version
        return hp.snap

    def _handle_fetch_req(self, req: PageFetchReq) -> None:
        hp = self.home[req.page]

        def reply() -> None:
            data = self.page_snapshot(req.page, hp)
            self.cpu.accrue_handler(
                len(data) * self.cpu.costs.twin_create_per_byte
            )
            self._send(
                req.requester,
                PageFetchReply(page=req.page, data=data, version=hp.version),
            )

        if hp.ready_for(req.needed_v):
            reply()
        else:
            hp.wait_fetch(req.requester, req.needed_v, reply)

    def _handle_fetch_reply(self, reply: PageFetchReply) -> None:
        fut = self._fetch_waiting.pop(reply.page, None)
        if fut is not None:
            fut.resolve(reply)
        # else: stale reply to a pre-crash fetch; drop

    # -- barrier -------------------------------------------------------------
    def _manager_handle_arrive(self, arrive: BarrierArrive) -> None:
        mgr = self.barrier_mgr
        if mgr is None:
            raise RuntimeError(f"process {self.pid} is not the barrier manager")
        if arrive.episode < mgr.next_episode:
            return  # duplicate arrival re-sent after recovery
        if mgr.current is not None and arrive.proc in mgr.current.arrived:
            return
        done = mgr.arrive(arrive.proc, arrive.episode, arrive.vt, arrive.notices)
        if done is None:
            return
        global_vt = done.global_vt()
        self.cpu.accrue_handler(
            self.cpu.costs.message_handler * self.n
            + len(done.notices) * 0.5e-6
        )
        # per-proc missing-notice filter: an O(procs × notices) scan. At
        # wide cluster sizes the scan runs vectorized (same selection,
        # same order); small clusters keep the plain loop.
        notices = done.notices
        vectorize = self.n >= VClock.ARRAY_WIDTH and notices
        if vectorize:
            wn_creator = np.fromiter(
                (wn.creator for wn in notices), np.int64, len(notices)
            )
            wn_interval = np.fromiter(
                (wn.interval for wn in notices), np.int64, len(notices)
            )
        for proc, vt in done.arrived.items():
            if vectorize:
                keep = (wn_creator != proc) & (
                    wn_interval > vt.as_array()[wn_creator]
                )
                missing = [notices[k] for k in np.flatnonzero(keep).tolist()]
            else:
                missing = [
                    wn
                    for wn in notices
                    if wn.creator != proc and wn.interval > vt[wn.creator]
                ]
            release = BarrierRelease(
                episode=done.episode, global_vt=global_vt, notices=missing
            )
            if proc == self.pid:
                self._handle_barrier_release(release)
            else:
                self._send(proc, release)

    def _handle_barrier_release(self, release: BarrierRelease) -> None:
        if release.episode != self.barrier_episode:
            return  # duplicate release for an episode replay already covered
        fut = self._barrier_future
        self._barrier_future = None
        if fut is not None:
            fut.resolve(release)
        else:
            # not waiting yet: the release answers a pre-crash arrival;
            # keep it for the re-executed barrier call
            self._stashed_release = release

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------
    def resend_pending(self, recovered: int) -> None:
        """Re-issue requests the failed process may have consumed.

        Called when a :class:`RecoveryDone` for ``recovered`` arrives. All
        re-sent requests are idempotent: the lock manager dedupes by
        sequence number, fetches are naturally idempotent, and the barrier
        manager drops duplicate arrivals.
        """
        for lock_id, req in list(self._pending_acquires.items()):
            manager = self.config.lock_manager(lock_id)
            if manager == self.pid:
                self._manager_handle_acquire(req)
            else:
                self._send(manager, req)
        for page, req in list(self._pending_fetch_req.items()):
            if self.regions.home_of(page) == recovered:
                self._send(recovered, req)
        if self._pending_arrive is not None:
            mgr = self.config.barrier_manager
            if mgr == self.pid:
                self._manager_handle_arrive(self._pending_arrive)
            elif mgr == recovered:
                self._send(mgr, self._pending_arrive)

    def repair_forwards_for(self, recovered: int) -> None:
        """Manager-side repair: re-issue forwards lost in a crash.

        For every managed lock whose token rests at ``recovered`` and that
        has a waiter after it in the chain, re-send the forward — the
        original may have been consumed by the failed incarnation.
        """
        for lock_id in self.locks.managed_locks():
            mgr = self.locks.manager(lock_id)
            if not mgr.in_chain_at_or_after_owner(recovered):
                continue
            nxt = mgr.waiter_after(recovered)
            if nxt is None:
                continue
            fwd = LockForward(
                lock_id=lock_id,
                acquirer=nxt.acquirer,
                acq_vt=VClock.zero(self.n),
                seq=nxt.seq,
            )
            if recovered == self.pid:
                self._handle_forward(fwd)
            else:
                self._send(recovered, fwd)

    # ------------------------------------------------------------------
    # send plumbing
    # ------------------------------------------------------------------
    def _send(self, dst: int, msg: Message) -> None:
        if dst == self.pid:
            raise RuntimeError("local sends must be handled locally")
        pb = self.ft.piggyback_for(dst)
        if pb is not None:
            msg.piggyback = pb
        self._send_raw(self.pid, dst, msg)
