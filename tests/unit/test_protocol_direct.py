"""Direct unit tests of the protocol engine (no cluster/app layers).

A minimal harness wires ``DsmProcess`` instances to an engine+network and
drives hand-written coroutines, pinning down handler-level behaviour that
the integration tests only exercise indirectly.
"""

import numpy as np
import pytest

from repro.dsm.config import DsmConfig
from repro.dsm.diff import Diff
from repro.dsm.messages import DiffMsg, PageFetchReply
from repro.dsm.pages import PageId, PageState, RegionSet
from repro.dsm.protocol import DsmProcess
from repro.dsm.vclock import VClock
from repro.sim.engine import Engine
from repro.sim.network import Network


class Harness:
    def __init__(self, n=2, elements=64, page_size=64):
        self.config = DsmConfig(num_procs=n, page_size=page_size)
        self.engine = Engine()
        self.network = Network(self.engine, n)
        self.regions = RegionSet(self.config)
        self.region = self.regions.allocate("r", elements)
        self.regions.seal()
        self.procs = [
            DsmProcess(
                pid=i,
                config=self.config,
                regions=self.regions,
                engine=self.engine,
                send_fn=lambda s, d, m: self.network.send(
                    s, d, m, m.size_bytes(self.config), m.category,
                    m.ft_bytes(self.config),
                ),
            )
            for i in range(n)
        ]
        for p in self.procs:
            self.network.register(p.pid, p.handle_message)

    def run(self, *gens):
        handles = [self.engine.spawn(g) for g in gens]
        self.engine.run_until_done(handles)
        self.engine.run()  # drain in-flight deliveries
        return handles


def test_write_flush_propagates_to_home():
    h = Harness(n=2, elements=64, page_size=64)  # 8 pages, homes alternate
    p0, p1 = h.procs
    # page 1 is homed at p1; p0 writes it and flushes via a release
    def writer():
        yield from p0.acquire(0)
        v = yield from p0.write_range(h.region, 8, 10)  # elements 8,9 -> page 1
        v[:] = [3.0, 4.0]
        yield from p0.release(0)

    h.run(writer())
    home_view = p1.typed_view(h.region)
    assert home_view[8] == 3.0 and home_view[9] == 4.0
    # the flush interval (acquire bump + flush bump = 2) is recorded
    assert p1.home[PageId(0, 1)].version[0] == 2


def test_fetch_waits_for_required_version():
    """A fetch demanding a version the home lacks must block until the
    diff arrives, then return fresh content."""
    h = Harness(n=2, elements=8, page_size=64)  # single page, home p0
    p0, p1 = h.procs
    page = PageId(0, 0)
    seen = []

    def reader():
        entry = p1.entries[page]
        entry.state = PageState.INVALID
        entry.needed_v = VClock((5, 0))  # p0's interval 5
        v = yield from p1.read_range(h.region, 0, 1)
        seen.append(float(v[0]))

    def late_writer():
        yield from p0.compute(1e-3)  # let the fetch arrive and block
        yield from p0.acquire(0)
        v = yield from p0.write_range(h.region, 0, 1)
        v[0] = 42.0
        yield from p0.release(0)
        # interval is far below 5; bump the version artificially to
        # release the pending fetch
        hp = p0.home[page]
        hp.advance(0, 5)
        hp.service_pending()

    h.run(reader(), late_writer())
    assert seen == [42.0]


def test_home_dedupes_replayed_diffs():
    h = Harness(n=2, elements=8, page_size=64)
    p0, _p1 = h.procs
    page = PageId(0, 0)
    d = Diff(((0, np.float64(7.0).tobytes()),))
    msg = DiffMsg(page=page, writer=1, diff=d, diff_vt=VClock((0, 3)))
    p0._handle_diff(1, msg)
    assert p0.typed_view(h.region)[0] == 7.0
    assert p0.home[page].version[1] == 3
    # overwrite locally, then replay the same-interval diff: ignored
    p0.typed_view(h.region)[0] = 9.0
    p0._handle_diff(1, msg)
    assert p0.typed_view(h.region)[0] == 9.0


def test_stale_fetch_reply_dropped():
    h = Harness(n=2)
    p1 = h.procs[1]
    reply = PageFetchReply(
        page=PageId(0, 0), data=b"\x00" * 64, version=VClock((0, 0))
    )
    # no pending fetch: must not crash nor corrupt anything
    p1._handle_fetch_reply(reply)


def test_grant_carries_only_window_notices():
    """The grantor sends exactly the notices in (acq_vt, rel_vt]."""
    h = Harness(n=2, elements=64, page_size=64)
    p0, p1 = h.procs
    grants = []

    orig = p1._complete_acquire

    def spy(lock_id, grant, local):
        grants.append(grant)
        orig(lock_id, grant, local)

    p1._complete_acquire = spy

    def writer():
        for k in range(3):
            yield from p0.acquire(0)
            v = yield from p0.write_range(h.region, k, k + 1)
            v[0] = k + 1.0
            yield from p0.release(0)

    def acquirer():
        yield from p1.compute(5e-3)  # after all three writer intervals
        yield from p1.acquire(0)
        yield from p1.release(0)
        yield from p1.compute(1e-3)
        yield from p1.acquire(0)  # nothing new happened: no new notices
        yield from p1.release(0)

    h.run(writer(), acquirer())
    first, second = grants[0], grants[1]
    assert len(first.notices) >= 1  # all of p0's notices, unseen so far
    assert len(second.notices) == 0  # window is empty the second time


def test_self_grant_logged_at_manager():
    h = Harness(n=2)
    p0 = h.procs[0]  # manager of lock 0

    def body():
        yield from p0.acquire(0)
        v = yield from p0.write_range(h.region, 0, 1)
        v[0] = 1.0
        yield from p0.release(0)
        yield from p0.acquire(0)  # fast path: self grant
        yield from p0.release(0)

    h.run(body())
    mgr = p0.locks.manager(0)
    assert len(mgr.self_grants.get(0, [])) == 2  # both local acquires


def test_acquire_bumps_own_component():
    h = Harness(n=2)
    p1 = h.procs[1]
    before = []

    def body():
        before.append(p1.vt[1])
        yield from p1.acquire(0)
        before.append(p1.vt[1])
        yield from p1.release(0)

    h.run(body())
    assert before[1] == before[0] + 1


def test_notice_skipped_when_copy_fresh():
    h = Harness(n=2, elements=8, page_size=64)
    p1 = h.procs[1]
    page = PageId(0, 0)
    p1.entries[page].state = PageState.RO
    p1.have_v[page] = VClock((4, 0))
    from repro.dsm.messages import WriteNotice

    wn = WriteNotice(0, 3, page, VClock((3, 0)))
    p1._apply_notices([wn])
    # the local copy already includes interval 3: stays valid
    assert p1.entries[page].state is PageState.RO
    wn2 = WriteNotice(0, 5, page, VClock((5, 0)))
    p1._apply_notices([wn2])
    assert p1.entries[page].state is PageState.INVALID
    assert p1.entries[page].needed_v[0] == 5


def test_dirty_page_invalidation_is_protocol_error():
    h = Harness(n=2, elements=8, page_size=64)
    p1 = h.procs[1]
    page = PageId(0, 0)
    entry = p1.entries[page]
    entry.state = PageState.RW
    entry.dirty = True
    from repro.dsm.messages import WriteNotice

    with pytest.raises(RuntimeError, match="dirty"):
        p1._apply_notices([WriteNotice(0, 9, page, VClock((9, 0)))])
