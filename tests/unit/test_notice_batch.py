"""Batched write-notice application against the per-notice reference.

``DsmProcess._apply_notices`` inserts a whole barrier release or lock
grant into the notice table at once and visits each page once. The
reference below applies the same notices one at a time; both must
leave identical ``needed_v`` values (they go into fetch requests), page
states, fresh counts and notice tables, at tuple-clock and array-clock
widths alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.config import DsmConfig
from repro.dsm.messages import WriteNotice
from repro.dsm.pages import PageId, PageState, RegionSet
from repro.dsm.protocol import DsmProcess
from repro.dsm.vclock import VClock
from repro.sim.engine import Engine

NUM_PAGES = 8


def note_invalidation(proc: DsmProcess, wn: WriteNotice) -> None:
    """Reference: invalidate for one notice already new to the table."""
    entry = proc.entries[wn.page]
    base = entry.needed_v or VClock.zero(proc.n)
    if wn.interval <= base[wn.creator]:
        return
    needed = base.with_component(wn.creator, wn.interval)
    if needed.leq(proc.have_v[wn.page]):
        return  # local copy already incorporates these writes
    entry.needed_v = needed
    if not proc.is_home(wn.page):
        if entry.dirty:
            raise RuntimeError(f"invalidation hit dirty page {wn.page}")
        entry.state = PageState.INVALID


def apply_one_by_one(proc: DsmProcess, notices) -> int:
    """Reference for ``_apply_notices``: returns the fresh count."""
    fresh = 0
    for wn in notices:
        if wn.creator == proc.pid or not proc.notices.add(wn):
            continue
        fresh += 1
        note_invalidation(proc, wn)
    return fresh


def make_proc(n: int, pid: int) -> DsmProcess:
    config = DsmConfig(num_procs=n, page_size=64)
    regions = RegionSet(config)
    regions.allocate("r", NUM_PAGES * 8)  # 8 float64 per page, homes round-robin
    regions.seal()
    return DsmProcess(
        pid=pid, config=config, regions=regions, engine=Engine(),
        send_fn=lambda src, dst, msg: None,
    )


def page(i: int) -> PageId:
    return PageId(0, i)


def notice(n: int, creator: int, interval: int, index: int) -> WriteNotice:
    vt = VClock.zero(n).with_component(creator, interval)
    return WriteNotice(creator, interval, page(index), vt)


def sparse(n: int, comps) -> VClock:
    v = [0] * n
    for c, x in comps:
        v[c] = max(v[c], x)
    return VClock(v)


def snapshot(proc: DsmProcess):
    entries = [proc.entries[page(i)] for i in range(NUM_PAGES)]
    high = VClock([10**6] * proc.n)
    fields = lambda ns: [(w.creator, w.interval, w.page) for w in ns]
    return (
        [None if e.needed_v is None else e.needed_v.v for e in entries],
        [e.state for e in entries],
        fields(proc.notices.all_notices()),
        fields(proc.notices.between(VClock.zero(proc.n), high)),
        [fields(proc.notices.own_after(c, 2)) for c in range(proc.n)],
    )


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from([4, 16, 64]))
    pid = draw(st.sampled_from([0, 1, 3]))
    # few creators, few intervals: duplicates, own notices and
    # out-of-order intervals all come up often
    creators = st.sampled_from(sorted({pid, 0, 1, 2, n - 1}))
    comps = st.lists(st.tuples(creators, st.integers(0, 6)), max_size=3)
    pages = [
        (
            draw(st.none() | comps),  # pre-set needed_v
            draw(comps),  # have_v
            draw(st.sampled_from([PageState.INVALID, PageState.RO])),
        )
        for _ in range(NUM_PAGES)
    ]
    batch = st.lists(
        st.tuples(creators, st.integers(1, 8), st.integers(0, NUM_PAGES - 1)),
        max_size=30,
    )
    batches = draw(st.lists(batch, min_size=1, max_size=3))
    return n, pid, pages, batches


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_batched_matches_per_notice_reference(scenario):
    n, pid, pages, batches = scenario
    procs = [make_proc(n, pid) for _ in range(2)]
    for proc in procs:
        for i, (needed, have, state) in enumerate(pages):
            entry = proc.entries[page(i)]
            entry.needed_v = None if needed is None else sparse(n, needed)
            proc.have_v[page(i)] = sparse(n, have)
            if not proc.is_home(page(i)):
                entry.state = state
    batched, reference = procs
    assert any(batched.is_home(page(i)) for i in range(NUM_PAGES))
    for spec in batches:
        notices = [notice(n, c, i, p) for c, i, p in spec]
        fresh = batched._apply_notices(notices)
        assert fresh == apply_one_by_one(reference, notices)
        assert snapshot(batched) == snapshot(reference)


def test_order_rule_drops_covered_notice_before_first_commit():
    """A notice the local copy already covers is dropped for good, even
    if a later notice in the same batch commits; once one commits, every
    later notice that raises a component counts, covered or not."""
    batch = [
        notice(4, 1, 2, 1),  # covered by have_v[1] = 3: dropped
        notice(4, 2, 1, 1),  # not covered: commits
        notice(4, 1, 1, 1),  # covered, but after the commit: raises
    ]
    procs = [make_proc(4, pid=0) for _ in range(2)]
    p = page(1)  # homed at process 1
    for proc in procs:
        proc.entries[p].state = PageState.RO
        proc.have_v[p] = VClock((0, 3, 0, 0))
    batched, reference = procs
    assert batched._apply_notices(batch) == 3
    # a componentwise max over the batch would give (0, 2, 1, 0)
    assert batched.entries[p].needed_v == VClock((0, 1, 1, 0))
    assert batched.entries[p].state is PageState.INVALID
    apply_one_by_one(reference, batch)
    assert reference.entries[p].needed_v == batched.entries[p].needed_v


def test_covered_batch_leaves_page_valid():
    proc = make_proc(16, pid=0)
    p = page(1)
    proc.entries[p].state = PageState.RO
    proc.have_v[p] = sparse(16, [(1, 5), (2, 5)])
    assert proc._apply_notices([notice(16, 1, 4, 1), notice(16, 2, 5, 1)]) == 2
    assert proc.entries[p].needed_v is None
    assert proc.entries[p].state is PageState.RO
