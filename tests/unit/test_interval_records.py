"""Interval records against the nested-dict reference table.

``NoticeTable`` stores each (creator, interval) as one shared tuple and
keeps two scalar bounds per creator. ``NestedNoticeTable`` (the table it
replaced) keeps per-creator interval lists and per-interval page dicts.
Fed the same notices, the two must agree on every query, down to which
notice object each one returns.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.interval import NoticeTable, records_of
from repro.dsm.messages import WriteNotice
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock
from tests.unit.nested_notice_table import NestedNoticeTable

MAX_INTERVAL = 6
PAGES = 5


def writer_prefixes(n, c, i, pages):
    """The writer's record after each flushed page, grown by replacement
    the way ``DsmProcess._end_interval`` grows it."""
    vt = VClock.zero(n).with_component(c, i)
    rec, out = (), []
    for p in pages:
        rec = rec + (WriteNotice(c, i, PageId(0, p), vt),)
        out.append(rec)
    return out


def copy_of(rec, kind):
    if kind == "shared":  # the sender's object, by reference
        return rec
    if kind == "copy":  # same notices, another tuple
        return tuple(rec)
    if kind == "recreated":  # equal notices, new objects (a re-execution)
        return tuple(WriteNotice(w.creator, w.interval, w.page, w.vt) for w in rec)
    return rec[::-1]  # "reversed": the same pages in another order


def same(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def flat(records):
    return [wn for rec in records for wn in rec]


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from([4, 16, 64]))
    creators = [0, 1, n - 1]
    item = st.tuples(
        st.sampled_from(creators),
        st.integers(1, MAX_INTERVAL),  # drawn unsorted: out-of-order intervals
        st.integers(1, PAGES),  # prefix length: partial, then longer copies
        st.sampled_from(["shared", "shared", "copy", "recreated", "reversed"]),
    )
    batch = st.tuples(
        st.lists(item, max_size=12), st.sampled_from([-1, *creators])
    )
    trim = st.none() | st.tuples(
        st.sampled_from(creators), st.integers(0, MAX_INTERVAL + 2)
    )
    steps = draw(st.lists(st.tuples(batch, trim), min_size=1, max_size=3))
    keys = {(c, i) for (items, _), _ in steps for c, i, _, _ in items}
    orders = {
        key: draw(st.permutations(range(PAGES))) for key in sorted(keys)
    }
    bound = st.lists(st.integers(0, MAX_INTERVAL + 1), min_size=n, max_size=n)
    window = (draw(bound), draw(bound))
    after = draw(st.integers(0, MAX_INTERVAL))
    return n, creators, steps, orders, window, after


def assert_agree(table, ref, creators, window, after):
    assert table.count() == ref.count()
    assert same(table.all_notices(), ref.all_notices())
    low, high = VClock(window[0]), VClock(window[1])
    assert same(flat(table.between(low, high)), ref.between(low, high))
    for c in creators:
        assert same(flat(table.own_after(c, after)), ref.own_after(c, after))


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_records_match_nested_reference(scenario):
    n, creators, steps, orders, window, after = scenario
    prefixes = {
        key: writer_prefixes(n, *key, pages) for key, pages in orders.items()
    }
    table, ref = NoticeTable(n), NestedNoticeTable(n)
    for (items, skip), trim in steps:
        records = [
            copy_of(prefixes[c, i][cut - 1], kind) for c, i, cut, kind in items
        ]
        new = table.add_all(records, skip_creator=skip)
        assert same(new, ref.add_all(flat(records), skip_creator=skip))
        assert_agree(table, ref, creators, window, after)
        if trim is not None:
            assert table.trim_creator_before(*trim) == ref.trim_creator_before(*trim)
            assert_agree(table, ref, creators, window, after)


def test_receiver_stores_the_senders_record():
    rec = writer_prefixes(4, 1, 3, [0, 2])[-1]
    table = NoticeTable(4)
    assert table.add_all([rec]) == list(rec)
    assert table.own_after(1, 0)[0] is rec
    assert table.between(VClock.zero(4), VClock((0, 3, 0, 0)))[0] is rec


def test_flush_grows_the_record_by_replacement():
    """A message sent mid-flush keeps only the pages flushed so far."""
    a, b, c = (w for w in writer_prefixes(4, 2, 1, [4, 1, 3])[-1])
    writer = NoticeTable(4)
    writer.add(a)
    sent = writer.own_after(2, 0)[0]
    writer.add(b)
    writer.add(c)
    assert sent == (a,)
    assert writer.own_after(2, 0) == [(a, b, c)]
    # a receiver holding the partial copy adds only the later pages, in order
    receiver = NoticeTable(4)
    receiver.add_all([sent])
    assert receiver.add_all(writer.own_after(2, 0)) == [b, c]
    assert receiver.own_after(2, 0) == [(a, b, c)]
    assert receiver.count() == 3


def test_add_after_trimming_past_every_held_interval():
    """A trim may leave a creator's low bound above its high bound; an
    interval added between the two must still be found."""
    table, ref = NoticeTable(4), NestedNoticeTable(4)
    for i in (2, 5):
        rec = writer_prefixes(4, 1, i, [0])[-1]
        table.add_all([rec])
        ref.add_all(rec)
        if i == 2:
            assert table.trim_creator_before(1, 8) == ref.trim_creator_before(1, 8)
    assert same(flat(table.own_after(1, 0)), ref.own_after(1, 0))
    assert table.trim_creator_before(1, 9) == ref.trim_creator_before(1, 9) == 1


def test_records_of_groups_runs_and_drops_repeated_pages():
    w = writer_prefixes(4, 0, 1, [0, 1])[-1] + writer_prefixes(4, 3, 2, [0])[-1]
    assert records_of([w[0], w[1], w[0], w[2], w[0]]) == [
        (w[0], w[1]), (w[2],), (w[0],)
    ]
