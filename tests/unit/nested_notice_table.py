"""Reference write-notice table for the equivalence tests.

This is the nested-dict table ``repro.dsm.interval.NoticeTable`` replaced:
one sorted interval list and one interval -> page -> notice dict per
creator, taking and returning flat notice lists. The interval-record
table must agree with it on every query (``test_interval_records.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterable, List

import numpy as np

from repro.dsm.messages import WriteNotice
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock


class NestedNoticeTable:
    """The nested-dict notice table: per creator a sorted interval list
    and an interval -> page -> notice dict; flat notices in and out."""

    def __init__(self, num_procs: int) -> None:
        self.n = num_procs
        # creator -> sorted intervals; creator -> interval -> page -> notice
        # (insertion-ordered; the page key dedups)
        self._intervals: Dict[int, List[int]] = {}
        self._by_interval: Dict[int, Dict[int, Dict[PageId, WriteNotice]]] = {}
        #: notices held, kept by the two mutators so ``count`` is O(1)
        self._count = 0

    def add(self, notice: WriteNotice) -> bool:
        """Insert a notice; returns False if already known."""
        return bool(self.add_all((notice,)))

    def add_all(
        self, notices: Iterable[WriteNotice], skip_creator: int = -1
    ) -> List[WriteNotice]:
        """Insert many, in order, skipping ``skip_creator``'s own notices;
        returns the ones that were new.

        An interval arriving in order is appended to its creator's sorted
        list; only an out-of-order one pays for an ``insort``. Notices of
        one (creator, interval) arrive together, so the bucket is looked
        up once per run of them.
        """
        by_interval = self._by_interval
        new: List[WriteNotice] = []
        creator = interval = -1
        bucket: Dict[PageId, WriteNotice] = {}
        for wn in notices:
            c = wn.creator
            if c == skip_creator:
                continue
            if c != creator or wn.interval != interval:
                creator, interval = c, wn.interval
                table = by_interval.get(c)
                if table is None:
                    table = by_interval[c] = {}
                    self._intervals[c] = []
                bucket = table.get(interval)
                if bucket is None:
                    bucket = table[interval] = {}
                    ivs = self._intervals[c]
                    if ivs and interval < ivs[-1]:
                        insort(ivs, interval)
                    else:
                        ivs.append(interval)
            if wn.page not in bucket:
                bucket[wn.page] = wn
                new.append(wn)
        self._count += len(new)
        return new

    def between(self, low: VClock, high: VClock) -> List[WriteNotice]:
        """Notices with ``low[c] < interval <= high[c]`` for their creator.

        This is exactly the happened-before set a lock grantor with release
        time ``high`` must send to an acquirer at time ``low``.
        """
        out: List[WriteNotice] = []
        if self.n >= VClock.ARRAY_WIDTH:
            # wide clusters: find the (typically few) creators whose range
            # is non-empty in one vectorized compare instead of an O(n)
            # Python scan per grant
            la, ha = low.as_array(), high.as_array()
            for c in np.flatnonzero(ha > la).tolist():
                self._extend(out, c, int(la[c]), int(ha[c]))
            return out
        for c in range(self.n):
            lo, hi = low[c], high[c]
            if hi > lo:
                self._extend(out, c, lo, hi)
        return out

    def _extend(self, out: List[WriteNotice], creator: int, lo: int, hi: int) -> None:
        """Append ``creator``'s notices with ``lo < interval <= hi``."""
        ivs = self._intervals.get(creator)
        if not ivs:
            return
        table = self._by_interval[creator]
        for k in range(bisect_right(ivs, lo), bisect_right(ivs, hi)):
            out.extend(table[ivs[k]].values())

    def own_after(self, creator: int, min_interval: int) -> List[WriteNotice]:
        """Notices created by ``creator`` in intervals > ``min_interval``."""
        out: List[WriteNotice] = []
        ivs = self._intervals.get(creator)
        if ivs:
            self._extend(out, creator, min_interval, ivs[-1])
        return out

    def trim_creator_before(self, creator: int, min_keep_interval: int) -> int:
        """Drop notices of ``creator`` with interval < ``min_keep_interval``.

        Implements Rule 1 (wn_log trimming) when applied to the process's
        own notices. Returns the number of notices dropped.
        """
        ivs = self._intervals.get(creator)
        if not ivs:
            return 0
        table = self._by_interval[creator]
        cut = bisect_left(ivs, min_keep_interval)
        dropped = 0
        for k in range(cut):
            dropped += len(table.pop(ivs[k]))
        del ivs[:cut]
        self._count -= dropped
        return dropped

    def count(self) -> int:
        return self._count

    def all_notices(self) -> List[WriteNotice]:
        """Every notice, by creator, then in insertion order."""
        return [
            n
            for c in sorted(self._by_interval)
            for bucket in self._by_interval[c].values()
            for n in bucket.values()
        ]
