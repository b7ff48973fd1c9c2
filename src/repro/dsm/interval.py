"""Write-notice bookkeeping (interval records).

Every process keeps a :class:`NoticeTable` of all write notices it knows
about — its own (which double as the FT layer's ``wn_log``, §4.2.1: "logging
write notices is done as part of the base protocol") and those received in
lock grants and barrier releases. Notices are indexed by creator and
interval so that the happened-before filtering of lazy release consistency
(send exactly the notices in intervals ``(acq_vt[c], rel_vt[c]]``) is a
range query.

The unit of storage and of shipping is the *interval record*: the tuple
of notices one creator made in one interval, in flush order, at most one
per page. The writer builds it as its interval flushes, and grants,
barrier arrivals and releases, recovery handshakes, checkpoints and
replica syncs carry that same tuple, so every table that learns an
interval holds the writer's object by reference (DESIGN.md §10).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.dsm.messages import NoticeRecord, WriteNotice
from repro.dsm.vclock import VClock

__all__ = ["NoticeTable", "records_of"]


def records_of(notices: Iterable[WriteNotice]) -> List[NoticeRecord]:
    """Group a flat notice sequence into interval records: one record per
    run of one (creator, interval), keeping the first notice per page."""
    out: List[NoticeRecord] = []
    run: List[WriteNotice] = []
    for wn in notices:
        if run and (wn.creator, wn.interval) != (run[0].creator, run[0].interval):
            out.append(tuple(run))
            run = []
        if all(held.page != wn.page for held in run):
            run.append(wn)
    if run:
        out.append(tuple(run))
    return out


class NoticeTable:
    """Per-process store of interval records, indexed by (creator, interval).

    One flat dict holds every record, keyed by ``interval * n + creator``
    (unique because ``creator < n``); two scalar bounds per creator
    (every held interval of ``c`` lies in ``[low[c], high[c]]``) turn the
    range queries into walks over that key range. The table owns no
    per-creator or per-interval container, so its size in objects does
    not grow with the number of creators heard from, and it stores the
    records it is given without copying them.
    """

    def __init__(self, num_procs: int) -> None:
        self.n = num_procs
        self._records: Dict[int, NoticeRecord] = {}
        self._low: Dict[int, int] = {}
        self._high: Dict[int, int] = {}
        #: notices held, kept by the two mutators so ``count`` is O(1)
        self._count = 0

    def add(self, notice: WriteNotice) -> bool:
        """Insert one notice; returns False if already known.

        The interval's record grows by replacement, never in place: a
        message that already carries the shorter record keeps exactly the
        pages it was sent with.
        """
        return bool(self.add_all(((notice,),)))

    def add_all(
        self, records: Iterable[NoticeRecord], skip_creator: int = -1
    ) -> List[WriteNotice]:
        """Insert many records, in order, skipping ``skip_creator``'s own;
        returns the notices that were new, in order.

        A record for an interval not yet held is stored as is. Another
        copy of a held interval (a partial one followed by its longer
        copy, or a duplicate) adds only the pages not yet held, appended
        in order to a new record.
        """
        table = self._records
        low, high = self._low, self._high
        n = self.n
        new: List[WriteNotice] = []
        for rec in records:
            first = rec[0]
            c = first.creator
            if c == skip_creator:
                continue
            interval = first.interval
            key = interval * n + c
            held = table.get(key)
            if held is None:
                table[key] = rec
                new += rec
                lo = low.get(c)
                if lo is None:
                    low[c] = high[c] = interval
                else:
                    # after a trim past every held interval, low > high
                    if interval < lo:
                        low[c] = interval
                    if interval > high[c]:
                        high[c] = interval
            elif held is not rec:
                pages = {wn.page for wn in held}
                fresh = [wn for wn in rec if wn.page not in pages]
                if fresh:
                    table[key] = held + tuple(fresh)
                    new += fresh
        self._count += len(new)
        return new

    def between(
        self, low: VClock, high: VClock, skip_creator: int = -1
    ) -> List[NoticeRecord]:
        """Records with ``low[c] < interval <= high[c]`` for their creator,
        by creator, then by interval; ``skip_creator``'s are left out.

        This is exactly the happened-before set a lock grantor with release
        time ``high`` must send to an acquirer at time ``low``.
        """
        out: List[NoticeRecord] = []
        if self.n >= VClock.ARRAY_WIDTH:
            # wide clusters: find the (typically few) creators whose range
            # is non-empty in one vectorized compare instead of an O(n)
            # Python scan per grant
            la, ha = low.as_array(), high.as_array()
            for c in np.flatnonzero(ha > la).tolist():
                if c != skip_creator:
                    self._extend(out, c, int(la[c]), int(ha[c]))
            return out
        for c in range(self.n):
            lo, hi = low[c], high[c]
            if hi > lo and c != skip_creator:
                self._extend(out, c, lo, hi)
        return out

    def _extend(
        self, out: List[NoticeRecord], creator: int, lo: int, hi: int
    ) -> None:
        """Append ``creator``'s records with ``lo < interval <= hi``."""
        first = self._low.get(creator)
        if first is None:
            return
        table, n = self._records, self.n
        for interval in range(
            max(lo + 1, first), min(hi, self._high[creator]) + 1
        ):
            rec = table.get(interval * n + creator)
            if rec is not None:
                out.append(rec)

    def own_after(self, creator: int, min_interval: int) -> List[NoticeRecord]:
        """Records of ``creator`` in intervals > ``min_interval``."""
        out: List[NoticeRecord] = []
        last = self._high.get(creator)
        if last is not None:
            self._extend(out, creator, min_interval, last)
        return out

    def trim_creator_before(self, creator: int, min_keep_interval: int) -> int:
        """Drop notices of ``creator`` with interval < ``min_keep_interval``.

        Implements Rule 1 (wn_log trimming) when applied to the process's
        own notices. Returns the number of notices dropped.
        """
        first = self._low.get(creator)
        if first is None or min_keep_interval <= first:
            return 0
        table, n = self._records, self.n
        dropped = 0
        for interval in range(
            first, min(min_keep_interval, self._high[creator] + 1)
        ):
            rec = table.pop(interval * n + creator, None)
            if rec is not None:
                dropped += len(rec)
        self._low[creator] = min_keep_interval
        self._count -= dropped
        return dropped

    def count(self) -> int:
        return self._count

    def all_notices(self) -> List[WriteNotice]:
        """Every notice, by creator, then in insertion order."""
        by_creator = sorted(self._records.values(), key=lambda r: r[0].creator)
        return [wn for rec in by_creator for wn in rec]
