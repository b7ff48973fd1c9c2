"""A process's notice and FT-log bookkeeping does not grow with N.

The notice table holds shared interval records in one flat index, and
the rel/acq logs create a peer's bucket on its first entry. So the
containers one process owns for this bookkeeping are the same in number
at every cluster size. What they hold is not counted: write notices,
vector clocks and interval records are shared with the writer, and log
entries (with the buckets holding them) grow with the grants a process
makes, not with the number of peers.
"""

from __future__ import annotations

import gc

from repro.core.logs import RelEntry
from repro.dsm.messages import WriteNotice
from repro.dsm.vclock import VClock
from tests.conftest import make_app, make_cluster

CONTAINERS = (dict, list, set, tuple)


def _content(obj) -> bool:
    """Shared objects, log entries, and non-empty buckets of either."""
    if isinstance(obj, (type, WriteNotice, VClock, RelEntry)):
        return True
    return (
        type(obj) in (tuple, list)
        and len(obj) > 0
        and all(type(x) in (WriteNotice, RelEntry) for x in obj)
    )


def owned_containers(roots) -> int:
    seen, stack, count = set(), list(roots), 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or _content(obj):
            continue
        seen.add(id(obj))
        count += type(obj) in CONTAINERS
        stack.extend(gc.get_referents(obj))
    return count


def bookkeeping_containers(num_procs: int) -> set:
    cluster = make_cluster(num_procs, ft=True)
    cluster.run(make_app("counter"))
    return {
        owned_containers([h.proto.notices, h.ft.logs.rel, h.ft.logs.acq])
        for h in cluster.hosts
    }


def test_bookkeeping_containers_do_not_grow_with_cluster_size():
    small, wide = bookkeeping_containers(16), bookkeeping_containers(64)
    assert len(small) == 1, small  # the same at every process
    assert wide == small
