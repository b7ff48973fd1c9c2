"""Mutation generations: every public mutator stamps a fresh ``gen``.

The incremental invariant monitor skips a sub-check while the
generations of everything it reads are unchanged (DESIGN.md §9), so a
mutator that forgot to bump would hide changes from it. Each public
method of the four structures it reads is classified here as a reader
or a mutator; an unclassified new method fails the first test, and a
mutator that does not bump (``gen``, and for the logs the ``bucket_gen``
of every bucket it changed) fails the second.
"""

import pickle

import pytest

from repro.core.checkpoint import Checkpoint, CheckpointManager
from repro.core.logs import AcqLog, RelLog
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock
from repro.sim.storage import CheckpointStore

N = 4
P0 = PageId(0, 0)


def vt(*c):
    return VClock(c)


def mk_ckpt(seqno, tckp):
    return Checkpoint(
        pid=0, seqno=seqno, tckp=tckp,
        app_state_blob=pickle.dumps({}), own_notices=[], diff_log={},
        lock_tokens={}, acq_seq={}, barrier_episode=0,
        last_barrier_global=VClock.zero(N),
    )


def store():
    st = CheckpointStore(0)
    st.put("a", 1, 8)
    st.begin_put("b", 2, 8)
    return st


def manager():
    mgr = CheckpointManager(0, N, CheckpointStore(0))
    mgr.seed_initial_pages({P0: b"\x00" * 8})
    mgr.commit(mk_ckpt(1, vt(1, 0, 0, 0)), {P0: (b"\x01" * 8, vt(1, 0, 0, 0))})
    return mgr


def staged_manager():
    mgr = manager()
    mgr.stage(mk_ckpt(2, vt(2, 0, 0, 0)), {P0: (b"\x02" * 8, vt(2, 0, 0, 0))})
    return mgr


def rel_log():
    log = RelLog(N)
    log.append(1, 7, vt(0, 3, 0, 0))
    return log


def acq_log():
    log = AcqLog(N)
    log.append(2, 7, vt(0, 3, 0, 0))
    return log


#: class -> (fixture, {mutator: call}, readers)
CASES = {
    CheckpointStore: (store, {
        "put": lambda st: st.put("c", 3, 8),
        "begin_put": lambda st: st.begin_put("c", 3, 8),
        "commit_put": lambda st: st.commit_put("b"),
        "delete": lambda st: st.delete("a"),
    }, {"is_pending", "pending_keys", "get", "keys", "size_of"}),
    CheckpointManager: (manager, {
        "seed_initial_pages": lambda m: m.seed_initial_pages(
            {PageId(0, 1): b"\x00" * 8}
        ),
        "stage": lambda m: m.stage(mk_ckpt(2, vt(2, 0, 0, 0)), {}),
        "commit_staged": lambda m: m.commit_staged(
            m.store.get(("ckpt", 2)), {P0: (b"\x02" * 8, vt(2, 0, 0, 0))}
        ),
        "commit": lambda m: m.commit(mk_ckpt(2, vt(2, 0, 0, 0)), {}),
        "discard_torn": lambda m: m.discard_torn(),
        "collect": lambda m: m.collect(vt(5, 5, 5, 5)),
        "discard_history": lambda m: m.discard_history(),
    }, {"maximal_starting_copy", "restart_checkpoint"}),
    RelLog: (rel_log, {
        "append": lambda log: log.append(2, 8, vt(0, 0, 4, 0)),
        "trim": lambda log: log.trim(1, 5),
        "restore_for": lambda log: log.restore_for(3, []),
        "confirm": lambda log: log.confirm(1, 7, vt(1, 3, 0, 0), own_pid=1),
        "clear": lambda log: log.clear(),
    }, {"for_acquirer", "count"}),
    AcqLog: (acq_log, {
        "append": lambda log: log.append(1, 8, vt(0, 4, 0, 0)),
        "trim": lambda log: log.trim(0, 5),
        "clear": lambda log: log.clear(),
    }, {"for_grantor", "count"}),
}

#: mutators that need a staged (uncommitted) checkpoint to act on
STAGED = {"commit_staged", "discard_torn"}

#: (class, mutator) -> the log buckets the call above changes
BUCKETS = {
    (RelLog, "append"): [2], (RelLog, "trim"): [1],
    (RelLog, "restore_for"): [3], (RelLog, "confirm"): [1],
    (RelLog, "clear"): range(N),
    (AcqLog, "append"): [1], (AcqLog, "trim"): [2],
    (AcqLog, "clear"): range(N),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_every_public_method_is_classified(cls):
    _, mutators, readers = CASES[cls]
    public = {
        name for name, attr in vars(cls).items()
        if not name.startswith("_") and callable(attr)
    }
    assert public == set(mutators) | readers


@pytest.mark.parametrize(
    "cls,name",
    [(cls, name) for cls, (_, muts, _) in CASES.items() for name in muts],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_mutator_stamps_fresh_generation(cls, name):
    make, mutators, _ = CASES[cls]
    obj = staged_manager() if name in STAGED else make()
    other = make()  # generations are process-wide: never reused
    before = obj.gen
    mutators[name](obj)
    assert obj.gen > max(before, other.gen)
    for bucket in BUCKETS.get((cls, name), ()):
        assert obj.bucket_gen[bucket] == obj.gen
