"""The incremental invariant monitor reports what a full rescan reports.

At each delivery the production monitor re-runs only the structural
sub-checks whose inputs changed since they last passed (mutation
generations, DESIGN.md §9). The oracle is the same monitor with the memo
ignored: a full structural rescan at every delivery. Both ride on one
run; after every delivery their violation lists must be identical field
for field (invariant, pid, time, step, detail), and at the end so must
their check counters.

Cases: every seeded sabotage double at N=4 (tuple clocks) and N=16
(array clocks), randomized fuzz-protocol schedules with a crash, a
kvstore crash run at N=16, and a replicated (k=2) run through two
overlapping failures. A clean run cannot tell a skipped check from a
passing one, so four more mid-run sabotages each break one input of
the structural scan on its own — a grantor's rel_log, a stable store,
a live vector time, a buddy's replica store — long after the checks
reading it last passed.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import pytest

from repro.dsm.vclock import VClock
from repro.observe import INVARIANTS, InvariantMonitor, seed_violation
from tests.conftest import make_app, make_cluster


class FullRescanMonitor(InvariantMonitor):
    """The oracle: a full structural scan at every delivery."""

    def _scan_structural(self, final: bool = False, memo: Any = None) -> None:
        super()._scan_structural(final)


class Twins:
    """An incremental monitor and its full-rescan oracle on one cluster,
    compared after every delivery."""

    def __init__(self, cluster: Any) -> None:
        self.inc = InvariantMonitor(cluster)
        self.full = FullRescanMonitor(cluster)
        self.deliveries = 0
        #: (delivery index, incremental list, full list) at first mismatch
        self.divergence: Optional[tuple] = None
        self._cluster = cluster

    def watch(self) -> None:
        """Wrap delivery outermost (after any seed), then compare."""
        net = self._cluster.network
        inner = net._deliver

        def deliver(src: int, dst: int, payload: Any, epoch: int,
                    size: int = 0) -> None:
            inner(src, dst, payload, epoch, size)
            self.deliveries += 1
            if (self.divergence is None
                    and self.inc.violations != self.full.violations):
                self.divergence = (
                    self.deliveries,
                    [v.to_dict() for v in self.inc.violations],
                    [v.to_dict() for v in self.full.violations],
                )

        net._deliver = deliver

    def finish_and_compare(self) -> List[Any]:
        inc, full = self.inc.finish(), self.full.finish()
        assert self.divergence is None, self.divergence
        assert self.deliveries > 0
        assert [v.to_dict() for v in inc] == [v.to_dict() for v in full]
        assert self.inc.checks == self.full.checks
        assert self.inc.dropped_violations == self.full.dropped_violations
        return inc


def run_twins(cluster: Any, app: Any, seed: Optional[str] = None,
              before_run: Optional[Callable[[Any], None]] = None,
              sabotaged: bool = False) -> Twins:
    twins = Twins(cluster)
    if seed is not None:
        seed_violation(cluster, seed)
    twins.watch()
    if before_run is not None:
        before_run(cluster)
    try:
        cluster.run(app)
    except Exception:
        # sabotage may corrupt the run past the detection point
        if not (seed or sabotaged) or not twins.inc.violations:
            raise
    return twins


# the wider cluster needs a tighter log budget for checkpoints (and so
# CGC/LLT passes) to fire within the short counter run
@pytest.mark.parametrize("num_procs,l_fraction", [(4, 0.2), (16, 0.05)])
@pytest.mark.parametrize("kind", INVARIANTS)
def test_seeded_doubles_incremental_equals_full(kind, num_procs, l_fraction):
    cluster = make_cluster(num_procs=num_procs, ft=True, l_fraction=l_fraction)
    twins = run_twins(cluster, make_app("counter"), seed=kind)
    violations = twins.finish_and_compare()
    assert {v.invariant for v in violations} == {kind}


@pytest.mark.parametrize("seed", [0, 3, 5, 8])
def test_fuzz_crash_schedules_incremental_equals_full(seed):
    from tests.integration.test_fuzz_protocol import (
        N_PROCS,
        FuzzApp,
        run_fuzz,
    )

    t_free = run_fuzz(seed, None)[1].wall_time
    for k, frac in enumerate((0.3, 0.7)):
        cluster = make_cluster(num_procs=N_PROCS, ft=True, l_fraction=0.05)
        victim = (seed + 3 * k) % N_PROCS
        twins = run_twins(
            cluster, FuzzApp(seed),
            before_run=lambda c: c.schedule_crash(victim, frac * t_free),
        )
        assert cluster.crashes == 1
        assert twins.finish_and_compare() == []


def test_wide_kvstore_crash_incremental_equals_full():
    cluster = make_cluster(num_procs=16, ft=True, l_fraction=0.1)
    twins = run_twins(
        cluster, make_app("kvstore"),
        before_run=lambda c: c.schedule_crash_at_step(3, 1500),
    )
    assert cluster.crashes == 1 and cluster.recoveries == 1
    assert twins.finish_and_compare() == []


def test_replicated_overlapping_failures_incremental_equals_full():
    from tests.integration.test_replication import (
        overlap_schedule,
        replicated_cluster,
    )

    t1, t2 = overlap_schedule()
    cluster = replicated_cluster()

    def crashes(c: Any) -> None:
        c.schedule_crash(3, at_time=t1)
        c.schedule_crash(1, at_time=t2)

    twins = run_twins(cluster, make_app("counter"), before_run=crashes)
    assert cluster.crashes == 2 and cluster.recoveries == 2
    assert twins.finish_and_compare() == []


# ---------------------------------------------------------------------------
# mid-run sabotage of one scan input at a time
# ---------------------------------------------------------------------------
def drop_newest_grant(cluster: Any) -> None:
    """A grantor loses its newest rel_log entry for an acquirer it still
    holds an older grant for; nothing on the acquirer's side changes."""
    for host in cluster.hosts:
        rel = host.ft.logs.rel
        for acquirer, entries in sorted(rel.entries.items()):
            if len(entries) >= 2:
                rel.restore_for(acquirer, entries[:-1])
                return
    raise AssertionError("no grantor holds two grants for one acquirer")


def tear_store_key(cluster: Any) -> None:
    """A stable store gains a torn key outside any checkpoint write."""
    cluster.hosts[2].store.begin_put(("junk",), None, 0)


def regress_vector_time(cluster: Any) -> None:
    """A live process's vector time falls back to zero."""
    proto = cluster.hosts[1].proto
    proto.vt = VClock.zero(proto.n)


# each fires where, with a memo step left out, the incremental scan
# would miss what it breaks (checked by mutating the monitor)
@pytest.mark.parametrize("num_procs", [4, 16])
@pytest.mark.parametrize(
    "sabotage,frac",
    [(drop_newest_grant, 0.7), (tear_store_key, 0.5),
     (regress_vector_time, 0.5)],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_midrun_sabotage_incremental_equals_full(sabotage, frac, num_procs):
    def app() -> Any:
        return make_app("kvstore", steps=4)

    def cluster() -> Any:
        return make_cluster(num_procs=num_procs, ft=True, l_fraction=0.05)

    t_free = cluster().run(app()).wall_time
    victim = cluster()
    twins = run_twins(
        victim, app(), sabotaged=True,
        before_run=lambda c: c.engine.schedule(
            frac * t_free, lambda: sabotage(c)
        ),
    )
    violations = twins.finish_and_compare()
    assert any(v.invariant == "recoverability" for v in violations)


def forge_replica(cluster: Any) -> None:
    """A buddy gains a committed replica of a checkpoint its protected
    node never took."""
    for holder in cluster.hosts:
        for protected in holder.replica_store.protected_pids():
            holder.replica_store.store_for(protected).put(
                ("replica", 10**6), None, 0
            )
            return
    raise AssertionError("no replica held anywhere")


def test_midrun_replica_forgery_incremental_equals_full():
    from tests.integration.test_replication import replicated_cluster

    t_free = replicated_cluster().run(make_app("counter")).wall_time
    cluster = replicated_cluster()
    twins = run_twins(
        cluster, make_app("counter"), sabotaged=True,
        before_run=lambda c: c.engine.schedule(
            0.5 * t_free, lambda: forge_replica(c)
        ),
    )
    violations = twins.finish_and_compare()
    assert any("never committed" in v.detail for v in violations)
