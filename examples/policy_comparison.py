#!/usr/bin/env python3
"""Compare checkpointing policies on the same workload (§5.1, §5.4).

The paper evaluates the log-overflow (OF) policy and suggests a
barrier-coordinated alternative for barrier-heavy applications. This
example runs Water-Spatial under four policies and contrasts checkpoint
counts, window sizes, stable-log pressure and execution time.

    python examples/policy_comparison.py
"""

from repro import DsmCluster, DsmConfig
from repro.apps.water_spatial import WaterSpatialApp, WaterSpatialConfig
from repro.core import (
    BarrierCoordinatedPolicy,
    IntervalPolicy,
    LogOverflowPolicy,
    NeverPolicy,
)
from repro.render import Table, format_bytes


def run(policy_factory):
    cluster = DsmCluster(
        DsmConfig(num_procs=8), ft=True, policy_factory=policy_factory
    )
    app = WaterSpatialApp(
        WaterSpatialConfig(n_molecules=216, steps=5, pair_cost=20e-6)
    )
    res = cluster.run(app)
    return cluster, res


def main() -> None:
    policies = [
        ("OF L=0.05", lambda pid, fp: LogOverflowPolicy(0.05, fp)),
        ("OF L=0.3", lambda pid, fp: LogOverflowPolicy(0.3, fp)),
        ("barrier-coordinated (every 5)", lambda pid, fp: BarrierCoordinatedPolicy(5)),
        ("interval (every 20)", lambda pid, fp: IntervalPolicy(20)),
        ("never (logging only)", lambda pid, fp: NeverPolicy()),
    ]
    t = Table(
        "Checkpoint policy comparison (Water-Spatial, 8 nodes)",
        ["Policy", "Ckpts/node", "Wmax", "Max stable log", "Logs discarded",
         "Exec time (ms)"],
        note="'never' shows the cost of unbounded logs: nothing is ever "
        "saved or trimmed, so a crash would lose everything since start.",
    )
    for name, factory in policies:
        cluster, res = run(factory)
        cks = [s.checkpoints_taken for s in res.ft_stats]
        t.add(
            name,
            f"{min(cks)}-{max(cks)}",
            max(h.ckpt_mgr.max_window for h in cluster.hosts),
            format_bytes(max(s.max_log_disk for s in res.ft_stats)),
            format_bytes(sum(h.ft.logs.diff.bytes_discarded for h in cluster.hosts)),
            f"{res.wall_time*1e3:.1f}",
        )
    print(t.render())


if __name__ == "__main__":
    main()
