"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.apps.counter import CounterApp, CounterConfig  # noqa: E402
from repro.apps.kvstore import KvStoreApp, KvStoreConfig  # noqa: E402
from repro.apps.session import SessionApp, SessionConfig  # noqa: E402
from repro.observe import seed_violation  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS, compare_counts  # noqa: E402


def _small(name: str, make_app, expected: int, **changes):
    """The named workload with a smaller application (same consumers)."""
    return dataclasses.replace(
        WORKLOADS[name], app=lambda seed: (make_app, expected), **changes
    )


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_specs()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_determinism_check_fires_on_mismatched_counts():
    same = {"sim.engine.events": 10, "dsm.vclock.calls": 4}
    assert compare_counts([same, dict(same), dict(same)]) == []
    bad = compare_counts([same, dict(same, **{"dsm.vclock.calls": 5})])
    assert len(bad) == 1 and bad[0].startswith("dsm.vclock.calls")
    assert compare_counts([same, {"sim.engine.events": 10}])  # missing counter


def test_seeded_cgc_violation_counts_as_failed():
    wl = _small(
        "monitor-crash",
        lambda: KvStoreApp(KvStoreConfig(steps=2, puts_per_step=8, seed=1)),
        16 * 2 * 8,
    )
    inp = wl.inputs(1)
    clean = wl.run(inp)
    assert clean.ok, clean.error
    sabotaged = wl.run(inp, prepare=lambda cluster: seed_violation(cluster, "cgc"))
    assert not sabotaged.ok
    assert (sabotaged.attempted, sabotaged.failed) == (1, 1)
    share = run.end_to_end([clean, sabotaged], [0.1, 0.1], [0.1])["ok_share"]["value"]
    assert share == 0.5


def test_requests_counted_once_across_recovery():
    cfg = dict(steps=12, requests_per_step=8, rate=700.0, seed=3)
    wl = _small("serve-crash", lambda: SessionApp(SessionConfig(**cfg)), 8 * 12 * 8)
    inp = wl.inputs(3)
    assert inp.crash is not None
    rec = wl.run(inp)
    assert rec.ok, rec.error
    assert rec.counts["core.recovery.recoveries"] == 1
    assert rec.counts["apps.requests"] == len(rec.latencies_s) == 8 * 12 * 8
    assert rec.counts["apps.replayed"] > 0
    assert (rec.attempted, rec.failed) == (8 * 12 * 8, 0)


def test_traced_run_agrees_with_untraced_and_sums_to_wall():
    wl = _small(
        "barrier-wide",
        lambda: CounterApp(CounterConfig(steps=1, n_elements=256)),
        16,
        procs=16,
    )
    inp = wl.inputs(1)
    plain = wl.run(inp)
    traced = wl.run(inp, trace=True)
    assert plain.ok and traced.ok, (plain.error, traced.error)
    assert compare_counts([plain.counts, traced.counts]) == []
    layers = traced.tracer.summary()  # raises unless self times sum to the root
    assert layers["dsm.vclock"]["calls"] > 0
    metrics = run.per_layer([plain], traced, layers, 0.1)
    assert [(n, m["unit"]) for n, m in metrics.items()] == [
        (n, u) for n, u, _ in run.per_layer_specs()
    ]
    shares = sum(v["value"] for n, v in metrics.items()
                 if n.endswith(".self_pct"))
    assert abs(shares - 100.0) < 1e-6
    # the wrappers are gone after the traced run
    from repro.dsm.vclock import VClock

    assert not hasattr(VClock.join, "__wrapped__")
