"""Golden determinism tests for the simulation fast path.

The paper's results are only as good as the simulator's determinism: a
run must be a pure function of its configuration, and performance work
on the hot path (ready-queue engine, interned vector clocks, zero-copy
pages) must not perturb a single virtual timestamp or traffic counter.

Two layers of protection:

* *run-to-run*: the same configuration executed twice in one process
  yields bit-identical results;
* *golden pins*: final virtual times (as exact float hex) and traffic
  counters recorded **before** the fast-path optimizations landed; any
  drift means an optimization changed simulation semantics, not just
  speed.
"""

import hashlib

import pytest

from tests.conftest import make_app, make_cluster

#: exact pre-optimization values for (app, procs=4, ft) configurations;
#: wall times are pinned as float hex so comparison is bit-identical
GOLDEN = {
    ("lu", False): {
        "wall_time_hex": "0x1.610937ad9b121p-6",
        "total_bytes": 754870,
        "total_msgs": 1590,
        "bytes_by_category": {"barrier": 38784, "diff": 167398, "page": 548688},
        "msgs_by_category": {"barrier": 144, "diff": 480, "page": 966},
    },
    ("lu", True): {
        "wall_time_hex": "0x1.d171b9726ea41p-4",
        "total_bytes": 761066,
        "total_msgs": 1586,
        "bytes_by_category": {"barrier": 39756, "diff": 167596, "page": 553714},
        "msgs_by_category": {"barrier": 144, "diff": 480, "page": 962},
    },
    ("counter", False): {
        "wall_time_hex": "0x1.f58cedc7fd695p-9",
        "total_bytes": 54398,
        "total_msgs": 162,
        "bytes_by_category": {
            "barrier": 2912, "diff": 586, "lock": 2052, "page": 48848,
        },
        "msgs_by_category": {"barrier": 36, "diff": 9, "lock": 31, "page": 86},
    },
    ("counter", True): {
        # re-recorded when grantors began logging the acquirer's *actual*
        # acquire timestamp (AcqAck, DESIGN.md §9): one extra lock-class
        # message per remote acquire, and the timing shift nudges page
        # traffic
        "wall_time_hex": "0x1.1b301f578928ap-5",
        "total_bytes": 57800,
        "total_msgs": 179,
        "bytes_by_category": {
            "barrier": 2984, "diff": 630, "lock": 3596, "page": 50590,
        },
        "msgs_by_category": {"barrier": 36, "diff": 9, "lock": 46, "page": 88},
    },
    # buddy replication on (DESIGN.md §11): the replica stream is its own
    # traffic category; its ack timing also shifts checkpoint trimming,
    # which nudges the base-protocol byte counts slightly
    ("counter", "ft-repl"): {
        "wall_time_hex": "0x1.2042dd88524dfp-5",
        "total_bytes": 157452,
        "total_msgs": 311,
        "bytes_by_category": {
            "barrier": 2962, "diff": 608, "lock": 3354, "page": 50348,
            "replica": 100180,
        },
        "msgs_by_category": {
            "barrier": 36, "diff": 9, "lock": 46, "page": 88, "replica": 132,
        },
    },
}


def run_once(app_name: str, ft):
    if ft == "ft-repl":
        from repro.core import FtConfig

        cluster = make_cluster(4, ft=True, ft_config=FtConfig(replicate=True))
    else:
        cluster = make_cluster(4, ft=ft)
    result = cluster.run(make_app(app_name))
    traffic = result.traffic
    return {
        "wall_time_hex": result.wall_time.hex(),
        "total_bytes": traffic.total_bytes,
        "total_msgs": traffic.total_msgs,
        "bytes_by_category": dict(sorted(traffic.bytes_by_category.items())),
        "msgs_by_category": dict(sorted(traffic.msgs_by_category.items())),
    }


#: counter FT at 64 processes: every vector clock is wider than
#: VClock.ARRAY_WIDTH, so this pin covers the array-clock paths the
#: 4-process pins above never reach. Recorded before write notices were
#: applied in batches; the batched path must reproduce it exactly
WIDE_GOLDEN = {
    "wall_time_hex": "0x1.21457e8a8c6b5p-4",
    "total_bytes": 2596932,
    "total_msgs": 4086,
    "bytes_by_category": {
        "barrier": 516096, "diff": 128308, "lock": 331680, "page": 1620848,
    },
    "msgs_by_category": {"barrier": 756, "diff": 378, "lock": 946, "page": 2006},
    "notices_applied": 24192,
    "page_fetches": 1003,
}


def test_matches_wide_array_clock_golden():
    cluster = make_cluster(64, ft=True)
    result = cluster.run(make_app("counter"))
    traffic = result.traffic
    protos = [h.proto for h in cluster.hosts]
    assert {
        "wall_time_hex": result.wall_time.hex(),
        "total_bytes": traffic.total_bytes,
        "total_msgs": traffic.total_msgs,
        "bytes_by_category": dict(sorted(traffic.bytes_by_category.items())),
        "msgs_by_category": dict(sorted(traffic.msgs_by_category.items())),
        "notices_applied": sum(p.stats.notices_applied for p in protos),
        "page_fetches": sum(p.stats.page_fetches for p in protos),
    } == WIDE_GOLDEN


@pytest.mark.parametrize("app_name", ["lu", "counter"])
@pytest.mark.parametrize("ft", [False, True], ids=["base", "ft"])
def test_matches_pre_optimization_golden(app_name, ft):
    assert run_once(app_name, ft) == GOLDEN[(app_name, ft)]


def test_matches_golden_with_replication():
    """Replication is deterministic too: pinned the day the buddy tier
    landed, any drift in the replica stream's timing or size shows here."""
    assert run_once("counter", "ft-repl") == GOLDEN[("counter", "ft-repl")]
    assert run_once("counter", "ft-repl") == run_once("counter", "ft-repl")


@pytest.mark.parametrize("app_name", ["lu", "counter"])
def test_run_to_run_identical(app_name):
    assert run_once(app_name, True) == run_once(app_name, True)


def test_golden_unchanged_with_armed_breakpoint():
    """The injection hooks are compiled in but must cost nothing.

    An armed-but-unreachable engine breakpoint (the crash-sweep
    primitive) must not perturb a single timestamp or counter: injection
    support has to be free on the failure-free path the golden pins
    protect.
    """
    cluster = make_cluster(4, ft=True)
    cluster.engine.break_at_step(10**9, lambda: None)
    result = cluster.run(make_app("counter"))
    traffic = result.traffic
    got = {
        "wall_time_hex": result.wall_time.hex(),
        "total_bytes": traffic.total_bytes,
        "total_msgs": traffic.total_msgs,
        "bytes_by_category": dict(sorted(traffic.bytes_by_category.items())),
        "msgs_by_category": dict(sorted(traffic.msgs_by_category.items())),
    }
    assert got == GOLDEN[("counter", True)]


def test_golden_unchanged_with_sampling_enabled():
    """Observation must not perturb the observed run.

    A ClusterObserver with both cadences on (virtual-time ticker at 1 ms
    plus barrier-episode sampling) only reads state, so every timestamp
    and traffic counter must still match the golden pins — the
    observability layer's core guarantee (DESIGN.md §7).
    """
    from repro.observe import ClusterObserver

    cluster = make_cluster(4, ft=True)
    observer = ClusterObserver(cluster, interval=1e-3, sample_on_barrier=True)
    result = cluster.run(make_app("counter"))
    observer.sample()
    traffic = result.traffic
    got = {
        "wall_time_hex": result.wall_time.hex(),
        "total_bytes": traffic.total_bytes,
        "total_msgs": traffic.total_msgs,
        "bytes_by_category": dict(sorted(traffic.bytes_by_category.items())),
        "msgs_by_category": dict(sorted(traffic.msgs_by_category.items())),
    }
    assert got == GOLDEN[("counter", True)]
    # and the observer did actually observe
    assert observer.registry.samples_taken > 10
    assert observer.registry.series_by_name("ft.log_volatile_bytes")
    # the latency engine collected through the same run without moving
    # a single pin: per-op percentile distributions are populated for
    # every key op class, and merging them is pure post-processing
    for name in ("lat.fetch", "lat.acquire", "lat.barrier", "lat.ckpt"):
        merged = observer.registry.merged_latency(name)
        assert merged is not None and merged.count > 0, name
        assert merged.percentile(99.0) >= merged.percentile(50.0)
    assert observer.registry.merged_latency("lat.ckpt").min > 0.0


def test_golden_unchanged_with_windowing_enabled():
    """Windowed tail-latency rotation must not perturb the observed run.

    With windowing on, every latency observation additionally files into
    the fixed virtual-time window containing the observation instant.
    The rotation's clock callback reads the engine's virtual time and
    nothing else (DESIGN.md §13), so all golden pins must hold, and
    merging every window back together must reproduce the whole-run
    distribution exactly.
    """
    from repro.observe import ClusterObserver

    cluster = make_cluster(4, ft=True)
    observer = ClusterObserver(
        cluster, interval=1e-3, sample_on_barrier=True, window_s=1e-3
    )
    result = cluster.run(make_app("counter"))
    observer.sample()
    traffic = result.traffic
    got = {
        "wall_time_hex": result.wall_time.hex(),
        "total_bytes": traffic.total_bytes,
        "total_msgs": traffic.total_msgs,
        "bytes_by_category": dict(sorted(traffic.bytes_by_category.items())),
        "msgs_by_category": dict(sorted(traffic.msgs_by_category.items())),
    }
    assert got == GOLDEN[("counter", True)]
    # the rotation actually rotated: multiple windows, and window-merge
    # equals whole-run merge for every op class that observed anything
    for name in observer.registry.latency_names():
        total = observer.registry.merged_latency(name)
        windows = observer.registry.merged_windows(name)
        if total is None or not total.count:
            continue
        assert windows, name
        merged = type(total).merged(windows.values(), name=name)
        assert merged.count == total.count, name
        assert merged.buckets == total.buckets, name
        for p in (50.0, 99.0):
            assert merged.percentile(p) == total.percentile(p), name
    assert len(observer.registry.merged_windows("lat.acquire")) > 1


def test_golden_unchanged_with_span_tracing_enabled():
    """Span tracing must not perturb the traced run.

    The SpanTracer wraps sends, deliveries and protocol coroutines but
    only records: no messages, no CPU charges, no clock perturbation.
    Every timestamp and traffic counter must still match the golden
    pins — the span DAG is an observation, not a participant
    (DESIGN.md §8).
    """
    from repro.observe.tracing import SpanTracer

    cluster = make_cluster(4, ft=True)
    tracer = SpanTracer(cluster)
    result = cluster.run(make_app("counter"))
    traffic = result.traffic
    got = {
        "wall_time_hex": result.wall_time.hex(),
        "total_bytes": traffic.total_bytes,
        "total_msgs": traffic.total_msgs,
        "bytes_by_category": dict(sorted(traffic.bytes_by_category.items())),
        "msgs_by_category": dict(sorted(traffic.msgs_by_category.items())),
    }
    assert got == GOLDEN[("counter", True)]
    # and the tracer did actually trace: spans for every kind of
    # blocking operation, one causal edge per sent message
    assert not tracer.validate()
    assert len(tracer.edges) == traffic.total_msgs
    kinds = {s.kind for s in tracer.spans}
    assert {"app", "compute", "fetch", "acquire", "barrier", "flush",
            "ckpt", "ckpt_write"} <= kinds


@pytest.mark.parametrize("profile", [False, True], ids=["plain", "profiled"])
def test_bench_runs_deterministic_across_profile(profile):
    """The bench harness reports identical simulations with --profile on/off."""
    from repro.metrics.bench import run_app_bench

    results = {
        p: run_app_bench("counter", procs=4, ft=True, profile=p)
        for p in (False, profile)
    }
    a, b = results[False], results[profile]
    assert a.virtual_time.hex() == b.virtual_time.hex()
    assert a.total_msgs == b.total_msgs
    assert a.total_bytes == b.total_bytes
    assert a.events == b.events


def test_golden_unchanged_with_monitor_attached():
    """The invariant monitor must not perturb the monitored run.

    The InvariantMonitor wraps sends, deliveries, probes and the engine
    event tap but only reads protocol state — no messages, no CPU
    charges, no clock perturbation. Every timestamp and traffic counter
    must still match the golden pins, while the monitor demonstrably
    checked every invariant class and found nothing (DESIGN.md §9).
    """
    from repro.observe import INVARIANTS, InvariantMonitor

    cluster = make_cluster(4, ft=True)
    monitor = InvariantMonitor(cluster)
    result = cluster.run(make_app("counter"))
    assert monitor.finish() == []
    traffic = result.traffic
    got = {
        "wall_time_hex": result.wall_time.hex(),
        "total_bytes": traffic.total_bytes,
        "total_msgs": traffic.total_msgs,
        "bytes_by_category": dict(sorted(traffic.bytes_by_category.items())),
        "msgs_by_category": dict(sorted(traffic.msgs_by_category.items())),
    }
    assert got == GOLDEN[("counter", True)]
    # and the monitor did actually monitor
    for kind in INVARIANTS:
        assert monitor.checks[kind] > 0, f"{kind} never checked"


def _window_rows(registry):
    """Every window of every windowed histogram, exactly.

    Per ``(name, node, window)``: the count, zero count, sparse buckets
    and the min/max as float hex, in sorted order.
    """
    return [
        (name, node, w, wh.count, wh.zero_count, sorted(wh.buckets.items()),
         wh.min.hex(), wh.max.hex())
        for name in registry.latency_names()
        for node, h in registry.latencies_by_name(name).items()
        for w, wh in sorted(h.windows.items())
    ]


#: the serving path with its whole FT and observability stack on: session
#: at 8 processes, buddy replication, windowed latency at 1 ms and a p1
#: fail-stop halfway through its arrival schedule. Recorded before the
#: request table and the single-lookup windowed observation landed
SERVING_GOLDEN = {
    "wall_time_hex": "0x1.28c73bc6ccdf9p-2",
    "recoveries": 1,
    "bytes_by_category": {
        "barrier": 40210, "diff": 26688, "lock": 496124, "page": 886444,
        "recovery": 16869, "replica": 702072,
    },
    "msgs_by_category": {
        "barrier": 336, "diff": 325, "lock": 6368, "page": 1516,
        "recovery": 51, "replica": 6414,
    },
    "notices_applied": 2445,
    "windows": 4905,
    "window_digest":
        "423bfc03d57ad2324d3a9347a5224509990a46413d7a33a1f3ac818946fecee6",
}


def run_serving():
    from repro.apps.session import SessionApp, SessionConfig
    from repro.core import FtConfig
    from repro.observe import ClusterObserver

    app = SessionApp(
        SessionConfig(steps=24, requests_per_step=8, rate=1500.0, seed=1)
    )
    cluster = make_cluster(8, ft=True, ft_config=FtConfig(replicate=True))
    observer = ClusterObserver(cluster, window_s=1e-3)
    cluster.schedule_crash(1, 0.5 * float(app.arrivals(1)[-1]))
    result = cluster.run(app)
    traffic = result.traffic
    protos = [h.proto for h in cluster.hosts]
    rows = _window_rows(observer.registry)
    return {
        "wall_time_hex": result.wall_time.hex(),
        "recoveries": result.recoveries,
        "bytes_by_category": dict(sorted(traffic.bytes_by_category.items())),
        "msgs_by_category": dict(sorted(traffic.msgs_by_category.items())),
        "notices_applied": sum(p.stats.notices_applied for p in protos),
        "windows": len(rows),
        "window_digest": hashlib.sha256(repr(rows).encode()).hexdigest(),
    }


def test_matches_serving_golden():
    assert run_serving() == SERVING_GOLDEN
