"""Layer-attributed, noise-aware benchmark of the DSM simulator.

Run from the repository root::

    python3 perfbench/run.py --workload barrier-wide --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload cold, again and again, for ``--seconds``
host seconds and reports the end-to-end metrics: host times as medians
over the runs, simulated quantities exactly (they repeat for a seed).
``--trace 1`` does the same untraced runs, then one traced run that
records a span per call into every layer's entry points (see
``spans.py``) and reports the per-layer metrics. Either way every run's
output is checked: the application's own ``check_result``, the invariant
monitor's verdict, the request count, and the deterministic work
counters, which must agree exactly between runs of one seed and between
the traced run and the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print the same metrics by name and unit. Names, units and directions of
all metrics are listed in ``BENCHMARK.json`` at the repository root and
in :data:`END_TO_END` and :func:`per_layer_specs` below.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from spans import LAYERS, UNATTRIBUTED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: (name, unit, direction) of the end-to-end metrics, reported by every
#: workload with --trace 0
END_TO_END: List[Tuple[str, str, str]] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_makespan_ms", "ms", "lower"),
    ("net_mb", "MB", "lower"),
    ("ft_mb", "MB", "lower"),
    ("req_p50_ms", "ms", "lower"),
    ("req_p99_ms", "ms", "lower"),
    ("ok_share", "ratio", "higher"),
]

#: work counters copied from the run into the per-layer metrics
COUNTERS: List[Tuple[str, str]] = [
    ("sim.engine.events", "count"),
    ("sim.network.msgs", "count"),
    ("sim.network.ft_bytes", "B"),
    ("sim.storage.disk_bytes", "B"),
    ("dsm.protocol.notices_applied", "count"),
    ("dsm.protocol.page_fetches", "count"),
    ("dsm.protocol.lock_acquires", "count"),
    ("dsm.diff.bytes", "B"),
    ("core.ftmanager.checkpoints", "count"),
    ("core.checkpoint.retained", "count"),
    ("core.logs.created_bytes", "B"),
    ("core.logs.saved_bytes", "B"),
    ("core.replica.bytes", "B"),
    ("core.recovery.recoveries", "count"),
    ("apps.requests", "count"),
    ("apps.replayed", "count"),
]
SIM_BUCKETS = ["compute", "page_wait", "lock_wait", "barrier_wait", "overhead", "log_ckpt"]
RECOVERY_PHASES = ["detect", "restore", "handshake", "replay"]
#: layers whose entry-point call counts are reported
CALL_COUNTED = ["dsm.interval", "dsm.vclock", "dsm.diff"]
#: before each timed run, set-up alone is timed for this long (at least once)
SETUP_SLICE_S = 0.2
MIN_RUNS = 3


#: every span layer, plus the root span's own (unattributed) time
ALL_LAYERS = [*LAYERS, UNATTRIBUTED]

# Which end-to-end metric each per-layer metric should move:
#   dsm.protocol/interval/vclock self share, *.calls, notices_applied
#       -> wall_s on barrier-wide; flat on serve-crash
#   sim.engine.*, sim.network self share  -> wall_s on all three
#   sim.network.msgs/ft_bytes, sim.node.*, page_fetches, lock_acquires,
#   dsm.diff.bytes  -> sim_makespan_ms and net_mb; identical under any
#       change that touches only the simulator's host code
#   core.* and sim.storage  -> ft_mb, wall_s and req_p99_ms on
#       serve-crash; flat on barrier-wide
#   core.recovery.*  -> req_p99_ms and sim_makespan_ms on the crash workloads
#   apps.requests/replayed  -> req_p50_ms/req_p99_ms (sample count)
#   observe.observer -> wall_s on serve-crash; observe.invariants and
#       observe.tracing -> wall_s on monitor-crash
#   bench.*  -> the benchmark's own bookkeeping


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """(name, unit, direction) of every per-layer metric (--trace 1).

    Layer time is the layer's self time as a share of the traced run's
    wall time: a layer a workload never enters reads 0 %, and the shares
    of all layers plus the unattributed remainder add up to 100 %.
    """
    specs = [(f"{layer}.self_pct", "%", "lower") for layer in ALL_LAYERS]
    specs.append(("observe.invariants.incl_pct", "%", "lower"))
    specs += [(f"{layer}.calls", "count", "lower") for layer in CALL_COUNTED]
    specs += [(name, unit, "lower") for name, unit in COUNTERS]
    specs += [(f"sim.node.{b}_pct", "%", "lower") for b in SIM_BUCKETS]
    specs += [(f"core.recovery.{p}_pct", "%", "lower") for p in RECOVERY_PHASES]
    specs += [
        ("sim.engine.events_per_s", "1/s", "higher"),
        ("bench.traced_wall_s", "s", "lower"),
        ("bench.unattributed_s", "s", "lower"),
        ("bench.trace_overhead_s", "s", "lower"),
        ("bench.host_calibration_s", "s", "lower"),
    ]
    return specs


# ---------------------------------------------------------------------------
# host calibration
# ---------------------------------------------------------------------------
#: seconds one calibration pass takes on the host the benchmark was tuned
#: on (2-vCPU Xeon VM, Python 3.11); host times are reported at this speed
REF_CALIBRATION_S = 0.1


class _Obj:
    __slots__ = ("key", "rank")

    def __init__(self, key: int, rank: int) -> None:
        self.key = key
        self.rank = rank


def calibration_pass() -> float:
    """Seconds of one pass of a fixed pure-Python + NumPy loop.

    Object churn into fresh memory, dict and heap traffic, generator
    resumes and small array operations -- the kinds of work the simulator
    does. The loop never changes and starts on a collected heap, so its
    time measures the host, not the program or the garbage a run left.
    """
    gc.collect()

    def echo():
        x = 0
        while True:
            x = yield x + 1

    t0 = time.perf_counter()
    gen = echo()
    next(gen)
    heap: List[Tuple[int, int]] = []
    table: Dict[Tuple[int, int], _Obj] = {}
    objs = []
    for i in range(40_000):
        o = _Obj(i, (i * 7919) % 1000)
        objs.append(o)
        heapq.heappush(heap, (o.rank, i))
        table[(i & 4095, o.rank)] = o
        gen.send(i)
        if len(heap) > 512:
            heapq.heappop(heap)
    a = np.arange(256, dtype=np.int64)
    for _ in range(1_000):
        a = np.maximum(a, a[::-1]) - (a & 3)
    sum(o.key for o in objs if o.rank & 1)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _timed_runs(wl: Any, inp: Any, seconds: float,
                setup_times: Optional[List[float]] = None) -> Tuple[List[Any], List[float]]:
    """Cold untraced runs filling ``seconds`` (at least MIN_RUNS of them).

    A run is started only if a run as long as the longest so far still
    ends inside the window. A calibration pass is timed before every run
    and after the last; the mean of the two around a run is that run's
    host speed (returned per run). With ``setup_times``, set-up alone is
    also timed before every run, so all medians sample the whole window.
    """
    runs: List[Any] = []
    cal = [calibration_pass()]
    t_end = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() + max(r.wall_s for r in runs) <= t_end:
        # every run starts from a heap without the previous run's garbage,
        # as a fresh process would (collection is outside the timed part)
        if setup_times is not None:
            t_slice = time.perf_counter() + SETUP_SLICE_S
            while True:
                gc.collect()
                setup_times.append(wl.time_setup(inp) * REF_CALIBRATION_S / cal[-1])
                if time.perf_counter() >= t_slice:
                    break
        gc.collect()
        runs.append(wl.run(inp))
        cal.append(calibration_pass())
    speed = [(a + b) / 2 for a, b in zip(cal, cal[1:])]
    return runs, speed


def at_reference_speed(runs: List[Any], speed: List[float]) -> List[float]:
    """Each ok run's wall time scaled to the reference host speed."""
    return [r.wall_s * REF_CALIBRATION_S / c for r, c in zip(runs, speed) if r.ok]


def end_to_end(runs: List[Any], speed: List[float],
               setup_times: List[float]) -> Dict[str, Dict[str, Any]]:
    ok = [r for r in runs if r.ok]
    c = ok[0].counts if ok else {}
    lat = ok[0].latencies_s if ok else []
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    # everything the FT layer produces: sender-log records, stable-storage
    # writes, and FT traffic (piggybacks, replica stream, recovery)
    ft_bytes = sum(c.get(k, 0) for k in (
        "core.logs.created_bytes", "sim.storage.disk_bytes", "sim.network.ft_bytes",
        "sim.network.replica_bytes", "sim.network.recovery_bytes",
    ))
    values = {
        "wall_s": statistics.median(at_reference_speed(runs, speed)) if ok else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_makespan_ms": c.get("sim.makespan_s", 0.0) * 1e3,
        "net_mb": c.get("sim.network.bytes", 0) / 1e6,
        "ft_mb": ft_bytes / 1e6,
        "req_p50_ms": percentile(lat, 50) * 1e3,
        "req_p99_ms": percentile(lat, 99) * 1e3,
        "ok_share": (attempted - failed) / attempted if attempted else 0.0,
    }
    return {name: _metric(values[name], unit) for name, unit, _ in END_TO_END}


def per_layer(runs: List[Any], traced: Any, layers: Dict[str, Dict[str, float]],
              calibration: float) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from the traced run and its ``layers`` summary."""
    ok = [r for r in runs if r.ok]
    untraced_wall = statistics.median(r.wall_s for r in ok) if ok else 0.0
    c = traced.counts
    values: Dict[str, float] = {}
    root = traced.tracer.root_s
    for layer in ALL_LAYERS:
        self_s = layers.get(layer, {}).get("self_s", 0.0)
        values[f"{layer}.self_pct"] = 100.0 * self_s / root if root else 0.0
    incl = layers.get("observe.invariants", {}).get("incl_s", 0.0)
    values["observe.invariants.incl_pct"] = 100.0 * incl / root if root else 0.0
    for layer in CALL_COUNTED:
        values[f"{layer}.calls"] = layers.get(layer, {}).get("calls", 0)
    for name, _unit in COUNTERS:
        values[name] = c.get(name, 0)
    node_total = sum(c.get(f"sim.node.{b}_s", 0.0) for b in SIM_BUCKETS)
    for b in SIM_BUCKETS:
        values[f"sim.node.{b}_pct"] = (
            100.0 * c.get(f"sim.node.{b}_s", 0.0) / node_total if node_total else 0.0
        )
    rec_total = c.get("core.recovery.total_s", 0.0)
    for p in RECOVERY_PHASES:
        values[f"core.recovery.{p}_pct"] = (
            100.0 * c.get(f"core.recovery.{p}_s", 0.0) / rec_total if rec_total else 0.0
        )
    values["sim.engine.events_per_s"] = (
        c.get("sim.engine.events", 0) / untraced_wall if untraced_wall else 0.0
    )
    values["bench.traced_wall_s"] = traced.wall_s
    values["bench.unattributed_s"] = layers.get("bench.unattributed", {}).get("self_s", 0.0)
    values["bench.trace_overhead_s"] = traced.wall_s - untraced_wall
    values["bench.host_calibration_s"] = calibration
    return {name: _metric(values[name], unit) for name, unit, _ in per_layer_specs()}


def _print_table(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, m in metrics.items():
        v = m["value"]
        text = f"{v:.6g}" if isinstance(v, float) else str(v)
        print(f"  {name:<34} {text:>14} {m['unit']}")


def _write_trace(name: str, seed: int, traced: Any, layers: Dict[str, Any],
                 metrics: Dict[str, Any]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    # the span table of the latest traced run per workload; summaries per seed
    traced.tracer.write_spans(os.path.join(OUT_DIR, f"{name}.spans.npz"))
    base = os.path.join(OUT_DIR, f"{name}-seed{seed}")
    summary = {
        "workload": name,
        "seed": seed,
        "spans": traced.tracer.span_count,
        "root_s": traced.tracer.root_s,
        "layers": layers,
        "metrics": metrics,
    }
    with open(base + ".trace.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
def main(argv: List[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"benchmark: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS, compare_counts

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inp = wl.inputs(args.seed)

    problems: List[str] = []
    if args.trace:
        runs, speed = _timed_runs(wl, inp, args.seconds)
        gc.collect()
        traced = wl.run(inp, trace=True)
        checked = runs + [traced]
    else:
        setup_times: List[float] = []
        runs, speed = _timed_runs(wl, inp, args.seconds, setup_times)
        checked = runs
    for r in checked:
        if not r.ok:
            problems.append(f"run failed: {r.error}")
    problems += compare_counts([r.counts for r in checked if r.ok])

    if args.trace:
        layers: Dict[str, Dict[str, float]] = {}
        if traced.ok:
            try:
                layers = traced.tracer.summary()
            except AssertionError as exc:
                problems.append(f"span accounting: {exc}")
        metrics = per_layer(runs, traced, layers, statistics.median(speed))
        if layers:
            _write_trace(wl.name, args.seed, traced, layers, metrics)
    else:
        metrics = end_to_end(runs, speed, setup_times)
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    correct = not problems

    print(f"workload {wl.name} (seed {args.seed}): {wl.why}")
    walls = sorted(r.wall_s for r in runs)
    print(f"  {len(runs)} untraced runs, wall s min {walls[0]:.4f} "
          f"median {statistics.median(walls):.4f} max {walls[-1]:.4f}; "
          f"host calibration median {statistics.median(speed):.4f} s "
          f"(reference {REF_CALIBRATION_S} s)")
    ok_runs = [r for r in runs if r.ok]
    if ok_runs:
        print(f"  requests {len(ok_runs[0].latencies_s)} per run "
              f"(replayed after recovery: {ok_runs[0].counts['apps.replayed']})")
    _print_table("per-layer metrics:" if args.trace else "end-to-end metrics:", metrics)
    for msg in problems:
        print(f"  CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
