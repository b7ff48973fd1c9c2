"""Canonical outputs of the four observability consumers, for the
instrumentation-bus equivalence tests (``test_hooks.py``).

Three scenarios, each run with the flat :class:`Tracer`, the
:class:`SpanTracer`, the :class:`InvariantMonitor` (with its flight
recorder) and the :class:`ClusterObserver` attached together:

* ``counter`` — counter, 4 processes, FT, p1 fail-stops halfway through
  the failure-free makespan; the observer also samples every 1 ms;
* ``kvstore`` — kvstore, 16 processes, 4 steps of 8 puts, FT, p3
  fail-stops just after issuing the first put of step 2 (the benchmark's
  ``monitor-crash`` crash, seed 1);
* ``session`` — open-loop session, 8 processes, FT + buddy replication,
  windowed latency (1 ms windows), p1 fail-stops halfway through its own
  arrival schedule.

:func:`capture` returns, per consumer output, a canonical text (times as
float hex); :func:`digest` reduces it to sha256 + length. The fixture
``tests/fixtures/hooks_equivalence.json`` holds the digests recorded
before the consumers moved onto the bus; regenerate (only on purpose)
with ``PYTHONPATH=src python tests/unit/hooks_capture.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from typing import Any, Callable, Dict, List, Tuple

from repro import DsmCluster, DsmConfig
from repro.apps.counter import CounterApp, CounterConfig
from repro.apps.kvstore import KvStoreApp, KvStoreConfig
from repro.apps.session import SessionApp, SessionConfig
from repro.core import LogOverflowPolicy
from repro.core.ftmanager import FtConfig
from repro.observe import ClusterObserver, InvariantMonitor, SpanTracer
from repro.observe.report import build_report, write_jsonl
from repro.observe.tracing.export import to_chrome_trace
from repro.sim.trace import Tracer

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "hooks_equivalence.json"
)

#: consumer names in the default attach order
CONSUMERS = ("tracer", "spans", "monitor", "observer")


def _cluster(procs: int, replicate: bool = False) -> DsmCluster:
    return DsmCluster(
        DsmConfig(num_procs=procs),
        ft=True,
        ft_config=FtConfig(replicate=replicate),
        policy_factory=lambda pid, fp: LogOverflowPolicy(0.1, fp),
    )


def _counter():
    make_app = lambda: CounterApp(CounterConfig())  # noqa: E731
    make = lambda: _cluster(4)  # noqa: E731
    t_free = make().run(make_app()).wall_time
    return make, make_app, (1, 0.5 * t_free), {"interval": 1e-3}


def _kvstore():
    cfg = KvStoreConfig(steps=4, puts_per_step=8, seed=1)
    make_app = lambda: KvStoreApp(cfg)  # noqa: E731
    make = lambda: _cluster(16)  # noqa: E731
    return make, make_app, (3, float.fromhex("0x1.0846994fd60f5p-5")), {}


def _session():
    cfg = SessionConfig(steps=12, requests_per_step=8, rate=1500.0, seed=1)
    make_app = lambda: SessionApp(cfg)  # noqa: E731
    make = lambda: _cluster(8, replicate=True)  # noqa: E731
    crash_t = 0.5 * float(make_app().arrivals(1)[-1])
    return make, make_app, (1, crash_t), {"window_s": 1e-3}


SCENARIOS: Dict[str, Callable[[], Any]] = {
    "counter": _counter,
    "kvstore": _kvstore,
    "session": _session,
}


def attach(name: str, cluster: DsmCluster, obs_kw: Dict[str, Any]) -> Any:
    if name == "tracer":
        return Tracer(cluster, max_events=1_000_000)
    if name == "spans":
        return SpanTracer(cluster)
    if name == "monitor":
        return InvariantMonitor(cluster)
    return ClusterObserver(cluster, **obs_kw)


def _hex(x: float) -> str:
    return float(x).hex()


def capture(scenario: str, order: Tuple[str, ...] = CONSUMERS) -> Dict[str, str]:
    """Run ``scenario`` with the consumers attached in ``order``."""
    make, make_app, crash, obs_kw = SCENARIOS[scenario]()
    cluster = make()
    c = {name: attach(name, cluster, obs_kw) for name in order}
    cluster.schedule_crash(*crash)
    result = cluster.run(make_app())
    violations = c["monitor"].finish()
    c["observer"].sample()

    out: Dict[str, str] = {}
    out["tracer"] = "\n".join(
        f"{_hex(e.time)} {e.step} {e.pid} {e.kind} {e.detail}"
        for e in c["tracer"].events
    )
    st = c["spans"]
    out["spans"] = "\n".join(
        f"{s.sid} {s.pid} {s.kind} {_hex(s.t0)} {_hex(s.t1)} {s.detail!r} "
        f"{s.key!r} {s.incarnation} {s.status} {s.parent} {s.cause_edge} "
        f"{s.step0} {s.step1}"
        for s in st.spans
    )
    out["edges"] = "\n".join(
        f"{e.eid} {e.src} {e.dst} {_hex(e.t_send)} {e.msg_type} {e.key!r} "
        f"{e.src_span} {e.dst_span} {_hex(e.t_recv)} {e.status}"
        for e in st.edges
    ) + "\ncrash_points " + repr([(p, _hex(t)) for p, t in st.crash_points])
    out["chrome"] = json.dumps(to_chrome_trace(st, meta={}), sort_keys=True)
    mon = c["monitor"]
    out["checks"] = json.dumps(
        {"checks": mon.checks, "violations": [v.to_dict() for v in violations]},
        sort_keys=True,
    )
    out["flight"] = json.dumps(
        {"crash_dumps": mon.crash_dumps, "final": mon.flight_record("final")},
        sort_keys=True,
    )
    obs = c["observer"]
    report = build_report(
        obs.registry, {"scenario": scenario}, result=result,
        recoveries=obs.recovery_records,
    )
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        write_jsonl(path, report)
        with open(path, encoding="utf-8") as fh:
            out["observer"] = fh.read()
    finally:
        os.unlink(path)
    return out


def digest(outputs: Dict[str, str]) -> Dict[str, List[Any]]:
    """sha256 and line count of every canonical output."""
    return {
        k: [hashlib.sha256(v.encode()).hexdigest(), v.count("\n") + 1]
        for k, v in sorted(outputs.items())
    }


def main() -> None:
    fixture = {name: digest(capture(name)) for name in SCENARIOS}
    with open(FIXTURE, "w") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"written to {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    main()
