"""The instrumentation bus (``repro.sim.hooks``) and its four consumers.

The equivalence fixture (``tests/fixtures/hooks_equivalence.json``) was
recorded while the Tracer, SpanTracer, InvariantMonitor (with its flight
recorder) and ClusterObserver still installed themselves by wrapping
cluster, network, engine and protocol methods; every output must match
it exactly now that they subscribe to hook points instead. One
difference is intended: the wrapping Tracer only ever wrapped the
protocol and FT instances built at setup, so it lost a recovered
process's lock/barrier/flush/fetch/ckpt events; on the bus every
incarnation emits, and those events are now recorded.
"""

from __future__ import annotations

import json

import pytest

from repro import DsmCluster, DsmConfig
from repro.apps.counter import CounterApp, CounterConfig
from repro.core.ftmanager import FtConfig
from repro.sim.engine import Engine, sleep
from repro.sim.hooks import POINTS, Hooks
from tests.unit.hooks_capture import (
    CONSUMERS,
    FIXTURE,
    SCENARIOS,
    attach,
    capture,
    digest,
)

#: Tracer kinds the wrapping Tracer recorded only for setup-time
#: protocol/FT instances
_OP_KINDS = {"lock", "barrier", "flush", "fetch", "ckpt"}


with open(FIXTURE) as _fh:
    RECORDED = json.load(_fh)


def _setup_incarnation_only(tracer_text: str):
    """Split the Tracer timeline into what the wrapping Tracer saw and
    the recovered incarnations' op events it missed."""
    kept, recovered = [], []
    failed = set()
    for line in tracer_text.split("\n"):
        _t, _step, pid, kind, _detail = line.split(" ", 4)
        if kind == "failure":
            failed.add(pid)
        if pid in failed and kind in _OP_KINDS:
            recovered.append(line)
        else:
            kept.append(line)
    return "\n".join(kept), recovered


def _assert_matches_fixture(scenario: str, out):
    out = dict(out)
    out["tracer"], recovered = _setup_incarnation_only(out["tracer"])
    assert recovered, "no events from the recovered incarnation"
    got = digest(out)
    want = RECORDED[scenario]
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], f"{scenario}: {key} differs"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_consumer_outputs_match_recorded_fixture(scenario):
    _assert_matches_fixture(scenario, capture(scenario))


@pytest.mark.parametrize("scenario", ["counter", "kvstore"])
def test_attach_order_does_not_change_outputs(scenario):
    _assert_matches_fixture(
        scenario, capture(scenario, tuple(reversed(CONSUMERS)))
    )


def test_consumers_install_nothing_on_the_cluster():
    cluster = SCENARIOS["counter"]()[0]()
    targets = [cluster, cluster.network, cluster.engine, *cluster.hosts]
    before = [dict(vars(t)) for t in targets]
    for name in CONSUMERS:
        attach(name, cluster, {})  # no sampling ticker: it schedules events
    for target, old in zip(targets, before):
        assert vars(target) == old, type(target).__name__
    assert all(getattr(cluster.hooks, p) for p in ("send", "probe", "op"))


def test_one_bus_per_cluster():
    cluster = DsmCluster(DsmConfig(num_procs=2), ft=True)
    cluster.setup(CounterApp(CounterConfig(steps=1, n_elements=64)))
    assert cluster.engine.hooks is cluster.hooks
    assert cluster.network.hooks is cluster.hooks
    for host in cluster.hosts:
        assert host.proto.hooks is cluster.hooks
    assert all(not getattr(cluster.hooks, p) for p in POINTS)


def test_subscribers_see_recovered_protocol_and_ft_instances():
    cluster = DsmCluster(
        DsmConfig(num_procs=4), ft=True, ft_config=FtConfig(replicate=True)
    )
    ops, probes = [], []
    cluster.hooks.subscribe(
        op=lambda proc, kind, phase, arg: ops.append((proc, kind, phase)),
        probe=lambda pid, kind, detail, data: probes.append((pid, kind, detail)),
    )
    t_free = DsmCluster(
        DsmConfig(num_procs=4), ft=True, ft_config=FtConfig(replicate=True)
    ).run(CounterApp(CounterConfig())).wall_time
    cluster.schedule_crash(1, 0.3 * t_free)
    res = cluster.run(CounterApp(CounterConfig()))
    assert res.recoveries == 1
    first = {id(p) for p, kind, _ in ops if kind == "app" and p.pid == 1}
    assert len(first) == 2  # the setup incarnation and the recovered one
    recovered = cluster.hosts[1].proto
    kinds = {k for p, k, phase in ops if p is recovered and phase == "end"}
    assert {"app", "ckpt", "barrier", "compute"} <= kinds
    # the recovered incarnation's FT manager emits its probes too
    live = probes.index((1, "recovery", "live"))
    assert any(p == 1 and k == "ckpt_write" for p, k, _ in probes[live:])


def test_subscribe_rejects_unknown_points():
    hooks = Hooks()
    with pytest.raises(ValueError, match="unknown hook point"):
        hooks.subscribe(tap=print)
    calls = []
    hooks.subscribe(send=lambda *a: calls.append(1), probe=lambda *a: calls.append(2))
    assert hooks.send and hooks.probe and not hooks.deliver
    hooks.emit_probe(0, "x", "y")
    assert calls == [2]


def test_op_span_brackets_the_body_and_reports_a_kill_as_abort():
    eng = Engine()
    seen = []
    eng.hooks.subscribe(
        op=lambda proc, kind, phase, arg: seen.append((kind, phase, arg, eng.now))
    )

    def body():
        yield from eng.hooks.op_span(None, "compute", 7, sleep(1.0))
        yield from eng.hooks.op_span(None, "acquire", 3, sleep(1.0))

    proc = eng.spawn(body(), name="p")
    eng.run(until=1.5)
    proc.kill()
    assert seen == [
        ("compute", "begin", 7, 0.0),
        ("compute", "end", 7, 1.0),
        ("acquire", "begin", 3, 1.0),
        ("acquire", "abort", 3, 1.5),
    ]


def test_op_span_returns_the_body_value():
    hooks = Hooks()
    hooks.subscribe(op=lambda *a: None)

    def body():
        return 42
        yield  # pragma: no cover

    gen = hooks.op_span(None, "fetch", None, body())
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == 42
