"""Layer spans for the traced benchmark run.

The traced run wraps, from outside the program, the public entry points
of every layer module and records one span per call: (layer, start,
end, parent). Nothing under ``src/`` is modified; the wrappers are
installed on the classes and modules for the duration of one run and
removed afterwards, so untraced runs in the same process execute the
original code.

Generator entry points (``DsmProcess.acquire``, ``FtManager.
take_checkpoint``, ``RecoveryManager.recover_and_resume``, ...) are timed
per resume: every ``send``/``throw`` into the generator is one span, so
a span never covers virtual-time waiting, only host work.

A layer's self time is the time its spans cover minus the time their
child spans cover; the time under the root span that no layer span
covers is ``bench.unattributed``. Self times of all layers plus the
unattributed time add up to the root span's duration exactly (up to
float rounding), which :func:`LayerTracer.summary` checks.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: layer -> [(module, owner, [attribute names])]; owner None means the
#: attributes are module-level functions. Names follow the package layout
#: (``repro.sim``, ``repro.dsm``, ``repro.core``, ``repro.observe``).
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, Optional[str], List[str]]]] = {
    "cluster": [
        ("repro.cluster", "DsmCluster",
         ["__init__", "setup", "start", "crash", "_start_recovery",
          "_handle_recovery_msg", "result", "shared_snapshot"]),
        ("repro.cluster", "ProcHost", ["deliver", "drain_queue"]),
    ],
    "sim.engine": [("repro.sim.engine", "Engine", ["run"])],
    "sim.network": [
        ("repro.cluster", "DsmCluster", ["send"]),
        ("repro.sim.network", "Network", ["send", "_deliver"]),
    ],
    "sim.storage": [
        ("repro.sim.storage", "Disk", ["write", "read"]),
        ("repro.sim.storage", "CheckpointStore",
         ["put", "begin_put", "commit_put", "delete"]),
        ("repro.sim.storage", "ReplicaStore", ["store_for", "drop", "clear"]),
    ],
    "dsm.protocol": [
        ("repro.cluster", "ProcHost", ["make_protocol"]),
        ("repro.dsm.protocol", "DsmProcess",
         ["__init__", "handle_message", "acquire", "release", "barrier",
          "read_range", "write_range"]),
    ],
    "dsm.interval": [
        ("repro.dsm.interval", "NoticeTable",
         ["add", "add_all", "between", "own_after", "trim_creator_before"]),
    ],
    "dsm.vclock": [
        ("repro.dsm.vclock", "VClock", ["join", "leq", "with_component"]),
    ],
    "dsm.diff": [
        # the protocol and recovery modules import the kernels by name
        ("repro.dsm.protocol", None, ["compute_diff", "apply_diff"]),
        ("repro.core.recovery", None, ["apply_diff"]),
    ],
    "core.ftmanager": [
        ("repro.cluster", "DsmCluster", ["_install_ft"]),
        ("repro.core.ftmanager", "FtManager",
         ["__init__", "take_checkpoint", "piggyback_for", "on_piggyback", "run_llt",
          "run_cgc", "on_interval_flush", "at_sync_point"]),
    ],
    "core.checkpoint": [
        ("repro.core.checkpoint", "CheckpointManager",
         ["__init__", "stage", "commit_staged", "commit", "collect"]),
    ],
    "core.trimming": [
        ("repro.core.trimming", "TrimmingInfo",
         ["learn_tckp", "learn_p0v", "tmin", "wn_keep_from", "rel_bound",
          "acq_bound", "diff_bound", "bar_keep_from"]),
    ],
    "core.replica": [
        ("repro.core.replica", "Replicator",
         ["recompute", "full_sync", "on_ckpt_begin", "on_ckpt_commit",
          "op", "on_ack"]),
        ("repro.core.ftmanager", None, ["replica_apply"]),
        ("repro.core.replica", None, ["serve_replica_query"]),
    ],
    "core.recovery": [
        ("repro.core.recovery", "RecoveryManager", ["recover_and_resume"]),
        ("repro.core.recovery", "RecoveryResponder", ["handle"]),
    ],
    "observe.observer": [
        ("repro.observe.observer", "ClusterObserver",
         ["sample", "on_barrier", "on_checkpoint", "on_ckpt_write",
          "on_replica_ack", "on_recovery_phases", "on_llt", "on_cgc"]),
        ("repro.observe.observer", "NodeProbe", ["app_latency"]),
        ("repro.observe.registry", "Histogram", ["observe"]),
        ("repro.observe.latency.engine", "LatencyHistogram", ["observe"]),
        ("repro.observe.slo.windows", "WindowedLatency", ["observe"]),
    ],
    "observe.invariants": [
        ("repro.observe.invariants.monitor", "InvariantMonitor", ["finish"]),
    ],
    "observe.tracing": [
        ("repro.observe.tracing.spans", "SpanTracer",
         ["_open_span", "_close_span", "_on_wait", "_on_probe"]),
    ],
}

#: layer of the application coroutine (``app.run``), wrapped per instance
APPS_LAYER = "apps"
#: self time of the root span: set-up and glue outside every layer
UNATTRIBUTED = "bench.unattributed"

LAYERS: List[str] = [*LAYER_ENTRY_POINTS, APPS_LAYER]


class _Stack:
    """Open spans of the traced run plus the recorded span table."""

    def __init__(self, names: List[str]) -> None:
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        k = len(names)
        self.self_s = [0.0] * k
        self.incl_s = [0.0] * k
        self.calls = [0] * k
        self._depth = [0] * k
        # open spans: parallel lists (name id, start, child time, row)
        self._open_name: List[int] = []
        self._open_t0: List[float] = []
        self._open_child: List[float] = []
        self._open_row: List[int] = []
        # recorded spans (name id, start, end, parent row; -1 = root)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")

    def enter(self, nid: int) -> None:
        self._open_name.append(nid)
        self._open_row.append(len(self.span_name))
        self.span_name.append(nid)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._open_row[-2] if len(self._open_row) > 1 else -1)
        self._open_child.append(0.0)
        self._depth[nid] += 1
        self.calls[nid] += 1
        # read the clock last so the bookkeeping above is not inside
        self._open_t0.append(time.perf_counter())

    def exit(self) -> None:
        t1 = time.perf_counter()
        nid = self._open_name.pop()
        t0 = self._open_t0.pop()
        child = self._open_child.pop()
        row = self._open_row.pop()
        dur = t1 - t0
        self.span_start[row] = t0
        self.span_end[row] = t1
        self.self_s[nid] += dur - child
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.incl_s[nid] += dur
        if self._open_child:
            self._open_child[-1] += dur


def _span_call(stack: _Stack, nid: int, fn: Callable) -> Callable:
    enter, exit_ = stack.enter, stack.exit

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapped


class _TimedGen:
    """Generator proxy timing every resume of ``gen`` as one span."""

    __slots__ = ("_gen", "_stack", "_nid")

    def __init__(self, gen: Iterator[Any], stack: _Stack, nid: int) -> None:
        self._gen = gen
        self._stack = stack
        self._nid = nid

    def __iter__(self) -> "_TimedGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        stack = self._stack
        stack.enter(self._nid)
        try:
            return self._gen.send(value)
        finally:
            stack.exit()

    def throw(self, *exc: Any) -> Any:
        stack = self._stack
        stack.enter(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            stack.exit()

    def close(self) -> None:
        self._gen.close()


def _span_gen(stack: _Stack, nid: int, fn: Callable) -> Callable:
    def wrapped(*args: Any, **kwargs: Any) -> _TimedGen:
        # creating the generator runs none of its body
        return _TimedGen(fn(*args, **kwargs), stack, nid)

    wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapped


def _wrap(stack: _Stack, nid: int, fn: Callable) -> Callable:
    code = getattr(fn, "__code__", None)
    if code is not None and code.co_flags & 0x20:  # CO_GENERATOR
        return _span_gen(stack, nid, fn)
    return _span_call(stack, nid, fn)


class LayerTracer:
    """Installs layer spans for one traced run; use as a context manager.

    ``hook_consumer`` wraps the hook closures an attached observability
    consumer (observer, invariant monitor, span tracer) installs on the
    cluster, so each consumer's own cost is a span of its layer and the
    rest of the hook chain stays in the layers it belongs to.
    """

    def __init__(self) -> None:
        self.stack = _Stack([*LAYERS, UNATTRIBUTED])
        self._restore: List[Tuple[Any, str, Any]] = []
        self.root_s = 0.0

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for layer, entries in LAYER_ENTRY_POINTS.items():
            nid = self.stack.index[layer]
            for modname, owner_name, attrs in entries:
                mod = importlib.import_module(modname)
                owner = mod if owner_name is None else getattr(mod, owner_name)
                for attr in attrs:
                    orig = vars(owner).get(attr)
                    if orig is None:
                        self.__exit__()
                        raise RuntimeError(
                            f"layer {layer}: no entry point {modname}."
                            f"{owner_name + '.' if owner_name else ''}{attr}"
                        )
                    self._restore.append((owner, attr, orig))
                    setattr(owner, attr, _wrap(self.stack, nid, orig))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def hook_app(self, app: Any) -> None:
        """Time the application's own code (every coroutine resume) as ``apps``."""
        nid = self.stack.index[APPS_LAYER]
        app.run = _span_gen(self.stack, nid, app.run)
        for attr in ("configure", "init_shared", "init_state", "check_result"):
            setattr(app, attr, _span_call(self.stack, nid, getattr(app, attr)))

    def hook_consumer(self, layer: str, cluster: Any, attach: Callable[[], Any]) -> Any:
        """Run ``attach()`` and wrap every hook it installs as ``layer``."""
        targets = [cluster, cluster.network, cluster.engine, *cluster.hosts]
        before = [dict(vars(t)) for t in targets]
        nid = self.stack.index[layer]
        self.stack.enter(nid)
        try:
            consumer = attach()
        finally:
            self.stack.exit()
        for target, old in zip(targets, before):
            for attr, value in list(vars(target).items()):
                if callable(value) and old.get(attr) is not value:
                    setattr(target, attr, _wrap(self.stack, nid, value))
        return consumer

    # -- measurement ----------------------------------------------------
    def run_root(self, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` as the root span (its self time is unattributed)."""
        stack = self.stack
        nid = stack.index[UNATTRIBUTED]
        stack.enter(nid)
        try:
            return fn()
        finally:
            stack.exit()
            self.root_s = stack.span_end[0] - stack.span_start[0]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-layer self/inclusive seconds and call counts."""
        st = self.stack
        out = {
            name: {
                "self_s": st.self_s[i],
                "incl_s": st.incl_s[i],
                "calls": st.calls[i],
            }
            for i, name in enumerate(st.names)
        }
        total = sum(v["self_s"] for v in out.values())
        if abs(total - self.root_s) > 1e-6 * max(1.0, self.root_s):
            raise AssertionError(
                f"layer self times sum to {total:.6f}s, root span is "
                f"{self.root_s:.6f}s"
            )
        return out

    @property
    def span_count(self) -> int:
        return len(self.stack.span_name)

    def write_spans(self, path: str) -> None:
        """Write the span table (layer id, start, end, parent) as .npz."""
        import numpy as np

        st = self.stack
        t0 = st.span_start[0] if len(st.span_start) else 0.0
        np.savez_compressed(
            path,
            layers=np.array(st.names),
            name=np.frombuffer(st.span_name, dtype=np.int32),
            start=np.frombuffer(st.span_start, dtype=np.float64) - t0,
            end=np.frombuffer(st.span_end, dtype=np.float64) - t0,
            parent=np.frombuffer(st.span_parent, dtype=np.int32),
        )
