"""The instrumentation bus: a fixed set of typed hook points.

One :class:`Hooks` object per cluster, shared by its engine, network,
protocol processes, FT managers and recovery code. Each hook point is a
plain list of subscribers. An emitter tests the list once (an empty list
is falsy, so a run with nothing attached pays one attribute load and one
truth test per site) and calls every subscriber in subscription order
with the point's arguments:

==========  =========================================  =====================
point       emitted by                                 arguments
==========  =========================================  =====================
``send``    ``DsmCluster.send``, before the network    ``src, dst, msg``
``deliver`` ``Network._deliver``, before the handler   ``src, dst, msg,
                                                       dropped``
``probe``   cluster, FT, replica and recovery code     ``pid, kind, detail,
                                                       data``
``event``   ``Engine.run``, before each event runs     ``time, step, fn``
``op``      protocol, FT and cluster operations        ``proc, kind, phase,
                                                       arg``
``commit``  an acquire, barrier or checkpoint took     ``proc, kind, arg``
            effect
``wait``    ``DsmProcess._waited``: a wait is charged  ``proc, kind, bucket,
                                                       seconds``
``latency`` applications' own latency observations     ``proc, name,
                                                       seconds``
==========  =========================================  =====================

``op`` brackets a blocking operation: ``phase`` is ``"begin"``, then
``"end"`` when it returns or ``"abort"`` when its process is killed
inside it (:meth:`Hooks.op_span`). DESIGN.md §14 lists each point's
kinds and subscribers.

Subscribers only record: they send nothing, schedule nothing and mutate
no simulated state, so an observed run is bit-identical to an unobserved
one, and — since no subscriber reads another's output — subscription
order does not change any consumer's output either.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List

__all__ = ["Hooks", "POINTS"]

#: the hook points, in the order of the table above
POINTS = (
    "send", "deliver", "probe", "event", "op", "commit", "wait", "latency",
)


class Hooks:
    """Subscriber lists of one cluster's hook points (see module doc)."""

    __slots__ = POINTS

    def __init__(self) -> None:
        for point in POINTS:
            setattr(self, point, [])

    def subscribe(self, **subscribers: Callable[..., None]) -> None:
        """Append one subscriber per named point, e.g.
        ``hooks.subscribe(send=on_send, probe=on_probe)``."""
        for point, fn in subscribers.items():
            if point not in POINTS:
                raise ValueError(f"unknown hook point {point!r}")
            getattr(self, point).append(fn)

    def emit_probe(self, pid: int, kind: str, detail: str,
                   data: Any = None) -> None:
        """Emit one ``probe`` event (probes are rare: the guard is here)."""
        for fn in self.probe:
            fn(pid, kind, detail, data)

    def op_span(self, proc: Any, kind: str, arg: Any,
                body: Iterator[Any]) -> Iterator[Any]:
        """The generator ``body`` as one ``kind`` operation of ``proc``:
        ``op`` begin before its first step, end after it returns, abort
        if its process is killed inside it. With no ``op`` subscriber
        this is ``body`` itself, so an unobserved operation runs as is.
        """
        if not self.op:
            return body
        return self._op_span(proc, kind, arg, body)

    def _op_span(self, proc: Any, kind: str, arg: Any,
                 body: Iterator[Any]) -> Iterator[Any]:
        op: List[Callable[..., None]] = self.op
        for fn in op:
            fn(proc, kind, "begin", arg)
        phase = "abort"
        try:
            result = yield from body
            phase = "end"
        finally:
            for fn in op:
                fn(proc, kind, phase, arg)
        return result
