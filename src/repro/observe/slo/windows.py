"""Windowed tail latency: rotating the percentile engine over virtual time.

A :class:`WindowedLatency` is a :class:`~repro.observe.latency.engine.
LatencyHistogram` that *additionally* files every observation into the
fixed virtual-time window containing the observation instant, so a run
report can carry p50/p99 **series over time** instead of only the
end-of-run aggregate (DESIGN.md §13). Window ``w`` covers
``[w·window_s, (w+1)·window_s)`` of virtual time; the window index of an
observation is a pure function of the clock reading, so:

* **rotation is insertion-order invariant** — each window histogram
  inherits the engine's order-invariance, and which window an
  observation lands in depends only on *when* it was observed;
* **window-merge equals whole-run merge** — merging every window's
  histogram reproduces the total histogram exactly (bucket counts,
  min/max, percentile estimates; the floating-point ``sum`` agrees up to
  addition reordering), property-tested;
* **observation stays read-only** — the clock callback reads the
  engine's virtual time and nothing else, so windowed collection cannot
  perturb the observed run (golden-pinned).

The total (parent) histogram keeps feeding everything that existed
before windowing — ``lat`` report records, merged cluster rows — while
``windows`` feeds the new ``wlat`` records, the SLO burn-rate engine and
the recovery degradation timeline.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.observe.latency.engine import (
    DEFAULT_BASE,
    DEFAULT_GROWTH,
    LatencyHistogram,
)

__all__ = ["WindowedLatency", "merge_windowed"]

#: pending observations a histogram holds before filing them into their
#: windows. Most windows see only a few observations (about 1.6 on the
#: 8-process serving benchmark), so a record per observation is smaller
#: than a histogram per window; the cap bounds the records when windows
#: are dense and nothing reads them
MAX_UNFILED = 4096


class WindowedLatency(LatencyHistogram):
    """A latency histogram that also rotates into virtual-time windows."""

    __slots__ = ("clock", "window_s", "_windows", "_unfiled")

    def __init__(
        self,
        name: str = "",
        node: int = -1,
        clock: Callable[[], float] = None,  # required; kwarg for symmetry
        window_s: float = 1e-3,
        base: float = DEFAULT_BASE,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        super().__init__(name, node, base=base, growth=growth)
        if clock is None:
            raise ValueError("WindowedLatency needs a clock callback")
        if window_s <= 0:
            raise ValueError(f"window_s must be positive: {window_s}")
        self.clock = clock
        self.window_s = window_s
        self._windows: Dict[int, LatencyHistogram] = {}
        #: (window index, value, bucket index) of each observation not yet
        #: filed into its window histogram, in observation order
        self._unfiled: List[Tuple[int, float, Optional[int]]] = []

    def window_index(self, t: float) -> int:
        return int(t // self.window_s)

    def window_bounds(self, index: int) -> Tuple[float, float]:
        return index * self.window_s, (index + 1) * self.window_s

    def observe(self, value: float) -> None:
        # the total and the window share one geometry, so one bucket
        # lookup serves both; the window is fixed now, by the clock
        value, index = self._locate(value)
        self._file(value, index)
        unfiled = self._unfiled
        unfiled.append((self.window_index(self.clock()), value, index))
        if len(unfiled) >= MAX_UNFILED:
            self._file_windows()

    @property
    def windows(self) -> Dict[int, LatencyHistogram]:
        """{window index: histogram of observations made in that window}."""
        self._file_windows()
        return self._windows

    def _file_windows(self) -> None:
        """File the pending observations into their windows, in order."""
        windows = self._windows
        for w, value, index in self._unfiled:
            h = windows.get(w)
            if h is None:
                h = windows[w] = LatencyHistogram(
                    self.name, self.node, base=self.base, growth=self.growth
                )
            h._file(value, index)
        self._unfiled.clear()

    def merged_windows(self) -> LatencyHistogram:
        """All windows merged back into one histogram (== the total)."""
        out = LatencyHistogram(
            self.name, self.node, base=self.base, growth=self.growth
        )
        for w in sorted(self.windows):
            out.merge_from(self.windows[w])
        return out

    def windows_to_dicts(self) -> List[Dict[str, object]]:
        """One serializable record per non-empty window, in time order."""
        out: List[Dict[str, object]] = []
        for w in sorted(self.windows):
            t0, t1 = self.window_bounds(w)
            out.append(
                {
                    "window": w,
                    "t0": t0,
                    "t1": t1,
                    "window_s": self.window_s,
                    **self.windows[w].to_dict(),
                }
            )
        return out


def merge_windowed(
    parts: Iterable[WindowedLatency], name: str = "", node: int = -1
) -> Dict[int, LatencyHistogram]:
    """Merge several nodes' windowed histograms window-by-window.

    Returns ``{window index: cluster-merged histogram}`` — the input to
    the SLO engine and the degradation timeline, which evaluate the
    *cluster's* tail per window, not each node's.
    """
    merged: Dict[int, LatencyHistogram] = {}
    for part in parts:
        for w, h in part.windows.items():
            tgt = merged.get(w)
            if tgt is None:
                tgt = merged[w] = LatencyHistogram(
                    name or h.name, node, base=h.base, growth=h.growth
                )
            tgt.merge_from(h)
    return merged
