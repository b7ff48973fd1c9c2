"""Log-bucketed latency histograms: deterministic, mergeable, bounded error.

The percentile engine behind the run report's tail-latency tables
(DESIGN.md §12). An HDR-histogram-style structure specialised for the
simulator's *virtual-time* durations:

* **log buckets** — bucket ``i`` covers ``(base·g^(i-1), base·g^i]``
  for growth factor ``g``; a value's bucket index is a pure function of
  the value, so the histogram state is a pure function of the *multiset*
  of observations (insertion order cannot matter);
* **bounded relative error** — a percentile estimate is the upper bound
  of the bucket holding the rank-``ceil(p/100·n)`` smallest observation,
  clamped to the exact observed maximum. For any true percentile value
  ``t > base`` the estimate ``e`` satisfies ``t <= e <= t·g``, i.e.
  relative error ``<= g - 1`` (property-tested); values at or below
  ``base`` (one virtual nanosecond by default) carry absolute error
  ``<= base``, and exact zeros are reported exactly;
* **mergeable** — bucket counts add elementwise, so per-node histograms
  merge into a cluster-wide distribution without re-observing anything
  (``merge(h1, h2)`` equals the histogram of the concatenated samples,
  also property-tested).

Everything here is registry-private arithmetic: observing a value reads
nothing from the simulation and mutates only this object, preserving the
observability layer's read-only guarantee. ``sum`` is the one field
accumulated in floating point (and therefore nominally insertion-order
sensitive in its last bits); counts, min/max and every percentile
estimate are exactly order-invariant.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "LatencyHistogram",
    "DEFAULT_GROWTH",
    "DEFAULT_BASE",
    "PERCENTILES",
    "exact_percentile",
]

#: default bucket growth factor: 2^(1/4) per bucket, so estimates carry
#: at most ~18.9 % relative error and a 9-decade range (1 ns .. 10 s of
#: virtual time) needs only ceil(log_g(1e10)) = 120 bucket slots
DEFAULT_GROWTH = 2.0 ** 0.25

#: smallest resolvable duration: one virtual nanosecond. Everything in
#: (0, base] lands in bucket 0 with absolute error <= base.
DEFAULT_BASE = 1e-9

#: the run report's standard percentile columns
PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)

#: percentile -> report column label ("p999" for 99.9)
PERCENTILE_LABELS: Dict[float, str] = {
    50.0: "p50", 90.0: "p90", 99.0: "p99", 99.9: "p999",
}


def _rank(p: float, n: int) -> int:
    """Rank (1-based) of the p-th percentile in n sorted samples."""
    return max(1, min(n, math.ceil(p / 100.0 * n)))


def exact_percentile(values: List[float], p: float) -> float:
    """Exact percentile of a sample list under the engine's rank rule.

    The reference the property tests compare bucket estimates against:
    the rank-``ceil(p/100·n)`` smallest value.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


class LatencyHistogram:
    """Sparse log-bucketed distribution of non-negative durations."""

    __slots__ = ("name", "node", "base", "growth", "_log_g", "buckets",
                 "zero_count", "count", "total", "min", "max")

    def __init__(
        self,
        name: str = "",
        node: int = -1,
        base: float = DEFAULT_BASE,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        if base <= 0:
            raise ValueError(f"base must be positive: {base}")
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1: {growth}")
        self.name = name
        self.node = node
        self.base = base
        self.growth = growth
        self._log_g = math.log(growth)
        #: sparse {bucket index: count}; index i covers (ub(i-1), ub(i)]
        self.buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    # bucket geometry
    # ------------------------------------------------------------------
    def upper_bound(self, index: int) -> float:
        return self.base * self.growth ** index

    def bucket_index(self, value: float) -> int:
        """Smallest ``i >= 0`` with ``upper_bound(i) >= value``.

        Computed via a log then corrected by (at most one step of)
        direct comparison, so the mapping is exact despite float
        rounding in ``log`` — the monotonicity the error bound and the
        order-invariance guarantee both rest on.
        """
        if value <= self.base:
            return 0
        i = max(0, math.ceil(math.log(value / self.base) / self._log_g))
        while self.upper_bound(i) < value:
            i += 1
        while i > 0 and self.upper_bound(i - 1) >= value:
            i -= 1
        return i

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        self._file(*self._locate(value))

    def _locate(self, value: float) -> Tuple[float, Optional[int]]:
        """``(value, bucket index)``; the index is None for an exact zero."""
        value = float(value)
        if value < 0.0:
            # virtual durations are differences of a monotone clock;
            # clamp defensive float dust rather than corrupting buckets
            value = 0.0
        return value, (self.bucket_index(value) if value else None)

    def _file(self, value: float, index: Optional[int]) -> None:
        """Count a clamped ``value`` into bucket ``index`` (None: a zero)."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if index is None:
            self.zero_count += 1
        else:
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge_from(self, other: "LatencyHistogram") -> None:
        """Add ``other``'s counts into this histogram (elementwise)."""
        if (other.base, other.growth) != (self.base, self.growth):
            raise ValueError(
                f"cannot merge histograms with different geometry: "
                f"base {self.base} vs {other.base}, "
                f"growth {self.growth} vs {other.growth}"
            )
        for i, c in other.buckets.items():
            self.buckets[i] = self.buckets.get(i, 0) + c
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    @classmethod
    def merged(
        cls, parts: Iterable["LatencyHistogram"], name: str = "", node: int = -1
    ) -> "LatencyHistogram":
        out = None
        for h in parts:
            if out is None:
                out = cls(name or h.name, node, base=h.base, growth=h.growth)
            out.merge_from(h)
        return out if out is not None else cls(name, node)

    # ------------------------------------------------------------------
    # percentiles
    # ------------------------------------------------------------------
    def percentile(self, p: float) -> float:
        """Estimate of the p-th percentile (documented error bounds)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0.0
        rank = _rank(p, self.count)
        cum = self.zero_count
        if cum >= rank:
            return 0.0
        for i in sorted(self.buckets):
            cum += self.buckets[i]
            if cum >= rank:
                est = self.upper_bound(i)
                # exact observed extrema always dominate bucket bounds
                return min(max(est, self.min), self.max)
        return self.max  # unreachable unless counts were corrupted

    def count_over(self, threshold: float) -> int:
        """Observations estimated to exceed ``threshold`` (SLO bad count).

        Exact for thresholds on bucket boundaries; a threshold inside a
        bucket counts that whole bucket as over, so the estimate is
        *conservative* (never under-reports badness) with the engine's
        usual relative-error bound. Exact zeros are never "over" a
        non-negative threshold.
        """
        if threshold < 0.0:
            return self.count
        if self.count and threshold >= self.max:
            return 0
        over = 0
        for i, c in self.buckets.items():
            # bucket i covers (ub(i-1), ub(i)]; entirely at or below the
            # threshold only when its upper bound is
            if self.upper_bound(i) > threshold:
                over += c
        return over

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        for p in PERCENTILES:
            out[PERCENTILE_LABELS[p]] = self.percentile(p)
        return out

    # ------------------------------------------------------------------
    # serialization (run-report "lat" records, analytics merging)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base,
            "growth": self.growth,
            "zero": self.zero_count,
            "buckets": [[i, self.buckets[i]] for i in sorted(self.buckets)],
            "sum": self.total,
            **self.summary(),
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], name: str = "", node: int = -1
    ) -> "LatencyHistogram":
        h = cls(name, node, base=data["base"], growth=data["growth"])
        h.zero_count = int(data.get("zero", 0))
        h.buckets = {int(i): int(c) for i, c in data.get("buckets", ())}
        h.count = int(data["count"])
        h.total = float(data.get("sum", 0.0))
        if h.count:
            h.min = float(data["min"])
            h.max = float(data["max"])
        return h

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram({self.name!r}, node={self.node}, "
            f"count={self.count}, p99={self.percentile(99.0):.3g})"
        )
