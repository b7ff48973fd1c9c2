"""Vector timestamps (logical vector time) for LRC interval ordering.

A process's *local logical time* is its interval counter; the vector
timestamp ``vt`` of process ``i`` satisfies ``vt[i] = `` current interval
of ``i`` and ``vt[j] = `` the most recent interval of ``j`` whose effects
``i`` has seen (§3). Timestamps are immutable: every mutation returns a
new value, which eliminates aliasing bugs between protocol state, logs
and checkpoints.

Fast path
---------
Vector-clock operations run on every message, write notice and trim
decision, so the lattice operations avoid the validating constructor:
internal results are built with :meth:`VClock._make` (a raw tuple
wrapper), ``zero()`` returns a per-length interned instance, ``leq``
exits at the first violating component, and ``join``/``meet`` return an
existing operand whenever it already equals the result (so repeated
joins against a dominated clock allocate nothing and enable ``is``
short-circuits downstream). The public constructor keeps full
validation for values that cross an API boundary.

Scaling
-------
At the paper's widths (≤ 8) a Python tuple beats any array: per-call
NumPy dispatch overhead dwarfs the O(n) loop. Past
:data:`VClock.ARRAY_WIDTH` components the balance flips — every lattice
operation becomes O(n) Python-level work on the tuple path — so wide
clocks store a read-only ``int64`` array and run ``join``/``meet``/
``leq`` (and the :func:`vmin`/:func:`vmax` folds) vectorized, checking
operand dominance first so the dominated-join case allocates nothing.
Either representation materializes the other lazily: the component tuple
``v`` (canonical for hashing, equality and iteration at every width) is
built from the array only when something actually asks for it, so chains
of wide lattice ops never pay O(n) Python-object churn per step. Callers
never see which representation is live.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

__all__ = ["VClock", "vmin", "vmax"]

#: width at which lattice ops switch from tuple loops to NumPy (module
#: alias of :attr:`VClock.ARRAY_WIDTH` — globals resolve faster than
#: attributes on the per-message hot path)
_ARRAY_WIDTH = 16


class VClock:
    """Immutable vector timestamp over ``n`` processes."""

    __slots__ = ("_t", "_a", "_n")

    #: width at which lattice ops switch from tuple loops to NumPy
    ARRAY_WIDTH = _ARRAY_WIDTH

    #: interned zero clocks, keyed by vector length
    _zero_cache: Dict[int, "VClock"] = {}

    def __init__(self, v: Iterable[int]):
        t = tuple(int(x) for x in v)
        if any(x < 0 for x in t):
            raise ValueError(f"negative component in {t}")
        self._t: Optional[Tuple[int, ...]] = t
        self._a: Optional[np.ndarray] = None
        self._n = len(t)

    @classmethod
    def _make(cls, v: Tuple[int, ...]) -> "VClock":
        """Wrap an already-validated component tuple without checks."""
        self = object.__new__(cls)
        self._t = v
        self._a = None
        self._n = len(v)
        return self

    @classmethod
    def _make_arr(cls, a: np.ndarray) -> "VClock":
        """Wrap an already-validated int64 component array without checks."""
        self = object.__new__(cls)
        a.setflags(write=False)
        self._t = None
        self._a = a
        self._n = len(a)
        return self

    @classmethod
    def from_array(cls, a: np.ndarray) -> "VClock":
        """Validating constructor from an integer array (copies)."""
        arr = np.array(a, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"expected 1-d components, got shape {arr.shape}")
        if arr.size and int(arr.min()) < 0:
            raise ValueError("negative component")
        return cls._make_arr(arr)

    @classmethod
    def zero(cls, n: int) -> "VClock":
        z = cls._zero_cache.get(n)
        if z is None:
            z = cls._zero_cache[n] = cls._make((0,) * n)
        return z

    @property
    def v(self) -> Tuple[int, ...]:
        """Component tuple (canonical; materialized from the array lazily)."""
        t = self._t
        if t is None:
            t = self._t = tuple(self._a.tolist())
        return t

    def as_array(self) -> np.ndarray:
        """Read-only ``int64`` view of the components (cached)."""
        a = self._a
        if a is None:
            a = np.array(self._t, dtype=np.int64)
            a.setflags(write=False)
            self._a = a
        return a

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        t = self._t
        if t is not None:
            return t[i]
        return int(self._a[i])

    def __iter__(self):
        return iter(self.v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VClock):
            return NotImplemented
        if self is other:
            return True
        if self._n != other._n:
            return False
        a, b = self._a, other._a
        if a is not None and b is not None:
            return bool((a == b).all())
        return self.v == other.v

    def __hash__(self) -> int:
        return hash(self.v)

    def __repr__(self) -> str:
        return f"VClock{self.v}"

    # -- partial order ---------------------------------------------------
    def leq(self, other: "VClock") -> bool:
        """Componentwise ``self <= other`` (the happened-before order)."""
        if self is other:
            return True
        if self._n != other._n:
            self._check(other)
        if self._n >= _ARRAY_WIDTH:
            return bool((self.as_array() <= other.as_array()).all())
        a, b = self._t, other._t
        if a is None:
            a = self.v
        if b is None:
            b = other.v
        if a is b:
            return True
        for x, y in zip(a, b):
            if x > y:
                return False
        return True

    def lt(self, other: "VClock") -> bool:
        return self.leq(other) and not other.leq(self)

    def concurrent(self, other: "VClock") -> bool:
        return not self.leq(other) and not other.leq(self)

    # -- lattice operations ----------------------------------------------
    def join(self, other: "VClock") -> "VClock":
        """Componentwise max (least upper bound)."""
        if self is other:
            return self
        if self._n != other._n:
            self._check(other)
        if self._n >= _ARRAY_WIDTH:
            x, y = self.as_array(), other.as_array()
            ge = x >= y
            if ge.all():
                return self
            if not ge.any() or (y >= x).all():
                return other
            return VClock._make_arr(np.maximum(x, y))
        a, b = self._t, other._t
        if a is None:
            a = self.v
        if b is None:
            b = other.v
        if a is b:
            return self
        out = tuple(map(max, a, b))
        if out == a:
            return self
        if out == b:
            return other
        return VClock._make(out)

    def meet(self, other: "VClock") -> "VClock":
        """Componentwise min (greatest lower bound)."""
        if self is other:
            return self
        if self._n != other._n:
            self._check(other)
        if self._n >= _ARRAY_WIDTH:
            x, y = self.as_array(), other.as_array()
            le = x <= y
            if le.all():
                return self
            if not le.any() or (y <= x).all():
                return other
            return VClock._make_arr(np.minimum(x, y))
        a, b = self._t, other._t
        if a is None:
            a = self.v
        if b is None:
            b = other.v
        if a is b:
            return self
        out = tuple(map(min, a, b))
        if out == a:
            return self
        if out == b:
            return other
        return VClock._make(out)

    # -- updates -----------------------------------------------------------
    def bump(self, i: int, by: int = 1) -> "VClock":
        """New clock with component ``i`` advanced by ``by``."""
        n = self._n
        if not (0 <= i < n):
            raise IndexError(i)
        if by < 0:
            raise ValueError("cannot decrease a component")
        if n >= _ARRAY_WIDTH:
            out = self.as_array().copy()
            out[i] += by
            return VClock._make_arr(out)
        v = self._t
        if v is None:
            v = self.v
        return VClock._make(v[:i] + (v[i] + by,) + v[i + 1 :])

    def with_component(self, i: int, value: int) -> "VClock":
        n = self._n
        if not (0 <= i < n):
            raise IndexError(i)
        if value < 0:
            raise ValueError(f"negative component: {value}")
        if n >= _ARRAY_WIDTH:
            a = self.as_array()
            if int(a[i]) == value:
                return self
            out = a.copy()
            out[i] = value
            return VClock._make_arr(out)
        v = self._t
        if v is None:
            v = self.v
        if v[i] == value:
            return self
        return VClock._make(v[:i] + (value,) + v[i + 1 :])

    def join_sparse(self, comps: Dict[int, int]) -> "VClock":
        """Componentwise max with the sparse clock ``{index: value}``.

        Returns ``self`` when no component rises; otherwise one new clock,
        however many components rose.
        """
        wide = self._n >= _ARRAY_WIDTH
        cur = self.as_array() if wide else self.v
        out = None
        for i, x in comps.items():
            if x > cur[i]:
                if out is None:
                    out = cur.copy() if wide else list(cur)
                out[i] = x
        if out is None:
            return self
        return VClock._make_arr(out) if wide else VClock._make(tuple(out))

    def _check(self, other: "VClock") -> None:
        if self._n != other._n:
            raise ValueError(
                f"vector length mismatch: {self._n} vs {other._n}"
            )


def vmin(clocks: Iterable[VClock]) -> VClock:
    """Componentwise minimum over a non-empty iterable of clocks."""
    cs = list(clocks)
    if not cs:
        raise ValueError("vmin of empty iterable")
    out = cs[0]
    if len(cs) > 2 and out._n >= _ARRAY_WIDTH:
        return VClock._make_arr(np.minimum.reduce([c.as_array() for c in cs]))
    for c in cs[1:]:
        out = out.meet(c)
    return out


def vmax(clocks: Iterable[VClock]) -> VClock:
    """Componentwise maximum over a non-empty iterable of clocks."""
    cs = list(clocks)
    if not cs:
        raise ValueError("vmax of empty iterable")
    out = cs[0]
    if len(cs) > 2 and out._n >= _ARRAY_WIDTH:
        return VClock._make_arr(np.maximum.reduce([c.as_array() for c in cs]))
    for c in cs[1:]:
        out = out.join(c)
    return out
