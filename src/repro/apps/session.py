"""DSM-backed session cache driven by a deterministic open-loop generator.

The serving workload the ROADMAP's north star asks for (open item 1):
instead of barrier-phased kernel iterations, each process is a frontend
serving a stream of user requests against a shared **session table** —
one float64 cell per session key, guarded by stripe locks exactly like
:mod:`repro.apps.kvstore`.

**Open-loop traffic.** Request arrival times are a pure function of the
configuration — exponential interarrivals at ``rate`` requests per
virtual second per process — and are *independent of service
completions*: the serving loop sleeps until the next arrival only when
it is ahead of schedule, and otherwise serves immediately, carrying the
backlog. That makes queueing delay (arrival → service start) an honest
overload/disruption signal: a crash stalls the cluster, arrivals keep
accumulating, and the post-recovery backlog shows up as a queueing-delay
spike that decays as the loop catches back up — the degradation the
windowed tail-latency series and the SLO reconvergence measure.

**Request synthesis** (all pure functions of ``(seed, pid, request)``,
so the resumable loop replays identically after recovery):

* each request belongs to a *user* drawn uniformly from the population;
* with probability ``session_affinity`` it touches the user's home key
  (session stickiness — per-user state concentrates on one cell),
  otherwise an independent key drawn from a zipfian popularity
  distribution over the whole table (hot shared keys);
* it is a read with probability ``read_fraction``, else a write.

Writes are additive with integer-valued deltas (the kvstore discipline),
so the final table is exact in float64 and independent of lock order and
crash schedules — crash-sweep's recovery-equivalence oracle holds for
every injection point. Reads return values that depend on interleaving
and are deliberately **not** stored in checkpointable state or asserted.

Latency observation happens through ``proc.obs`` (the per-node probe)
when an observer is attached, and costs nothing otherwise:

* ``lat.request`` — arrival → completion, per request;
* ``lat.request.read`` / ``lat.request.write`` — the same, split by op;
* ``lat.queue`` — arrival → service start (queueing delay only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.apps.base import AppConfig, DsmApp, phase_loop
from repro.dsm.protocol import DsmProcess
from repro.sim.engine import Delay

__all__ = ["SessionConfig", "SessionApp"]

#: seed-stream tags (third element of the RNG seed tuple) so the arrival
#: process and per-request draws never collide with other apps' streams
_ARRIVAL_STREAM = 101
_REQUEST_STREAM = 202


@dataclass
class SessionConfig(AppConfig):
    steps: int = 3
    #: session table size (keys) and stripe-lock count
    n_keys: int = 256
    n_stripes: int = 8
    #: user population (per process — frontends have disjoint users)
    n_users: int = 32
    #: requests served per process per step (a barrier closes each step)
    requests_per_step: int = 8
    #: open-loop arrival rate, requests per virtual second per process
    rate: float = 4000.0
    #: fraction of requests that only read the session cell
    read_fraction: float = 0.75
    #: probability a request hits the user's sticky home key instead of
    #: an independent zipfian draw over the whole table
    session_affinity: float = 0.6
    #: zipf exponent for the non-sticky key popularity distribution
    zipf_s: float = 1.1
    #: service-time CPU charge per request
    compute_per_op: float = 2e-5

    def __post_init__(self) -> None:
        if self.n_stripes < 1 or self.n_stripes > self.n_keys:
            raise ValueError(
                f"n_stripes must be in [1, n_keys]: {self.n_stripes}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be positive: {self.rate}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction not in [0,1]: {self.read_fraction}")
        if not 0.0 <= self.session_affinity <= 1.0:
            raise ValueError(
                f"session_affinity not in [0,1]: {self.session_affinity}"
            )


def _zipf_cdf(cfg: SessionConfig) -> np.ndarray:
    """Cumulative zipfian popularity over the key space (rank 1 hottest)."""
    weights = 1.0 / np.arange(1, cfg.n_keys + 1, dtype=np.float64) ** cfg.zipf_s
    return np.cumsum(weights / weights.sum())


def _write_delta(pid: int, r: int) -> float:
    """Integer-valued session update (exact in float64, order-free)."""
    return float((pid + r) % 7 + 1)


class SessionApp(DsmApp):
    name = "session"

    def __init__(self, cfg: SessionConfig | None = None) -> None:
        self.cfg = cfg or SessionConfig()
        self._cdf = _zipf_cdf(self.cfg)
        #: per-pid arrival schedules and request tables, derived lazily
        #: from the config (not run state: pure, so sharing the caches
        #: across incarnations and replays is safe)
        self._arrivals: Dict[int, np.ndarray] = {}
        self._params: Dict[int, List[Tuple[int, bool]]] = {}

    def configure(self, cluster: Any) -> None:
        self.r_sessions = cluster.allocate("sessions", self.cfg.n_keys)

    def init_state(self, pid: int) -> Dict[str, Any]:
        return {"step": 0, "phase": 0}

    # ------------------------------------------------------------------
    # the open-loop schedule
    # ------------------------------------------------------------------
    def arrivals(self, pid: int) -> np.ndarray:
        """Virtual arrival time of every request of process ``pid``."""
        arr = self._arrivals.get(pid)
        if arr is None:
            cfg = self.cfg
            n = cfg.steps * cfg.requests_per_step
            rng = np.random.default_rng((cfg.seed, pid, _ARRIVAL_STREAM))
            gaps = rng.exponential(1.0 / cfg.rate, size=n)
            arr = self._arrivals[pid] = np.cumsum(gaps)
        return arr

    def params(self, pid: int) -> List[Tuple[int, bool]]:
        """``(key, is_read)`` of every request of process ``pid``.

        Request ``r`` draws ``(u_user, u_aff, u_key, u_rw)`` from its own
        stream ``(seed, pid, 202, r)``. With probability
        ``session_affinity`` it touches the user's sticky home key — a
        stable zipf-distributed cell per ``(pid, user)`` drawn from stream
        ``(seed, pid, 101, user)`` so hot users share hot cells — and
        otherwise the zipf key ``u_key`` picks. Built on first use, in
        ``run``, so setting a cluster up stays cheap.
        """
        table = self._params.get(pid)
        if table is None:
            cfg = self.cfg
            n = cfg.steps * cfg.requests_per_step
            u = np.array(
                [
                    np.random.default_rng(
                        (cfg.seed, pid, _REQUEST_STREAM, r)
                    ).random(4)
                    for r in range(n)
                ]
            ).reshape(n, 4)
            users = (u[:, 0] * cfg.n_users).astype(np.int64) % cfg.n_users
            keys = np.searchsorted(self._cdf, u[:, 2])
            sticky = u[:, 1] < cfg.session_affinity
            home: Dict[int, int] = {}
            for r in np.flatnonzero(sticky).tolist():
                user = int(users[r])
                if user not in home:
                    rng = np.random.default_rng(
                        (cfg.seed, pid, _ARRIVAL_STREAM, user)
                    )
                    home[user] = int(np.searchsorted(self._cdf, rng.random()))
                keys[r] = home[user]
            keys = np.minimum(keys, cfg.n_keys - 1)
            is_read = u[:, 3] < cfg.read_fraction
            table = self._params[pid] = list(zip(keys.tolist(), is_read.tolist()))
        return table

    def _stripe(self, key: int) -> int:
        return key * self.cfg.n_stripes // self.cfg.n_keys

    # ------------------------------------------------------------------
    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        cfg = self.cfg
        arrivals = self.arrivals(proc.pid)
        params = self.params(proc.pid)

        def phase_serve(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            for i in range(cfg.requests_per_step):
                r = step * cfg.requests_per_step + i
                arrival = float(arrivals[r])
                now = proc.engine.now
                if now < arrival:
                    # ahead of schedule: idle until the arrival. A bare
                    # Delay charges no TimeBucket, so Figure-3 breakdowns
                    # and span reconciliation stay exact
                    yield Delay(arrival - now)
                service_start = proc.engine.now
                key, is_read = params[r]
                stripe = self._stripe(key)
                yield from proc.acquire(stripe)
                if is_read:
                    yield from proc.read_range(self.r_sessions, key, key + 1)
                else:
                    view = yield from proc.write_range(
                        self.r_sessions, key, key + 1
                    )
                    view[0] = view[0] + _write_delta(proc.pid, r)
                yield from proc.compute(cfg.compute_per_op)
                yield from proc.release(stripe)
                obs = proc.obs
                if obs is not None:
                    done = proc.engine.now
                    obs.app_latency("lat.queue").observe(service_start - arrival)
                    obs.app_latency("lat.request").observe(done - arrival)
                    cls = "read" if is_read else "write"
                    obs.app_latency(f"lat.request.{cls}").observe(done - arrival)
            yield from proc.barrier()

        yield from phase_loop(proc, state, cfg.steps, [phase_serve])

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def expected_total(self, num_procs: int) -> float:
        cfg = self.cfg
        total = 0.0
        for pid in range(num_procs):
            for r, (_key, is_read) in enumerate(self.params(pid)):
                if not is_read:
                    total += _write_delta(pid, r)
        return total

    def check_result(self, cluster: Any) -> None:
        want = self.expected_total(cluster.config.num_procs)
        got = float(cluster.shared_snapshot(self.r_sessions).sum())
        assert got == want, f"session table total {got} != {want}"
