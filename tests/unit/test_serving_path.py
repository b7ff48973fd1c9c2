"""The serving path's cached host work against per-call references.

Three pieces of host work on the serving path are done once instead of
per call, and each must give exactly what the per-call version gave:

* ``SessionApp.params(pid)`` — the per-process request table — against
  the per-request generator build it replaced (:func:`request_params`);
* ``NoticeTable.count()`` — a counter kept by the table's two mutators —
  against a full recount;
* ``WindowedLatency.observe`` — one bucket lookup filed into the total
  at once and into the window histogram when the windows are read —
  against two independent ``LatencyHistogram.observe`` calls.
"""

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.session import (
    _ARRIVAL_STREAM,
    _REQUEST_STREAM,
    SessionApp,
    SessionConfig,
)
from repro.core import FtConfig
from repro.dsm.interval import NoticeTable, records_of
from repro.dsm.messages import WriteNotice
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock
from repro.observe.latency import LatencyHistogram
from repro.observe.slo import windows as windows_mod
from repro.observe.slo.windows import WindowedLatency
from tests.conftest import make_cluster


# ----------------------------------------------------------------------
# the request table
# ----------------------------------------------------------------------
def request_params(
    cfg: SessionConfig, cdf: np.ndarray, pid: int, r: int
) -> Tuple[int, int, bool]:
    """Reference: (user, key, is_read) of request ``r`` of process ``pid``,
    building the request's generators on the spot."""
    rng = np.random.default_rng((cfg.seed, pid, _REQUEST_STREAM, r))
    u_user, u_aff, u_key, u_rw = rng.random(4)
    user = int(u_user * cfg.n_users) % cfg.n_users
    if u_aff < cfg.session_affinity:
        home = np.random.default_rng((cfg.seed, pid, _ARRIVAL_STREAM, user))
        key = int(np.searchsorted(cdf, home.random()))
    else:
        key = int(np.searchsorted(cdf, u_key))
    key = min(key, cfg.n_keys - 1)
    return user, key, bool(u_rw < cfg.read_fraction)


def reference_table(app: SessionApp, pid: int):
    n = app.cfg.steps * app.cfg.requests_per_step
    return [request_params(app.cfg, app._cdf, pid, r)[1:] for r in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_request_table_matches_per_request_draws(seed):
    app = SessionApp(SessionConfig(steps=4, requests_per_step=8, seed=seed))
    for pid in range(8):
        table = app.params(pid)
        assert table == reference_table(app, pid), pid
        assert all(type(k) is int and type(rd) is bool for k, rd in table)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(session_affinity=0.0),
        dict(session_affinity=1.0, n_users=3),
        dict(read_fraction=0.0),
        dict(read_fraction=1.0),
        dict(n_keys=8, n_stripes=2, zipf_s=3.0),
    ],
    ids=["no-affinity", "all-sticky", "all-writes", "all-reads", "tiny-table"],
)
def test_request_table_matches_at_config_edges(overrides):
    app = SessionApp(SessionConfig(steps=3, seed=7, **overrides))
    for pid in range(4):
        assert app.params(pid) == reference_table(app, pid), pid


def test_request_table_survives_recovery_on_the_same_app():
    """Replays after a fail-stop read the table the first incarnation
    built; it is a pure function of the config, so it stays correct."""
    app = SessionApp(
        SessionConfig(steps=4, requests_per_step=6, n_keys=128, rate=5000.0,
                      seed=1)
    )
    assert app._params == {}  # nothing is built before the run
    cluster = make_cluster(4, ft=True, ft_config=FtConfig(replicate=True))
    cluster.schedule_crash(1, 0.5 * float(app.arrivals(1)[-1]))
    result = cluster.run(app)  # check_result reads the table too
    assert result.recoveries == 1
    for pid in range(4):
        assert app.params(pid) == reference_table(app, pid), pid


def test_request_table_is_not_built_at_setup():
    app = SessionApp(SessionConfig(seed=1))
    make_cluster(4, ft=True).setup(app)
    assert app._params == {}


# ----------------------------------------------------------------------
# the notice count
# ----------------------------------------------------------------------
N = 4

notice = st.tuples(
    st.integers(0, N - 1), st.integers(1, 6), st.integers(0, 3)
)
op = st.one_of(
    st.tuples(
        st.just("add"), st.lists(notice, max_size=12), st.integers(-1, N - 1)
    ),
    st.tuples(st.just("trim"), st.integers(0, N - 1), st.integers(0, 8)),
)


def wn(creator, interval, page):
    vt = VClock.zero(N).with_component(creator, interval)
    return WriteNotice(creator, interval, PageId(0, page), vt)


@settings(max_examples=100, deadline=None)
@given(st.lists(op, max_size=25))
def test_notice_count_matches_full_recount(ops):
    """Duplicates, own-creator skips and out-of-order intervals all come
    from the strategy: intervals are drawn unsorted from a small range."""
    t = NoticeTable(N)
    for kind, a, b in ops:
        if kind == "add":
            t.add_all(records_of(wn(*x) for x in a), skip_creator=b)
        else:
            t.trim_creator_before(a, b)
        assert t.count() == len(t.all_notices())


# ----------------------------------------------------------------------
# one bucket lookup per windowed observation
# ----------------------------------------------------------------------
def assert_same_histogram(got: LatencyHistogram, want: LatencyHistogram):
    assert got.buckets == want.buckets
    assert got.zero_count == want.zero_count
    assert got.count == want.count
    assert got.total == want.total
    assert (got.min, got.max) == (want.min, want.max)


def check_windowed_against_two_observes(samples, window_s=1e-3, reads=()):
    """``samples``: (clock reading, value) pairs in observation order;
    the windows are also read after each observation numbered in
    ``reads``, which files what is pending so far."""
    now = [0.0]
    wl = WindowedLatency("lat.x", 2, clock=lambda: now[0], window_s=window_s)
    total = LatencyHistogram("lat.x", 2)
    windows = {}
    for k, (t, value) in enumerate(samples):
        now[0] = t
        wl.observe(value)
        assert len(wl._unfiled) < windows_mod.MAX_UNFILED
        if k in reads:
            assert sum(h.count for h in wl.windows.values()) == k + 1
        total.observe(value)
        w = int(t // window_s)
        windows.setdefault(w, LatencyHistogram("lat.x", 2)).observe(value)
    assert_same_histogram(wl, total)
    assert sorted(wl.windows) == sorted(windows)
    for w, h in windows.items():
        assert_same_histogram(wl.windows[w], h)


def test_windowed_edge_values_match_two_observes():
    h = LatencyHistogram()
    values = [0.0, -0.0, -1e-12, -5.0, h.base, h.base * 0.5, 1e-3]
    values += [h.upper_bound(i) for i in range(0, 130, 7)]
    values += [np.float64(h.upper_bound(40)), 3]
    samples = [(0.4e-3 * k, v) for k, v in enumerate(values)]
    check_windowed_against_two_observes(samples)
    # every edge value lands in the bucket the engine's geometry names
    assert h.bucket_index(h.base) == 0
    for i in range(0, 130, 7):
        assert h.bucket_index(h.upper_bound(i)) == i


def test_windowed_filing_at_the_pending_cap_matches(monkeypatch):
    """Dense windows nobody reads are filed whenever the pending records
    reach the cap; the result is the same as filing on read."""
    monkeypatch.setattr(windows_mod, "MAX_UNFILED", 3)
    samples = [(1e-4 * k, 1e-6 * (k % 5)) for k in range(40)]
    check_windowed_against_two_observes(samples)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 0.05, allow_nan=False),
            st.one_of(
                st.floats(-1.0, 10.0, allow_nan=False),
                st.integers(0, 130).map(lambda i: LatencyHistogram().upper_bound(i)),
                st.just(0.0),
            ),
        ),
        max_size=60,
    ),
    st.sets(st.integers(0, 59)),
)
def test_windowed_observation_matches_two_observes(samples, reads):
    check_windowed_against_two_observes(samples, reads=reads)
