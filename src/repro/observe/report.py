"""Run reports: JSONL export and plain-text rendering of observed runs.

A *run report* is the structured outcome of one observed cluster run:
the registry's per-node time series, histogram summaries and end-of-run
totals. It round-trips through JSONL — one self-describing record per
line — so CI can parse it with nothing but ``json.loads``:

* ``{"record": "header", ...}``   — run metadata (first line)
* ``{"record": "series", ...}``   — one per (metric, node) series
* ``{"record": "hist", ...}``     — one per (metric, node) histogram
* ``{"record": "lat", ...}``      — one per (op class, node) percentile
  distribution, plus one cluster-merged record per op class
  (``node = -1``); carries both summary percentiles and the raw log
  buckets so readers can re-merge across runs (schema 2)
* ``{"record": "wlat", ...}``     — one per (op class, window) fixed
  virtual-time window of the cluster-merged distribution, carrying the
  window index/bounds plus the same log-bucket payload as ``lat``
  (schema 3; only when the run collected windows)
* ``{"record": "recovery", ...}`` — one per completed recovery: the pid
  plus the phase anatomy (detect/restore/handshake/replay/total), the
  degradation timeline's crash marks (schema 3)
* ``{"record": "slo", ...}``      — one per evaluated objective: the
  spec, per-window burn rates and any burn-rule violations (schema 3)
* ``{"record": "summary", ...}``  — end-of-run totals (last line)

Schema history: 1 = header/series/hist/summary; 2 adds ``lat`` records
(DESIGN.md §12); 3 adds ``wlat``/``recovery``/``slo`` records
(DESIGN.md §13). Readers accept all three.

Rendering reuses the repo's ASCII reporting layer
(:mod:`repro.render`), so Figure 4-style curves and overview
tables come out of the same pipeline the paper harness uses.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.render import (
    Table,
    ascii_histogram,
    ascii_series,
    format_bytes,
    format_duration,
)
from repro.observe.registry import CLUSTER_NODE, MetricsRegistry

__all__ = [
    "build_report",
    "write_jsonl",
    "load_jsonl",
    "validate_report",
    "render_report",
    "latency_table",
    "slo_sections",
    "KEY_SERIES",
    "KEY_LATENCIES",
]

#: series a healthy FT run report must contain (CI smoke asserts these):
#: per-node stable+volatile log size, diff traffic and the retained
#: checkpoint count (the paper's bounded-window claim) over virtual
#: time; the ``ft.replica_*`` pair (buddy-held replica bytes, own
#: replication lag in checkpoints) is required only of replication-
#: enabled runs (``header["replicate"]``)
KEY_SERIES = (
    "ft.log_volatile_bytes",
    "ft.log_saved_bytes",
    "dsm.diff_bytes_sent",
    "ft.ckpts_retained",
    "ft.replica_bytes",
    "ft.replica_lag",
)

#: latency op classes a schema-2 report must carry records for (the
#: NodeProbe pre-creates these three, so they exist — possibly with
#: count 0 — in every observed run; ckpt/replica/recovery classes appear
#: only when the corresponding events happened)
KEY_LATENCIES = ("lat.fetch", "lat.acquire", "lat.barrier")

#: fields every ``lat`` record must carry to be renderable/mergeable
_LAT_FIELDS = ("metric", "node", "count", "p50", "p90", "p99", "p999",
               "max", "base", "growth", "buckets")

#: fields every ``wlat`` record additionally carries (window geometry)
_WLAT_FIELDS = ("metric", "node", "window", "t0", "t1", "window_s",
                "count", "buckets")

#: fields every ``recovery`` record must carry to anchor a crash mark
_RECOVERY_FIELDS = ("pid", "crash_time", "total")


def build_report(
    registry: MetricsRegistry,
    meta: Dict[str, Any],
    result: Any = None,
    recoveries: Any = None,
    slos: Any = None,
) -> Dict[str, Any]:
    """Assemble the structured run report from a sampled registry.

    ``meta`` carries run identity (app, procs, ft, cadence); ``result``
    is the cluster's :class:`~repro.cluster.RunResult` (optional — unit
    tests build reports from bare registries). ``recoveries`` is the
    observer's ``recovery_records`` list (crash runs); ``slos`` a list
    of :class:`~repro.observe.slo.SloResult` (or pre-dumped dicts) when
    the run evaluated objectives. Windowed (``wlat``) records appear
    automatically whenever the registry collected windows — cluster-
    merged only (``node = -1``), which bounds report size at
    ``windows x op classes`` regardless of cluster size.
    """
    series = [
        {
            "record": "series",
            "metric": name,
            "node": node,
            "points": [[float(x), float(v)] for x, v in pts],
        }
        for (name, node), pts in sorted(registry.series.items())
    ]
    hists = []
    for name in registry.histogram_names():
        for node, h in registry.histograms_by_name(name).items():
            hists.append(
                {
                    "record": "hist",
                    "metric": name,
                    "node": node,
                    **h.summary(),
                }
            )
    lats = []
    for name in registry.latency_names():
        per_node = registry.latencies_by_name(name)
        for node, h in per_node.items():
            lats.append(
                {"record": "lat", "metric": name, "node": node, **h.to_dict()}
            )
        if CLUSTER_NODE not in per_node:
            merged = registry.merged_latency(name)
            if merged is not None:
                lats.append(
                    {
                        "record": "lat",
                        "metric": name,
                        "node": CLUSTER_NODE,
                        **merged.to_dict(),
                    }
                )
    wlats = []
    window_s = registry.window_s
    if window_s is not None:
        for name in registry.latency_names():
            for w, h in sorted(registry.merged_windows(name).items()):
                wlats.append(
                    {
                        "record": "wlat",
                        "metric": name,
                        "node": CLUSTER_NODE,
                        "window": w,
                        "t0": w * window_s,
                        "t1": (w + 1) * window_s,
                        "window_s": window_s,
                        **h.to_dict(),
                    }
                )
    recovery_recs = [
        {"record": "recovery", **rec} for rec in (recoveries or ())
    ]
    slo_recs = [
        {
            "record": "slo",
            **(s.to_dict() if hasattr(s, "to_dict") else dict(s)),
        }
        for s in (slos or ())
    ]
    summary: Dict[str, Any] = {"record": "summary", "samples": registry.samples_taken}
    if result is not None:
        summary.update(
            virtual_time=result.wall_time,
            total_msgs=result.traffic.total_msgs,
            total_bytes=result.traffic.total_bytes,
            ft_bytes=result.traffic.ft_bytes,
            crashes=result.crashes,
            recoveries=result.recoveries,
            checkpoints=sum(
                s.checkpoints_taken for s in result.ft_stats if s is not None
            ),
        )
    header = {"record": "header", "schema": 3, **meta}
    if wlats and "window_s" not in header:
        header["window_s"] = window_s
    return {
        "header": header,
        "series": series,
        "hists": hists,
        "lats": lats,
        "wlats": wlats,
        "recoveries": recovery_recs,
        "slos": slo_recs,
        "summary": summary,
    }


def write_jsonl(path: str, report: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report["header"], sort_keys=True) + "\n")
        for rec in report["series"]:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for rec in report["hists"]:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for rec in report.get("lats", ()):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for key in ("wlats", "recoveries", "slos"):
            for rec in report.get(key, ()):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fh.write(json.dumps(report["summary"], sort_keys=True) + "\n")


def load_jsonl(path: str) -> Dict[str, Any]:
    """Parse a JSONL run report (schema 1-3) into the structured form."""
    out: Dict[str, Any] = {
        "header": None, "series": [], "hists": [], "lats": [], "wlats": [],
        "recoveries": [], "slos": [], "summary": None,
    }
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.get("record")
            if kind == "header":
                out["header"] = rec
            elif kind == "series":
                out["series"].append(rec)
            elif kind == "hist":
                out["hists"].append(rec)
            elif kind == "lat":
                out["lats"].append(rec)
            elif kind == "wlat":
                out["wlats"].append(rec)
            elif kind == "recovery":
                out["recoveries"].append(rec)
            elif kind == "slo":
                out["slos"].append(rec)
            elif kind == "summary":
                out["summary"] = rec
            else:
                raise ValueError(f"unknown run-report record: {rec!r}")
    return out


def validate_report(report: Dict[str, Any], require_ft: bool = True) -> List[str]:
    """Sanity-check a (loaded) run report; returns human-readable errors."""
    errors: List[str] = []
    if not report.get("header"):
        errors.append("missing header record")
    if report.get("summary") is None:
        errors.append("missing summary record")
    by_metric: Dict[str, List[Dict[str, Any]]] = {}
    for rec in report.get("series", ()):
        by_metric.setdefault(rec["metric"], []).append(rec)
    required = (
        KEY_SERIES if require_ft
        else tuple(n for n in KEY_SERIES if not n.startswith("ft."))
    )
    if not (report.get("header") or {}).get("replicate"):
        required = tuple(
            n for n in required if not n.startswith("ft.replica")
        )
    for name in required:
        recs = by_metric.get(name)
        if not recs:
            errors.append(f"missing key series {name!r}")
            continue
        if all(not rec["points"] for rec in recs):
            errors.append(f"key series {name!r} is empty on every node")
    schema = (report.get("header") or {}).get("schema", 1)
    if schema >= 2:
        lat_metrics = set()
        for i, rec in enumerate(report.get("lats", ())):
            missing = [f for f in _LAT_FIELDS if f not in rec]
            if missing:
                errors.append(f"lat record {i} missing fields {missing}")
                continue
            lat_metrics.add(rec["metric"])
        for name in KEY_LATENCIES:
            if name not in lat_metrics:
                errors.append(f"missing latency op class {name!r}")
    if schema >= 3:
        for i, rec in enumerate(report.get("wlats", ())):
            missing = [f for f in _WLAT_FIELDS if f not in rec]
            if missing:
                errors.append(f"wlat record {i} missing fields {missing}")
        if (report.get("header") or {}).get("window_s") and not report.get(
            "wlats"
        ):
            errors.append(
                "header declares windowed collection but no wlat records"
            )
        for i, rec in enumerate(report.get("recoveries", ())):
            missing = [f for f in _RECOVERY_FIELDS if f not in rec]
            if missing:
                errors.append(f"recovery record {i} missing fields {missing}")
    return errors


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def latency_table(
    lats: List[Dict[str, Any]], title: str = "latency percentiles (virtual time)"
) -> Table:
    """The run report's tail-latency table from ``lat`` records.

    One row per (op class, node) with observations, ordered cluster-
    merged row first per class; shared with the analytics dashboard.
    """
    table = Table(
        title,
        ["op class", "node", "count", "p50", "p90", "p99", "p999", "max"],
        note="cluster rows merge every node's log-bucket histogram; "
        "estimates carry the engine's documented relative-error bound",
    )
    ordered = sorted(
        (rec for rec in lats if rec.get("count")),
        key=lambda r: (r["metric"], r["node"] != CLUSTER_NODE, r["node"]),
    )
    for rec in ordered:
        node = "cluster" if rec["node"] == CLUSTER_NODE else f"p{rec['node']}"
        table.add(
            rec["metric"],
            node,
            rec["count"],
            *(format_duration(rec[k]) for k in ("p50", "p90", "p99", "p999",
                                                "max")),
        )
    return table


def _latency_sections(report: Dict[str, Any]) -> List[str]:
    lats = report.get("lats") or []
    if not any(rec.get("count") for rec in lats):
        return []
    parts = [latency_table(lats).render()]
    # one distribution chart for the busiest op class (cluster-merged)
    merged = [r for r in lats if r["node"] == CLUSTER_NODE and r.get("count")]
    if merged:
        busiest = max(merged, key=lambda r: r["count"])
        buckets = [
            (format_duration(busiest["base"] * busiest["growth"] ** i), c)
            for i, c in busiest.get("buckets", ())
        ]
        if busiest.get("zero"):
            buckets.insert(0, ("0", busiest["zero"]))
        parts.append(
            ascii_histogram(
                f"{busiest['metric']} distribution (cluster, "
                f"{busiest['count']} ops)",
                buckets,
            )
        )
    return parts


def _timeline_metric(report: Dict[str, Any]) -> str:
    """Op class for the degradation timeline: the serving app's request
    latency when present, else the busiest windowed class."""
    counts: Dict[str, int] = {}
    for rec in report.get("wlats", ()):
        if rec.get("node", -1) == CLUSTER_NODE:
            counts[rec["metric"]] = counts.get(rec["metric"], 0) + int(
                rec.get("count", 0)
            )
    if "lat.request" in counts:
        return "lat.request"
    return max(counts, key=counts.get) if counts else ""


def slo_sections(report: Dict[str, Any]) -> List[str]:
    """Degradation timeline + SLO burn-rate sections (schema 3)."""
    # lazy: repro.observe.slo is an optional consumer of this module's
    # report dicts, not a load-time dependency
    from repro.observe.slo import Objective, build_timeline, render_timeline

    parts: List[str] = []
    slos = report.get("slos") or []
    metric = _timeline_metric(report)
    if metric:
        timeline = build_timeline(report, metric=metric)
        objective = None
        for rec in slos:
            if rec.get("metric") == metric:
                objective = Objective(
                    rec["metric"],
                    float(rec["percentile"]),
                    float(rec["threshold_s"]),
                )
                break
        if timeline is not None:
            parts.append(render_timeline(timeline, objective))
    if slos:
        table = Table(
            "SLO burn-rate evaluation",
            ["objective", "windows", "worst burn", "violations", "status"],
            note="burn = (fraction over threshold) / error budget; a rule "
            "fires when long- and short-span burns both exceed its limit",
        )
        lines: List[str] = []
        for rec in slos:
            burns = [float(w.get("burn", 0.0)) for w in rec.get("per_window", ())]
            table.add(
                rec.get("spec", "?"),
                len(rec.get("per_window", ())),
                f"{max(burns, default=0.0):.2f}",
                len(rec.get("violations", ())),
                "OK" if rec.get("ok") else "VIOLATED",
            )
            for v in rec.get("violations", ()):
                lines.append(
                    f"SLO VIOLATION {rec.get('spec', '?')}: {v['rule']} rule "
                    f"at window {v['window']} (burn {v['long_burn']:.1f} over "
                    f"{v['long_windows']}w and {v['short_burn']:.1f} over "
                    f"{v['short_windows']}w, limit {v['max_burn']:g})"
                )
        parts.append(table.render())
        if lines:
            parts.append("\n".join(lines))
    return parts


def _node_series(
    report: Dict[str, Any], metric: str
) -> Dict[str, List[Tuple[float, float]]]:
    out: Dict[str, List[Tuple[float, float]]] = {}
    for rec in report["series"]:
        if rec["metric"] != metric or not rec["points"]:
            continue
        label = "cluster" if rec["node"] == CLUSTER_NODE else f"p{rec['node']}"
        out[label] = [(x, v) for x, v in rec["points"]]
    return out


def _last(points: List[Any]) -> float:
    return float(points[-1][1]) if points else 0.0


def render_report(report: Dict[str, Any]) -> str:
    """Plain-text run report: overview table + key series charts."""
    header = report.get("header") or {}
    summary = report.get("summary") or {}
    title = (
        f"repro observe — {header.get('app', '?')} on "
        f"{header.get('procs', '?')} simulated nodes"
    )
    parts: List[str] = []

    per_node: Dict[int, Dict[str, float]] = {}
    for rec in report["series"]:
        node = rec["node"]
        if node == CLUSTER_NODE:
            continue
        per_node.setdefault(node, {})[rec["metric"]] = _last(rec["points"])
    overview = Table(
        title,
        ["node", "fetches", "diff sent", "log volatile", "log stable",
         "ckpts", "trimmed"],
        note=(
            f"virtual time {summary.get('virtual_time', 0.0) * 1e3:.3f} ms, "
            f"{summary.get('total_msgs', 0)} msgs, "
            f"{summary.get('samples', 0)} samples"
        ),
    )
    for node in sorted(per_node):
        m = per_node[node]
        overview.add(
            f"p{node}",
            int(m.get("dsm.page_fetches", 0)),
            format_bytes(m.get("dsm.diff_bytes_sent", 0)),
            format_bytes(m.get("ft.log_volatile_bytes", 0)),
            format_bytes(m.get("ft.log_saved_bytes", 0)),
            int(m.get("ft.checkpoints_taken", 0)),
            format_bytes(m.get("ft.trim_diff_bytes", 0)),
        )
    parts.append(overview.render())

    charts = [
        ("ft.log_volatile_bytes", "log size (volatile) vs virtual time", "s", "bytes"),
        ("ft.replica_bytes", "buddy-held replica bytes vs virtual time", "s", "bytes"),
        ("ft.replica_lag", "replication lag vs virtual time", "s", "ckpts"),
        ("dsm.diff_bytes_sent", "diff traffic vs virtual time", "s", "bytes"),
        ("ft.log_disk_bytes", "stable log vs checkpoint number", "ckpt", "bytes"),
        ("sim.events_per_vsec", "simulator events per virtual second", "s", "ev/s"),
    ]
    for metric, chart_title, xlabel, ylabel in charts:
        series = _node_series(report, metric)
        if series:
            parts.append(
                ascii_series(chart_title, series, xlabel=xlabel, ylabel=ylabel)
            )

    parts.extend(_latency_sections(report))
    parts.extend(slo_sections(report))

    if report["hists"]:
        waits = Table(
            "synchronization waits",
            ["metric", "node", "count", "mean", "max"],
        )
        for rec in report["hists"]:
            if not rec["count"]:
                continue
            waits.add(
                rec["metric"],
                f"p{rec['node']}",
                rec["count"],
                f"{rec['mean'] * 1e6:.1f} us",
                f"{rec['max'] * 1e6:.1f} us",
            )
        if waits.rows:
            parts.append(waits.render())
    return "\n\n".join(parts)
