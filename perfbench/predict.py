"""Check the layer split the workloads were chosen to show.

Reads the traced-run summaries that ``run.py --trace 1`` writes to
``perfbench/out/`` (one per workload and seed; the lowest seed of each
workload is used) and prints each prediction with PASS or FAIL::

    python3 perfbench/predict.py

A failed prediction is a finding about the program, not a reason to
change the workloads.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import Dict

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: a layer is "near zero" below this share of the traced wall time
NEAR_ZERO_PCT = 1.0


def load() -> Dict[str, Dict[str, dict]]:
    """workload -> layer -> {self_s, incl_s, calls, self_pct}."""
    found: Dict[str, tuple] = {}
    for path in glob.glob(os.path.join(OUT_DIR, "*.trace.json")):
        with open(path) as fh:
            summary = json.load(fh)
        key = summary["workload"]
        if key not in found or summary["seed"] < found[key][0]:
            found[key] = (summary["seed"], summary)
    out = {}
    for name, (_seed, summary) in found.items():
        root = summary["root_s"]
        layers = summary["layers"]
        for v in layers.values():
            v["self_pct"] = 100.0 * v["self_s"] / root
        out[name] = layers
    return out


def main() -> int:
    data = load()
    missing = {"barrier-wide", "serve-crash", "monitor-crash"} - set(data)
    if missing:
        print(f"no traced run of {sorted(missing)} in {OUT_DIR}", file=sys.stderr)
        return 2
    bw, sc, mc = data["barrier-wide"], data["serve-crash"], data["monitor-crash"]

    def share(layers: dict, *names: str) -> float:
        return sum(layers[n]["self_pct"] for n in names)

    core = [n for n in bw if n.startswith("core.")]
    checks = [
        (
            "dsm.interval + dsm.vclock self share: barrier-wide > serve-crash",
            share(bw, "dsm.interval", "dsm.vclock") > share(sc, "dsm.interval", "dsm.vclock"),
            f"{share(bw, 'dsm.interval', 'dsm.vclock'):.1f}% vs "
            f"{share(sc, 'dsm.interval', 'dsm.vclock'):.1f}%",
        ),
        (
            f"core.* self share on barrier-wide near zero (< {NEAR_ZERO_PCT}%)",
            share(bw, *core) < NEAR_ZERO_PCT,
            ", ".join(f"{n} {bw[n]['self_pct']:.2f}%" for n in core if bw[n]["self_s"]),
        ),
        (
            "observe.invariants is the largest layer on monitor-crash",
            max(mc, key=lambda n: mc[n]["self_s"]) == "observe.invariants",
            f"{mc['observe.invariants']['self_pct']:.1f}% self, largest other: "
            + max((n for n in mc if n != "observe.invariants"),
                  key=lambda n: mc[n]["self_s"]),
        ),
        (
            "observe.invariants absent on barrier-wide and serve-crash",
            bw["observe.invariants"]["calls"] == 0 and sc["observe.invariants"]["calls"] == 0,
            f"calls {bw['observe.invariants']['calls']} / {sc['observe.invariants']['calls']}",
        ),
    ]
    for text, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {text}: {detail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
