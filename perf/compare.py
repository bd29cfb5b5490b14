#!/usr/bin/env python3
"""Compare two suite documents: ``perf/compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles, the bound, B relative to A (A is the base of every ratio),
and a verdict --

* ``ok``          B is no worse than A by more than the bound;
* ``regressed``   it is;
* ``unresolved``  A's own inter-quartile spread is wider than the bound,
                  so this pair of runs cannot tell.

Counts the program makes (``exact`` in perf/spec.py) must be identical
and get ``same`` / ``changed``.  Exit code 1 if anything regressed or
changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf import spec

#: setup_s may also worsen by this much in absolute terms: a quarter of
#: half a second is less than one cold import costs.
SETUP_ABS_SLACK_S = 0.25


class Row(NamedTuple):
    workload: str
    metric: str
    unit: str
    a: Optional[Dict[str, float]]
    b: Optional[Dict[str, float]]
    bound: Optional[float]
    worse_by: Optional[float]  # share of A's median; > 0 means B is worse
    verdict: str


def _worse_by(metric: spec.Metric, a: float, b: float) -> float:
    delta = (a - b) if metric.better == "higher" else (b - a)
    if a == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(a)


def judge(workload: str, metric: spec.Metric, a: Dict[str, float],
          b: Dict[str, float]) -> Row:
    a_value, b_value = a.get("value"), b.get("value")
    if a_value is None or b_value is None:
        return Row(workload, metric.name, metric.unit, a, b, metric.bound, None,
                   "unavailable")
    worse = _worse_by(metric, a_value, b_value)
    allowed = metric.bound or 0.0
    if metric.name == "setup_s" and a_value > 0:
        allowed = max(allowed, SETUP_ABS_SLACK_S / a_value)
    if "q1" in a and a_value and (a["q3"] - a["q1"]) / abs(a_value) > allowed:
        verdict = "unresolved"
    elif worse > allowed:
        verdict = "regressed"
    else:
        verdict = "ok"
    return Row(workload, metric.name, metric.unit, a, b, metric.bound, worse,
               verdict)


def compare(doc_a: dict, doc_b: dict) -> List[Row]:
    rows: List[Row] = []
    bounded = spec.END_TO_END + spec.END_TO_END_UNLISTED
    for name in spec.WORKLOAD_NAMES:
        a = doc_a["workloads"].get(name, {})
        b = doc_b["workloads"].get(name, {})
        for metric in bounded:
            if name not in metric.on:
                continue
            a_stats = a.get("end_to_end", {}).get(metric.name)
            b_stats = b.get("end_to_end", {}).get(metric.name)
            if a_stats is None or b_stats is None:
                rows.append(Row(name, metric.name, metric.unit, a_stats, b_stats,
                                metric.bound, None, "missing"))
                continue
            rows.append(judge(name, metric, a_stats, b_stats))
        for metric in spec.PER_LAYER:
            if not metric.exact or name not in metric.on:
                continue
            a_stats = a.get("per_layer", {}).get(metric.name)
            b_stats = b.get("per_layer", {}).get(metric.name)
            if a_stats is None or b_stats is None:
                verdict = "missing"
            else:
                verdict = ("same" if a_stats["value"] == b_stats["value"]
                           else "changed")
            rows.append(Row(name, metric.name, metric.unit, a_stats, b_stats,
                            None, None, verdict))
    return rows


def failed(rows: List[Row]) -> bool:
    return any(r.verdict in ("regressed", "changed", "missing") for r in rows)


def _cell(stats: Optional[Dict[str, float]]) -> str:
    if not stats or stats.get("value") is None:
        return "-"
    text = f"{stats['value']:.4g}"
    if "q1" in stats:
        text += f" [{stats['q1']:.4g}, {stats['q3']:.4g}]"
    return text


def render(rows: List[Row]) -> str:
    lines = [
        f"{'workload':15s} {'metric':34s} {'A median [q1, q3]':30s} "
        f"{'B median [q1, q3]':30s} {'bound':>6s} {'B worse by (of A)':>18s}  verdict"
    ]
    for r in rows:
        bound = "-" if r.bound is None else f"{100 * r.bound:.0f}%"
        worse = "-" if r.worse_by is None else f"{100 * r.worse_by:+.2f}%"
        lines.append(
            f"{r.workload:15s} {r.metric + ' (' + r.unit + ')':34s} "
            f"{_cell(r.a):30s} {_cell(r.b):30s} {bound:>6s} {worse:>18s}  {r.verdict}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in paths:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(render(rows))
    return 1 if failed(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
