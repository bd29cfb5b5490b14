"""The suite: every workload untraced then traced, each in a fresh
process, merged into one document; ``--aa`` runs it twice and compares.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from perf import check, compare, spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Sections of a single-workload document that the suite document keeps.
KEPT = ("sizes", "digest", "end_to_end", "per_layer", "budget_us_per_pkt",
        "worker_budget_us_per_pkt", "per_use_case_ms", "not_applicable",
        "unavailable")


def environment() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_suite(args, out: Path, order: List[str]) -> Dict[str, object]:
    env = environment()
    results: Dict[str, object] = {}
    for name in order:
        merged: Dict[str, object] = {"correct": True, "problems": []}
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(out),
            ] + (["--quick"] if args.quick else [])
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                   timeout=900)
            doc_path = out / f"doc-{name}-t{trace}.json"
            if not doc_path.exists():
                merged["correct"] = False
                merged["problems"].append(
                    f"trace={trace} run died with exit code {child.returncode}"
                )
                continue
            with open(doc_path) as handle:
                doc = json.load(handle)
            doc_path.unlink()
            merged["correct"] = merged["correct"] and doc["correct"]
            merged["problems"] += doc["problems"]
            key = "traced" if trace else "untraced"
            merged[key] = {
                k: doc[k] for k in ("attempted", "failed", "passes", "measured_s")
                if k in doc
            }
            merged.update({k: doc[k] for k in KEPT if k in doc})
        results[name] = merged
        print(f"  {name}: {'ok' if merged['correct'] else 'FAILED'}",
              file=sys.stderr)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    return {
        "schema": spec.SCHEMA,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "env": env,
        "workloads": {name: results[name] for name in spec.WORKLOAD_NAMES},
    }


def gate_violations(document) -> List[str]:
    """The two gates on the trace itself (full-size runs only)."""
    problems = []
    low, high = spec.BUDGET_CLOSURE_PCT
    for name, result in document["workloads"].items():
        layer = result.get("per_layer", {})
        closure = (layer.get("trace.budget_closure_pct") or {}).get("value")
        overhead = (layer.get("trace.overhead_pct") or {}).get("value")
        if closure is None or not low <= closure <= high:
            problems.append(f"{name}: trace.budget_closure_pct = {closure}")
        if overhead is None or overhead >= spec.TRACE_OVERHEAD_MAX_PCT:
            problems.append(f"{name}: trace.overhead_pct = {overhead}")
    return problems


def rewrite_golden(args, document) -> None:
    """Drop this (seed, size)'s digests, or record those of ``document``."""
    golden = check.load_golden(check.GOLDEN_PATH)
    key = check.golden_key(args.seed, args.quick)
    golden.pop(key, None)
    if document is not None:
        golden[key] = {
            name: result["digest"]
            for name, result in document["workloads"].items()
        }
    with open(check.GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(args) -> int:
    out = Path(args.out or HERE / "out")
    out.mkdir(parents=True, exist_ok=True)
    order = list(spec.WORKLOAD_NAMES)
    if args.update_golden:
        rewrite_golden(args, None)  # this run is checked by invariants only
    documents = [run_suite(args, out, order)]
    if args.aa:
        documents.append(run_suite(args, out, order[::-1]))
    status = 0
    for label, document in zip("AB", documents):
        path = out / ("perf.json" if not args.aa else f"{label}.json")
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1)
        if not all(w["correct"] for w in document["workloads"].values()):
            status = 1
        gates = [] if args.quick else gate_violations(document)
        for problem in gates:
            print(f"TRACE GATE: {problem}", file=sys.stderr)
        if gates and not status:
            status = 3
    if args.update_golden and not status:
        rewrite_golden(args, documents[0])
    if args.aa:
        verdicts = compare.compare(*documents)
        print(compare.render(verdicts))
        if compare.failed(verdicts) and not status:
            status = 4
    else:
        print(json.dumps(documents[0], indent=1))
    return status


