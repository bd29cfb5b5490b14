#!/usr/bin/env python3
"""Run the layered end-to-end benchmark.

One workload, as the driver calls it (last stdout line is the result)::

    python3 perf/run.py --workload dev_l3_fast --seed 23 --seconds 20 --trace 0

The whole suite -- every workload untraced then traced, each in a fresh
process, all checks on, one JSON document with every metric by name::

    python3 perf/run.py --seed 23 --out perf/out [--quick] [--aa]

See perf/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, imports included

import resource


def peak_rss_kb() -> int:
    """High-water RSS of this process image.  VmHWM where there is one:
    ``ru_maxrss`` survives exec, so it starts at whatever the spawning
    process had resident and would make the figure depend on the caller."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


_RSS0_KB = peak_rss_kb()

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import spec  # noqa: E402  (stdlib only; the program loads later)

now = time.perf_counter


# -- one workload, this process -----------------------------------------


def setup_samples(args, own: float) -> List[float]:
    """This process's set-up time plus fresh processes that only set up."""
    samples = [own]
    for _ in range(0 if args.quick else spec.SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=170,
        )
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return samples


def main_workload(args) -> int:
    from perf import e2e, layers, workloads

    workload = workloads.make(args.workload, args.seed, args.quick)
    workload.build()
    try:
        workload.warm_up()
        gc.collect()
        gc.freeze()
        setup_own = now() - _T0
        if args.setup_only:
            print(repr(setup_own))
            return 0
        tally = e2e.Tally()
        extra: Dict[str, object] = {}
        if args.trace:
            metrics, extra = layers.measure_traced(workload, args, tally)
            section = "per_layer"
        else:
            metrics, extra = e2e.measure_untraced(
                workload, args, tally,
                peak_rss_mb=lambda: (peak_rss_kb() - _RSS0_KB) / 1024.0,
                setup_samples=lambda: setup_samples(args, setup_own),
            )
            section = "end_to_end"
        tally.finish(workload, args.seed, args.quick)
    finally:
        workload.close()
        gc.unfreeze()

    doc = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": {**spec.sizes(workload.name, args.quick), **extra.pop("sizes", {})},
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "digest": workload.digest,
        section: metrics,
        **extra,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        spans = doc.pop("spans", None)
        if spans is not None:
            with open(out / f"trace-{workload.name}.json", "w") as handle:
                json.dump(spans, handle)
        with open(out / f"doc-{workload.name}-t{args.trace}.json", "w") as handle:
            json.dump(doc, handle, indent=1)
    for problem in tally.problems:
        print(f"CHECK FAILED [{workload.name}]: {problem}", file=sys.stderr)
    if not metrics:
        return 1  # nothing measured: no result line

    listed = spec.PER_LAYER if args.trace else spec.END_TO_END
    line = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            # A layer this workload does not exercise reads 0 here (the
            # driver wants a number for every name); the --out document
            # lists it under not_applicable instead.
            m.name: {"value": (metrics.get(m.name) or {}).get("value") or 0,
                     "unit": m.unit}
            for m in listed
        },
    }
    print(json.dumps(line))
    return 0 if tally.correct else 1


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measure for at least this long (and never fewer "
                             f"than {spec.MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: install the span shims, report per-layer metrics")
    parser.add_argument("--out", help="directory for the document and the spans")
    parser.add_argument("--quick", action="store_true",
                        help=f"1/{spec.QUICK_SCALE} size, two passes, all checks")
    parser.add_argument("--aa", action="store_true",
                        help="suite twice, alternating order, then compare")
    parser.add_argument("--update-golden", action="store_true",
                        help="suite only: record this run's output digests in "
                             "perf/golden.json (after an intended change)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("perf/run.py: no src/repro beside perf/ -- nothing to measure")
    args = parse_args(argv)
    if args.workload:
        return main_workload(args)
    from perf import suite

    return suite.main(args)


if __name__ == "__main__":
    sys.exit(main())
