"""The untraced run: the end-to-end metrics, and the tally of packets
attempted and failed that both kinds of run keep.
"""

from __future__ import annotations

import statistics
import traceback
from typing import Callable, Dict, List

from perf import check, spec
from perf.workloads import burst_percentiles_ms, update_sums


def spread(values: List[float]) -> Dict[str, float]:
    """Median with the sample count, minimum and quartiles beside it."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
    }


class Tally:
    """Packets attempted and failed, and every violated check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, workload, rec=None):
        """One verified pass; a raised exception fails its packets."""
        self.attempted += workload.packets
        try:
            done = workload.run_pass(rec)
        except Exception:
            traceback.print_exc()
            self.failed += workload.packets
            self.problems.append("exception during a pass (see stderr)")
            return None
        self.failed += workload.verify(done)
        self.problems += done.problems
        return done._replace(outputs=[])  # verified; free the packets

    def leg(self, outputs, expects) -> None:
        self.attempted += len(expects)
        self.failed += check.count_device_misses(outputs, expects)

    def finish(self, workload, seed: int, quick: bool) -> None:
        self.problems += workload.invariants()
        stale = check.check_golden(workload.name, seed, quick, workload.digest)
        if stale:
            # The digest cannot say which packets differ: the pass is lost.
            self.failed += workload.packets
            self.problems += stale
        if self.failed:
            self.problems.append(f"{self.failed} packets lost or wrong")

    @property
    def correct(self) -> bool:
        return not self.problems and not self.failed


def measure_untraced(workload, args, tally: Tally,
                     peak_rss_mb: Callable[[], float],
                     setup_samples: Callable[[], List[float]]):
    """Whole passes until ``--seconds`` are measured.  ``peak_rss_mb`` is
    read when the traffic is over, ``setup_samples`` taken after that."""
    passes = []
    measured = 0.0
    floor = spec.pass_floor(workload.name, args.quick)
    while len(passes) < floor or measured < args.seconds:
        done = tally.run(workload)
        if done is None:
            break
        passes.append(done)
        measured += done.wall
    if not passes:
        return {}, {}
    p50, p90 = burst_percentiles_ms(passes)
    metrics = {
        "pps": spread([workload.packets / done.wall for done in passes]),
        "burst_ms_p50": spread(p50),
        "burst_ms_p90": spread(p90),
        "peak_rss_mb": {"value": peak_rss_mb(), "n": 1},
        "setup_s": spread(setup_samples()),
        "loss_ratio": {"value": tally.failed / max(tally.attempted, 1),
                       "n": tally.attempted},
    }
    if workload.name == "update_churn":
        metrics["update_ms_p50"] = spread(
            update_sums(passes, "stage_update", "commit")
        )
        metrics["post_update_burst_ms_p50"] = spread(
            update_sums(passes, "post_update_burst")
        )
    metrics = {name: {**stats, "unit": spec.metric(name).unit}
               for name, stats in metrics.items()}
    return metrics, {"passes": len(passes), "measured_s": measured}
