"""The fleet soak harness: ``python -m repro.bench.soak``.

Builds an ``n_nodes`` fleet, shards it across device workers, and
replays a known-forwarding trace round-robin through every node while
staged rollouts cycle the fleet between the base design and the SRv6
overlay the whole time.  The run is one long consistency experiment:

* **Traffic correctness** -- every injected packet must be delivered
  (the replay trace forwards on the base design *and* under the SRv6
  overlay, so any drop or loop is a runtime bug, not a workload
  artifact).
* **Metric consistency** -- after the final shard merge the central
  registry's ``fabric.*`` counter sums must equal the
  :class:`~repro.runtime.fabric.FabricStats` totals exactly; the
  shard snapshot protocol is lossless or it is broken.
* **Memory stability** -- RSS is sampled throughout; growth over the
  post-build baseline must stay under a bound.  The bounded control
  channel logs are checked too: a fleet that soaks for 10M packets
  with unbounded per-device logs would not be stable.
* **Rollout liveness** -- at least one full staged-rollout /
  rollback cycle must complete, and none may error.

Traffic batches and rollout cycles are interleaved on one thread: the
device workers serialize framed commands per worker, and on the GIL
there is no wall-clock parallelism to be had between a rollout thread
and a traffic thread anyway -- interleaving keeps the run
deterministic while the fleet still takes every wave of every rollout
with live traffic in between.

Modes::

    python -m repro.bench.soak                       # full: 1000 nodes, 10M pkts
    python -m repro.bench.soak --nodes 50 --packets 100000 --validate
    python -m repro.bench.soak --json --out SOAK.json
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from typing import List, Optional, Tuple

from repro.bench.scenarios import make_fleet
from repro.programs import srv6_load_script, srv6_rp4_source
from repro.workloads.builders import ipv4_packet

#: Full-mode defaults: the ISSUE's headline soak.  Two workers, not
#: more -- on a single-core box extra worker threads only thrash the
#: scheduler.
FULL_NODES = 1000
FULL_PACKETS = 10_000_000
DEFAULT_WORKERS = 2
DEFAULT_WAVE_SIZE = 25
DEFAULT_BATCH = 2000
#: Traffic batches between rollout cycles; with the default batch size
#: a full run takes a rollout wave roughly every 100k packets.
DEFAULT_ROLLOUT_EVERY = 50
#: Allowed RSS growth over the *warm* baseline.  The baseline is
#: re-taken after the first rollout cycle completes: that cycle
#: establishes the steady-state working set -- every node's undo
#: design snapshot, the merged per-node metric instruments, and the
#: allocator's high-water arenas (a 1000-node cycle holds 1000 fresh
#: designs at peak, and CPython arenas do not shrink back).  Stability
#: means growth *after* that plateau stays bounded.
DEFAULT_MAX_RSS_GROWTH_MB = 256.0

_PAGE_SIZE = resource.getpagesize()


def rss_bytes() -> int:
    """Current resident set size.

    Reads ``/proc/self/statm`` (Linux); falls back to the peak RSS
    from ``getrusage`` elsewhere -- a peak is still usable for a
    growth bound, just coarser.
    """
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _metric_sum(registry, name: str) -> float:
    return sum(s.value for s in registry.collect() if s.name == name)


def run_soak(
    n_nodes: int = FULL_NODES,
    n_packets: int = FULL_PACKETS,
    n_workers: int = DEFAULT_WORKERS,
    wave_size: int = DEFAULT_WAVE_SIZE,
    batch: int = DEFAULT_BATCH,
    rollout_every: int = DEFAULT_ROLLOUT_EVERY,
    max_rss_growth_mb: float = DEFAULT_MAX_RSS_GROWTH_MB,
    log=None,
) -> dict:
    """Run the soak; returns the report document (see module doc).

    The report's ``checks`` list holds every pass/fail with detail;
    ``ok`` is their conjunction.
    """
    if n_packets <= 0 or batch <= 0 or rollout_every <= 0:
        raise ValueError("packets, batch, and rollout_every must be positive")

    script = srv6_load_script()
    sources = {"srv6.rp4": srv6_rp4_source()}
    packet = ipv4_packet("10.1.0.1", "10.2.0.5")
    probe_trace = [(packet, 0)]

    build_start = time.perf_counter()
    fabric = make_fleet(n_nodes)
    fabric.shard(n_workers)
    names = list(fabric.nodes)
    build_seconds = time.perf_counter() - build_start
    if log is not None:
        log(
            f"fleet: {n_nodes} nodes across {n_workers} workers "
            f"in {build_seconds:.1f} s"
        )

    sent = 0
    delivered = 0
    rollout_cycles = 0
    rollout_errors: List[str] = []
    rollout_seconds = 0.0
    cursor = 0  # round-robin ingress position

    try:
        # Settle: warm every live plan, then freeze the fleet out of
        # the young GC generations -- it is long-lived state and
        # rescanning a 1000-node object graph every collection is the
        # dominant cost at scale.
        for name in names:
            fabric.node(name).switch.dp.plan()
        gc.collect()
        gc.freeze()
        rss_build = rss_bytes()
        rss_baseline = rss_build  # rebased after the first cycle
        rss_peak = rss_baseline
        warmed = False

        loop_start = time.perf_counter()
        batch_index = 0
        while sent < n_packets:
            count = min(batch, n_packets - sent)
            items: List[Tuple[str, bytes, int]] = [
                (names[(cursor + i) % n_nodes], packet, 0)
                for i in range(count)
            ]
            cursor = (cursor + count) % n_nodes
            results = fabric.send_batch(items)
            sent += count
            delivered += sum(1 for r in results if r is not None)
            batch_index += 1

            if batch_index % rollout_every == 0 or sent >= n_packets:
                cycle_start = time.perf_counter()
                try:
                    fabric.staged_rollout(
                        script,
                        sources,
                        wave_size=wave_size,
                        probe_trace=probe_trace,
                    )
                    fabric.rollback_all()
                    rollout_cycles += 1
                except Exception as exc:  # recorded, run continues
                    rollout_errors.append(f"{type(exc).__name__}: {exc}")
                rollout_seconds += time.perf_counter() - cycle_start
                if not warmed:
                    # First cycle done: the working set is at steady
                    # state; stability is measured from here.
                    warmed = True
                    rss_baseline = rss_bytes()
                    rss_peak = rss_baseline

            if batch_index % 10 == 0 or sent >= n_packets:
                fabric.sync_metrics()
                rss_peak = max(rss_peak, rss_bytes())
                if log is not None and (
                    batch_index % (rollout_every * 2) == 0
                    or sent >= n_packets
                ):
                    elapsed = time.perf_counter() - loop_start
                    log(
                        f"{sent}/{n_packets} pkts "
                        f"({sent / max(elapsed, 1e-9):.0f} pps), "
                        f"{rollout_cycles} rollout cycles, rss "
                        f"+{(rss_peak - rss_baseline) / 2**20:.1f} MB"
                    )
        soak_seconds = time.perf_counter() - loop_start

        fabric.sync_metrics()
        rss_peak = max(rss_peak, rss_bytes())
        stats = fabric.stats
        metric_injected = _metric_sum(fabric.metrics, "fabric.injected")
        metric_delivered = _metric_sum(fabric.metrics, "fabric.delivered")
        metric_dropped = _metric_sum(fabric.metrics, "fabric.hop_dropped")
        log_capacities_ok = all(
            fabric.node(name).channel.log.maxlen is not None
            and len(fabric.node(name).channel.log)
            <= fabric.node(name).channel.log.maxlen
            for name in names
        )
    finally:
        fabric.unshard()
        gc.unfreeze()

    # Probe traffic is injected device-side (worker.probe_batch), so
    # replay accounting is not perturbed by the rollout gates: every
    # FabricStats packet is one of ours.
    rss_growth_mb = (rss_peak - rss_baseline) / 2**20
    checks = [
        {
            "name": "zero_drops",
            "ok": stats.dropped == 0 and stats.loops_cut == 0,
            "detail": f"dropped={stats.dropped} loops_cut={stats.loops_cut}",
        },
        {
            "name": "all_delivered",
            "ok": sent == delivered == stats.injected == stats.delivered,
            "detail": (
                f"sent={sent} delivered={delivered} "
                f"stats.injected={stats.injected} "
                f"stats.delivered={stats.delivered}"
            ),
        },
        {
            "name": "metrics_consistent",
            "ok": (
                metric_injected == stats.injected
                and metric_delivered == stats.delivered
                and metric_dropped == stats.dropped
            ),
            "detail": (
                f"fabric.injected={metric_injected:.0f}/{stats.injected} "
                f"fabric.delivered={metric_delivered:.0f}/{stats.delivered} "
                f"fabric.hop_dropped={metric_dropped:.0f}/{stats.dropped}"
            ),
        },
        {
            "name": "channel_logs_bounded",
            "ok": log_capacities_ok,
            "detail": "every node's control-channel log ring is capped",
        },
        {
            "name": "rss_bounded",
            "ok": rss_growth_mb <= max_rss_growth_mb,
            "detail": (
                f"growth {rss_growth_mb:.1f} MB over the "
                f"{rss_baseline / 2**20:.1f} MB warm baseline "
                f"(build {rss_build / 2**20:.1f} MB, "
                f"bound {max_rss_growth_mb:.0f} MB)"
            ),
        },
        {
            "name": "rollouts_clean",
            "ok": rollout_cycles >= 1 and not rollout_errors,
            "detail": (
                f"{rollout_cycles} cycles, errors: "
                + ("; ".join(rollout_errors) if rollout_errors else "none")
            ),
        },
    ]
    return {
        "nodes": n_nodes,
        "workers": n_workers,
        "wave_size": wave_size,
        "batch": batch,
        "packets": sent,
        "delivered": delivered,
        "build_seconds": build_seconds,
        "soak_seconds": soak_seconds,
        "rollout_cycles": rollout_cycles,
        "rollout_seconds": rollout_seconds,
        "pps": sent / max(soak_seconds, 1e-9),
        "rss_build_mb": rss_build / 2**20,
        "rss_baseline_mb": rss_baseline / 2**20,
        "rss_growth_mb": rss_growth_mb,
        "checks": checks,
        "ok": all(check["ok"] for check in checks),
    }


def build_parser(prog: str = "repro.bench.soak") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="fleet soak: replay under continuous staged rollout",
    )
    parser.add_argument("--nodes", type=int, default=FULL_NODES)
    parser.add_argument("--packets", type=int, default=FULL_PACKETS)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--wave-size", type=int, default=DEFAULT_WAVE_SIZE)
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    parser.add_argument(
        "--rollout-every", type=int, default=DEFAULT_ROLLOUT_EVERY,
        help="traffic batches between staged-rollout cycles",
    )
    parser.add_argument(
        "--max-rss-growth-mb", type=float, default=DEFAULT_MAX_RSS_GROWTH_MB,
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="exit nonzero unless every soak check passes",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument("--out", help="also write the report as JSON")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    log = None if args.quiet else (lambda line: out.write(line + "\n"))
    report = run_soak(
        n_nodes=args.nodes,
        n_packets=args.packets,
        n_workers=args.workers,
        wave_size=args.wave_size,
        batch=args.batch,
        rollout_every=args.rollout_every,
        max_rss_growth_mb=args.max_rss_growth_mb,
        log=log,
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.as_json:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        for check in report["checks"]:
            verdict = "ok" if check["ok"] else "FAIL"
            out.write(f"{check['name']:22s} {verdict:4s} {check['detail']}\n")
        out.write(
            f"soak: {report['packets']} packets over {report['nodes']} nodes "
            f"in {report['soak_seconds']:.1f} s ({report['pps']:.0f} pps), "
            f"{report['rollout_cycles']} rollout cycles\n"
        )
    if args.validate and not report["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
