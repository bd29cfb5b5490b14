"""The traced run: per-layer metrics from spans and boundary counts.

Untraced and traced passes alternate, so the tracing overhead is a
difference of medians over the same minute.  Shims go in before a traced
pass and come out after it.  Every probe stands alone: one whose
attribute is gone reports ``None`` and is listed under ``unavailable``.
"""

from __future__ import annotations

import statistics
import tracemalloc
from typing import Callable, Dict, List, Optional

from perf import check, spec, traffic
from perf.spans import FIELDS, Recorder, Summary
from perf.workloads import (
    Pass, Workload, burst_percentiles_ms, now, update_sums,
)

US = 1e6
MS = 1e3
#: What a probe raises when the attribute or count it reads is gone.
GONE = (AttributeError, KeyError, TypeError, ZeroDivisionError,
        statistics.StatisticsError)


def install_shims(workload: Workload, rec: Recorder) -> None:
    """Spans on what the layers call on each other.  Calls the benchmark
    makes itself (inject_batch, send_many, stage_update, commit,
    rollback) get their spans at the call site instead."""
    fabric = getattr(workload, "fabric", None)
    if fabric is None:
        return
    for name, switch in workload.switches().items():
        rec.shim(switch, "inject", "dp", probe=f"dp.inject[{name}]")
        rec.shim(switch, "inject_batch", "dp", probe=f"dp.inject_batch[{name}]")
    if fabric.sharded:
        from repro.runtime import channel

        rec.shim(channel, "encode_frame", "channel")
        rec.shim(channel, "decode_frame", "channel")
        for worker in fabric.workers:
            rec.shim(worker, "execute", "workers")
            rec.shim(worker, "collect_reply", "workers")


def boundary_counts(workload: Workload) -> Dict[str, float]:
    """Counters read from public objects, before and after each pass.
    One that is gone is left out; the metric built on it then reports
    itself unavailable."""
    counts = workload.registry_sums(
        "tsp.lookups", "dp.plan_compiles", "dp.plan_invalidations"
    )
    workers = getattr(getattr(workload, "fabric", None), "workers", [])
    if workers:
        ends = [end for w in workers for end in (w.requests, w.replies)]
        readers: Dict[str, Callable[[], float]] = {
            "channel.bytes": lambda: sum(e.stats.bytes_sent for e in ends),
            "channel.messages": lambda: sum(e.stats.messages for e in ends),
            "worker.commands": lambda: sum(
                w.metrics.value("worker.commands") for w in workers
            ),
        }
        for name, read in readers.items():
            try:
                counts[name] = read()
            except GONE:
                pass
    return counts


class Traced:
    """What the alternating passes produced, and the probes over it."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.rec = Recorder()
        self.plain: List[Pass] = []
        self.traced: List[Pass] = []
        self.deltas: Dict[str, float] = {}
        self.collect_ms: List[float] = []
        self.sync_ms: List[float] = []
        self.values: Dict[str, Optional[float]] = {}
        self.unavailable: List[str] = []

    # -- measuring -----------------------------------------------------

    def alternate(self, tally, seconds: float, floor: int) -> float:
        """Untraced pass, traced pass, ... until ``seconds`` are measured."""
        workload, rec = self.workload, self.rec
        fabric = getattr(workload, "fabric", None)
        measured = 0.0
        while len(self.traced) < floor or measured < seconds:
            plain = tally.run(workload)
            if plain is None:
                break
            before = boundary_counts(workload)
            install_shims(workload, rec)
            rec.begin("bench", "pass")
            try:
                traced = tally.run(workload, rec)
            finally:
                rec.end()
                rec.remove_shims()
            if traced is None:
                break
            for name, value in boundary_counts(workload).items():
                self.deltas[name] = (
                    self.deltas.get(name, 0) + value - before.get(name, value)
                )
            self.plain.append(plain)
            self.traced.append(traced)
            measured += plain.wall + traced.wall
            # One registry scrape per pass, beside the traffic, never in it.
            if workload.name == "dev_l3_fast":
                start = now()
                workload.switch.metrics.collect()
                self.collect_ms.append((now() - start) * MS)
            if fabric is not None and fabric.sharded:
                start = now()
                fabric.sync_metrics()
                self.sync_ms.append((now() - start) * MS)
        return measured

    def summarize(self) -> None:
        self.rows = self.rec.rows()
        self.summary = Summary(self.rows, self.rec.client)
        self.packets = self.workload.packets * len(self.traced)
        self.bursts = len(self.workload.bursts) * len(self.traced)
        self.wall = sum(done.wall for done in self.traced)
        self.unavailable += self.rec.unavailable
        #: Generator-thread self time by program layer (the harness's own
        #: "bench" layer left out): what the closure gate sums.
        self.layer_self = {
            layer: seconds
            for layer, seconds in self.summary.client_self_by_layer.items()
            if layer != "bench"
        }

    # -- probing -------------------------------------------------------

    def probe(self, name: str, fn: Callable[[], Optional[float]]) -> None:
        try:
            value = fn()
        except GONE:
            value = None
        self.values[name] = value
        if value is None:
            self.unavailable.append(name)

    def span_us(self, name: str, layer: str, span: str,
                self_only: bool = False) -> None:
        """Time in one kind of span, all threads, per traced packet."""
        table = self.summary.self_ if self_only else self.summary.total
        self.probe(name, lambda: table[(layer, span)] / self.packets * US)

    def count(self, name: str, key: str, per: float) -> None:
        self.probe(name, lambda: self.deltas[key] / per)

    def every_workload(self, tally) -> None:
        plain_wall = statistics.median(done.wall for done in self.plain)
        traced_wall = statistics.median(done.wall for done in self.traced)
        self.probe("trace.overhead_pct",
                   lambda: (traced_wall - plain_wall) / plain_wall * 100)
        passes = self.summary.total[("bench", "pass")]
        self.probe("trace.budget_closure_pct",
                   lambda: sum(self.layer_self.values()) / passes * 100)
        self.probe("dp.packets_dropped", self.workload.packets_dropped)
        self.probe("tables.entries", self.workload.table_entries)
        self.probe("loss_ratio", lambda: tally.failed / tally.attempted)
        # Like the update pair below: a figure users see, so from the
        # untraced passes.
        self.probe("burst_ms_p90", lambda: statistics.median(
            burst_percentiles_ms(self.plain)[1]))

    def device(self) -> None:
        self.span_us("dp.inject_batch.us_per_pkt", "dp", "inject_batch")
        self.count("tables.lookups_per_pkt", "tsp.lookups", self.packets)

    def fabric(self) -> None:
        summary = self.summary
        hops = sum(done.counts["hops"] for done in self.traced)
        self.probe("fabric.hops_per_pkt", lambda: hops / self.packets)
        self.probe("dp.inject.us_per_pkt_hop",
                   lambda: summary.layer_total("dp") / hops * US)
        self.probe("dp.device_calls_per_pkt",
                   lambda: summary.layer_calls("dp") / self.packets)
        self.span_us("fabric.walk_self_us_per_pkt", "fabric", "send_many", True)

    def sharded(self) -> None:
        workers = len(self.workload.fabric.workers)
        self.span_us("channel.encode_us_per_pkt", "channel", "encode_frame")
        self.span_us("channel.decode_us_per_pkt", "channel", "decode_frame")
        self.count("channel.bytes_per_pkt", "channel.bytes", self.packets)
        self.count("channel.msgs_per_burst", "channel.messages", self.bursts)
        self.span_us("workers.execute_self_us_per_pkt", "workers", "execute", True)
        self.count("workers.commands_per_burst", "worker.commands", self.bursts)
        self.span_us("workers.reply_wait_us_per_pkt", "workers", "collect_reply",
                     True)
        self.probe("workers.busy_share",
                   lambda: self.summary.total[("workers", "execute")]
                   / (self.wall * workers))
        self.span_us("intcol.ingest_us_per_pkt", "intcol", "ingest")
        self.probe("intcol.hop_records_per_pkt",
                   lambda: sum(d.counts["hop_records"] for d in self.traced)
                   / self.packets)
        self.probe("metrics.sync_ms", lambda: statistics.median(self.sync_ms))

    UPDATE_STEPS = (
        ("controller.stage_update.ms_p50", "stage_update"),
        ("txn.commit.ms_p50", "commit"),
        ("controller.rollback.ms_p50", "rollback"),
        ("compiler.compile_update.ms_p50", "compile"),
        ("txn.load.ms_p50", "load"),
        ("verify.ms_p50", "verify"),
    )

    def churn(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Update steps, summed over C1-C3 per cycle; returns the same
        per use case."""
        cases = [case for case, _ in self.workload.CASES]
        updates = len(cases) * len(self.traced)
        self.count("dp.plan_compiles_per_update", "dp.plan_compiles", updates)
        self.count("dp.plan_invalidations_per_update",
                   "dp.plan_invalidations", updates)
        # The two figures a user sees come from the untraced cycles.
        self.probe("update_ms_p50", lambda: statistics.median(
            update_sums(self.plain, "stage_update", "commit")))
        self.probe("post_update_burst_ms_p50", lambda: statistics.median(
            update_sums(self.plain, "post_update_burst")))
        per_use_case: Dict[str, Dict[str, Optional[float]]] = {}
        for metric, step in self.UPDATE_STEPS:
            self.probe(metric, lambda: statistics.median(
                update_sums(self.traced, step)))
            per_use_case[metric] = {}
            for case in cases:
                try:
                    per_use_case[metric][case] = statistics.median(
                        MS * done.updates[case][step] for done in self.traced
                    )
                except GONE:
                    per_use_case[metric][case] = None
        self.probe("txn.stall_us_p50", lambda: statistics.median(
            US * case["stall"] for done in self.traced
            for case in done.updates.values()))
        return per_use_case


# -- legs that only dev_l3_fast runs -----------------------------------


def time_bursts(offer: Callable, bursts):
    """``(seconds per packet, outputs)`` over ``bursts``; the first burst
    runs once more beforehand as an untimed warm-up."""
    offer(bursts[0])
    start = now()
    outputs = [offer(burst) for burst in bursts]
    elapsed = now() - start
    return elapsed / sum(len(b) for b in bursts), [o for out in outputs for o in out]


def alloc_peak_kb(workload) -> float:
    """tracemalloc peak over one burst, above what was live before it."""
    burst = workload.bursts[0]
    tracemalloc.start()
    try:
        workload.offer(burst)
        tracemalloc.reset_peak()
        live, _ = tracemalloc.get_traced_memory()
        workload.offer(burst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - live) / 1024.0


def l3_fast_legs(run: Traced, tally) -> None:
    """One pass each over the head of the trace: burst length, frame
    size, the scalar path, and the PISA foil."""
    workload = run.workload
    switch = workload.switch
    head = workload.leg_trace()
    head_expects = workload.expects[:len(head)]

    def ipsa(burst):
        return switch.inject_batch(burst).outputs

    def leg(name: str, offer, burst: int, trace=head, expects=head_expects):
        def measure() -> float:
            seconds, outputs = time_bursts(offer, traffic.chunks(trace, burst))
            tally.leg(outputs, expects)
            return seconds * US
        run.probe(name, measure)

    def ratio(name: str, over: str) -> None:
        run.probe(name, lambda: run.values[over]
                  / run.values["dp.inject_batch.us_per_pkt"])

    leg("dp.burst32.us_per_pkt", ipsa, 32)
    leg("dp.burst2048.us_per_pkt", ipsa, 2048)
    big = workload.big_frame_trace()
    leg("dp.size1462.us_per_pkt", ipsa, workload.burst, big,
        check.expects_for(big, workload.routed))

    def scalar(burst):
        was = switch.dp.columnar_enabled  # gone => probe unavailable
        switch.dp.columnar_enabled = False
        try:
            return ipsa(burst)
        finally:
            switch.dp.columnar_enabled = was

    leg("dp.scalar.us_per_pkt", scalar, workload.burst)
    ratio("dp.fastpath_speedup_x", "dp.scalar.us_per_pkt")

    foil = workload.pisa_foil()
    leg("pisa.inject_batch.us_per_pkt",
        lambda burst: foil.inject_batch(burst).outputs, workload.burst)
    ratio("pisa.over_ipsa_x", "pisa.inject_batch.us_per_pkt")
    tally.problems += check.device_conservation("pisa foil", foil)


# -- the traced run ----------------------------------------------------


def measure_traced(workload: Workload, args, tally):
    run = Traced(workload)
    floor = max(spec.pass_floor(workload.name, args.quick) // 2, 1)
    measured = run.alternate(tally, args.seconds, floor)
    if not run.traced:
        return {}, {}
    run.summarize()
    run.every_workload(tally)
    name = workload.name
    per_use_case = {}
    if name in spec.DEVICE:
        run.device()
    if name in ("dev_l3_fast", "dev_srv6_mix"):
        run.probe("dp.alloc_peak_kb_per_burst", lambda: alloc_peak_kb(workload))
    if name == "dev_l3_fast":
        run.probe("metrics.collect_ms",
                  lambda: statistics.median(run.collect_ms))
        l3_fast_legs(run, tally)
    if name in spec.FABRIC:
        run.fabric()
    if name == "fab_shard_int":
        run.sharded()
    if name == "update_churn":
        per_use_case = run.churn()

    on_here = [m.name for m in spec.PER_LAYER if name in m.on]
    if set(on_here) != set(run.values):
        raise AssertionError(
            f"probed {sorted(run.values)}, spec lists {sorted(on_here)}"
        )
    metrics = {
        metric: {"value": run.values[metric], "unit": spec.metric(metric).unit}
        for metric in on_here
    }
    packets = run.packets
    extra = {
        "sizes": {"traced_passes": len(run.traced),
                  "untraced_passes": len(run.plain)},
        "passes": len(run.traced) + len(run.plain),
        "measured_s": measured,
        # Self time by layer: on the generator thread (sums to the pass),
        # and on the worker threads, which run beside it.
        "budget_us_per_pkt": {
            layer: seconds / packets * US
            for layer, seconds in run.layer_self.items()
        },
        "worker_budget_us_per_pkt": {
            layer: seconds / packets * US
            for layer, seconds in run.summary.worker_self_by_layer.items()
        },
        "per_use_case_ms": per_use_case,
        "not_applicable": [m.name for m in spec.PER_LAYER if name not in m.on],
        "unavailable": sorted(set(run.unavailable)),
        "spans": {"fields": list(FIELDS), "client_thread": run.rec.client,
                  "rows": run.rows},
    }
    return metrics, extra
