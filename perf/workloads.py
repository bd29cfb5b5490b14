"""The five workloads, built from the repo's public API only.

Every workload offers a fixed, seeded trace in fixed-size bursts, closed
loop, one client: the next burst goes out when the previous one is back.
A *pass* is one replay of the trace (on ``update_churn``: one cycle).
``run_pass(rec)`` times it; with a :class:`~perf.spans.Recorder` it also
opens a span around every call into a layer.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.net.addresses import parse_mac
from repro.programs import (
    base_p4_source,
    base_rp4_source,
    ecmp_load_script,
    ecmp_rp4_source,
    flowprobe_load_script,
    flowprobe_rp4_source,
    int_load_script,
    int_rp4_source,
    populate_base_tables,
    populate_ecmp_tables,
    populate_flowprobe_tables,
    populate_int_tables,
    populate_srv6_tables,
    srv6_load_script,
    srv6_rp4_source,
)
from repro.programs.base_l2l3 import ROUTER_MAC
from repro.runtime import Controller, Fabric, TableApi
from repro.tables.table import TableEntry

from perf import check, spec, traffic
from perf.spans import Recorder

now = time.perf_counter

EXTRA_ROUTES = 2048
LINE = ("sw0", "sw1", "sw2", "sw3")
SHARDS = 2


class Pass(NamedTuple):
    wall: float
    bursts: List[float]  # latency of each burst call, seconds
    outputs: list  # one slot per offered packet, offer order
    #: update_churn only: per use case, seconds spent in each update step.
    updates: Dict[str, Dict[str, float]]
    #: Violations noticed while the pass ran (checked, not timed).
    problems: List[str]
    #: Counts read at layer boundaries once the pass is over; ``misses``
    #: are packets those violations cost, on top of wrong outputs.
    counts: Dict[str, float]


def timed(rec: Optional[Recorder], layer: str, name: str, fn: Callable, *args):
    """Call into a layer; returns ``(result, seconds)``.  The span, when
    tracing, encloses exactly the timed call."""
    if rec is not None:
        rec.begin(layer, name)
    start = now()
    result = fn(*args)
    elapsed = now() - start
    if rec is not None:
        rec.end()
    return result, elapsed


def update_sums(passes: Sequence[Pass], *steps: str) -> List[float]:
    """Per cycle, the sum over C1-C3 of the named update steps, in ms."""
    return [
        1e3 * sum(case[step] for case in done.updates.values() for step in steps)
        for done in passes
    ]


def burst_percentiles_ms(passes: Sequence[Pass]) -> Tuple[List[float], List[float]]:
    """Per pass, the median and the 90th percentile burst latency in ms.
    Per pass, so that the caller's median over passes shrugs off the
    passes a noisy neighbour spoiled."""
    p50 = [1e3 * statistics.median(done.bursts) for done in passes]
    p90 = [
        1e3 * (statistics.quantiles(done.bursts, n=10)[-1]
               if len(done.bursts) > 1 else done.bursts[0])
        for done in passes
    ]
    return p50, p90


def base_controller() -> Controller:
    controller = Controller()
    controller.load_base(base_rp4_source())
    populate_base_tables(controller.switch.tables)
    return controller


class Workload:
    """Common shape; subclasses fill in ``build`` and the burst call."""

    name = ""

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        size = spec.sizes(self.name, quick)
        self.burst = size["burst"]
        self.packets = size["trace_packets"]
        self.trace: traffic.Trace = []
        self.bursts: List[traffic.Trace] = []
        self.expects: List[check.Expect] = []
        self.reference: Optional[List[Tuple[int, bytes]]] = None
        self.digest = ""

    # -- lifecycle -----------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def warm_up(self) -> None:
        """The first packets of the trace, untimed."""
        done = 0
        for burst in self.bursts:
            if done >= spec.WARMUP_PACKETS:
                break
            self.offer(burst)
            done += len(burst)

    # -- traffic -------------------------------------------------------

    def offer(self, burst: traffic.Trace) -> Sequence:
        """One burst through the system; one output slot per packet."""
        raise NotImplementedError

    offer_span = ("dp", "inject_batch")

    def run_pass(self, rec: Optional[Recorder] = None) -> Pass:
        layer, name = self.offer_span
        latencies: List[float] = []
        outputs: list = []
        start = now()
        for burst in self.bursts:
            out, elapsed = timed(rec, layer, name, self.offer, burst)
            latencies.append(elapsed)
            outputs.extend(out)
        return Pass(now() - start, latencies, outputs, {}, [], {})

    # -- checking ------------------------------------------------------

    def first_pass_misses(self, outputs: list) -> int:
        return check.count_device_misses(outputs, self.expects)

    def verify(self, done: Pass) -> int:
        """Packets of this pass not delivered with the right port and
        bytes.  The first pass is held against the oracle and becomes
        the reference (and the golden digest) for the later ones."""
        misses = abs(len(done.outputs) - self.packets)
        if self.reference is None:
            misses += self.first_pass_misses(done.outputs)
            self.reference = check.reference_of(done.outputs)
            self.digest = check.digest(self.reference)
        else:
            misses += check.count_changed(done.outputs, self.reference)
        return min(misses + done.counts.get("misses", 0), self.packets)

    def switches(self) -> Dict[str, object]:
        raise NotImplementedError

    def invariants(self) -> List[str]:
        problems: List[str] = []
        for name, switch in self.switches().items():
            problems += check.device_conservation(name, switch)
        return problems

    # -- counts read at layer boundaries --------------------------------

    def packets_dropped(self) -> float:
        return self.registry_sums("device.packets_dropped")["device.packets_dropped"]

    def table_entries(self) -> int:
        return sum(
            len(table)
            for switch in self.switches().values()
            for table in switch.tables.values()
        )

    def registry_sums(self, *names: str) -> Dict[str, float]:
        """Counters summed over every device registry and label set, in
        one collect per device.  A name no registry exports is absent."""
        sums: Dict[str, float] = {}
        for switch in self.switches().values():
            for sample in switch.metrics.collect():
                if sample.name in names:
                    sums[sample.name] = sums.get(sample.name, 0) + sample.value
        return sums


# -- single device -----------------------------------------------------


class DeviceWorkload(Workload):
    def build(self) -> None:
        self.controller = base_controller()
        self.switch = self.controller.switch

    def offer(self, burst):
        return self.switch.inject_batch(burst).outputs

    def switches(self):
        return {"dev": self.switch}


class DevL3Fast(DeviceWorkload):
    name = "dev_l3_fast"

    def build(self) -> None:
        super().build()
        self.routes = traffic.extra_routes(
            traffic.stream(self.seed, "routes"), EXTRA_ROUTES
        )
        self.fib = check.Fib()
        install_routes(self.controller.api("ipv4_lpm"), self.routes, self.fib)
        self.trace = traffic.l3_trace(
            traffic.stream(self.seed, self.name), self.packets
        )
        self.bursts = traffic.chunks(self.trace, self.burst)
        self.expects = check.expects_for(self.trace, self.routed)

    def routed(self, data: bytes) -> check.Expect:
        return check.expect_routed(data, self.fib)

    # Legs of the traced run (one pass each over the head of the trace).

    def leg_trace(self) -> traffic.Trace:
        return self.trace[:max(self.packets // 4, 2 * self.burst)]

    def big_frame_trace(self) -> traffic.Trace:
        return traffic.l3_trace(
            traffic.stream(self.seed, "size1462"), len(self.leg_trace()), 1462
        )

    def pisa_foil(self):
        """The paper's Sec. 5 foil: the same design and routes on PISA."""
        from repro.pisa.switch import PisaSwitch

        foil = PisaSwitch(n_stages=8)
        foil.load(base_p4_source())
        populate_base_tables(foil.tables)
        install_routes(TableApi(foil.table("ipv4_lpm")), self.routes, None)
        return foil


def install_routes(api: TableApi, routes, fib: Optional[check.Fib]) -> None:
    for value, plen, nexthop in routes:
        api.install((1, (value, plen)), "set_nexthop", {"nexthop": nexthop})
        if fib is not None:
            fib.add_v4(value, plen, nexthop)


SRV6 = (srv6_load_script, srv6_rp4_source, "srv6.rp4", populate_srv6_tables)
ECMP = (ecmp_load_script, ecmp_rp4_source, "ecmp.rp4", populate_ecmp_tables)
PROBE = (
    flowprobe_load_script, flowprobe_rp4_source, "flowprobe.rp4",
    populate_flowprobe_tables,
)


class DevSrv6Mix(DeviceWorkload):
    name = "dev_srv6_mix"

    def build(self) -> None:
        super().build()
        script, snippet, source_name, populate = SRV6
        self.controller.run_script(script(), {source_name: snippet()})
        populate(self.switch.tables)
        fib = check.Fib()
        rng = traffic.stream(self.seed, self.name)
        self.trace = traffic.srv6_trace(rng, self.packets // 2)
        self.trace += traffic.l3_trace(rng, self.packets - len(self.trace))
        rng.shuffle(self.trace)
        # With C2 live every packet meets the SRv6 stage; plain L3 is transit.
        self.expects = check.expects_for(
            self.trace, lambda data: check.expect_srv6(data, fib)
        )
        self.bursts = traffic.chunks(self.trace, self.burst)


class UpdateChurn(DeviceWorkload):
    """One pass is one cycle: for each of C1, C2, C3 stage the update,
    serve a base burst on the old plan, commit, populate, serve two
    bursts of that use case's traffic, roll back, serve a base burst."""

    name = "update_churn"
    CASES = (("C1", ECMP), ("C2", SRV6), ("C3", PROBE))

    def build(self) -> None:
        super().build()
        fib = check.Fib()
        rng = traffic.stream(self.seed, self.name)
        size = self.burst
        def routed(data: bytes) -> check.Expect:
            return check.expect_routed(data, fib)

        self.base = traffic.l3_trace(rng, size)
        base_expects = check.expects_for(self.base, routed)
        #: use case -> its traffic, and what that traffic must come out as.
        self.case_bursts = {
            "C1": (traffic.l3_trace(rng, size), check.expect_ecmp),
            "C2": (traffic.srv6_trace(rng, size),
                   lambda data: check.expect_srv6(data, fib)),
            "C3": (traffic.probe_trace(rng, size), routed),
        }
        for burst, expect in self.case_bursts.values():
            expects = check.expects_for(burst, expect)
            self.trace += self.base + burst + burst + self.base
            self.expects += base_expects + expects + expects + base_expects
        self.bursts = traffic.chunks(self.trace, size)

    def warm_up(self) -> None:
        # One whole cycle: the lint and verify gates import lazily, and
        # that belongs to set-up, not to the first timed update.
        self.run_pass(None)

    def run_pass(self, rec: Optional[Recorder] = None) -> Pass:
        controller, switch = self.controller, self.switch
        latencies: List[float] = []
        outputs: list = []
        updates: Dict[str, Dict[str, float]] = {}
        problems: List[str] = []
        counts: Dict[str, float] = {}

        def burst(packets) -> float:
            out, elapsed = timed(rec, "dp", "inject_batch", self.offer, packets)
            latencies.append(elapsed)
            outputs.extend(out)
            return elapsed

        start = now()
        for case, (script, snippet, source_name, populate) in self.CASES:
            traffic_burst = self.case_bursts[case][0]
            staged, stage_s = timed(
                rec, "controller", "stage_update", controller.stage_update,
                script(), {source_name: snippet()},
            )
            epoch = switch.dp.epoch
            burst(self.base)
            if switch.dp.epoch != epoch:
                problems.append(f"{case}: plan flipped before commit")
                counts["misses"] = counts.get("misses", 0) + len(self.base)
            (_plan, stats, timing), commit_s = timed(
                rec, "txn", "commit", staged.commit
            )
            timed(rec, "tables", "populate", populate, switch.tables)
            post_s = burst(traffic_burst)
            burst(traffic_burst)
            _restored, rollback_s = timed(
                rec, "controller", "rollback", controller.rollback
            )
            burst(self.base)
            verify = getattr(controller.last_verify, "seconds", None)
            updates[case] = {
                "stage_update": stage_s,
                "commit": commit_s,
                "rollback": rollback_s,
                "post_update_burst": post_s,
                "compile": timing.compile_seconds,
                "load": timing.load_seconds,
                "verify": verify,
                "stall": stats.stall_seconds,
            }
        return Pass(now() - start, latencies, outputs, updates, problems, counts)


# -- fabric ------------------------------------------------------------


def line_fabric(with_int: bool) -> Fabric:
    """``sw0 - sw1 - sw2 - sw3``, port 3 wired to the peer's port 0.
    Transit nodes repoint next hop 2 at the peer's router MAC so the
    flow keeps routing hop over hop; the last node keeps the edge."""
    fabric = Fabric()
    for name in LINE:
        fabric.add_node(name, base_controller())
    for left, right in zip(LINE, LINE[1:]):
        fabric.wire(left, 3, right, 0)
    router_mac = parse_mac(ROUTER_MAC)
    for index, name in enumerate(LINE):
        controller = fabric.node(name)
        tables = controller.switch.tables
        if name != LINE[-1]:
            nexthop = tables["nexthop"]
            nexthop.remove_entry(
                next(e for e in nexthop.entries() if e.key == (2,))
            )
            nexthop.add_entry(TableEntry(
                key=(2,), action="set_bd_dmac",
                action_data={"bd": 2, "dmac": router_mac}, tag=1,
            ))
            tables["dmac"].add_entry(TableEntry(
                key=(2, router_mac), action="set_egress_port",
                action_data={"port": 3}, tag=1,
            ))
        if with_int:
            controller.run_script(int_load_script(), {"int.rp4": int_rp4_source()})
            populate_int_tables(controller.switch.tables, switch_id=index + 1)
            controller.switch.enable_int()
    return fabric


class FabLinePlain(Workload):
    name = "fab_line_plain"
    offer_span = ("fabric", "send_many")
    with_int = False

    def build(self) -> None:
        self.fabric = line_fabric(self.with_int)
        self.trace = traffic.line_trace(
            traffic.stream(self.seed, "line"), self.packets
        )
        self.bursts = traffic.chunks(self.trace, self.burst)
        self.expects = check.expects_for(
            self.trace, lambda data: check.expect_line(data, len(LINE))
        )

    def offer(self, burst):
        return self.fabric.send_many(LINE[0], burst)

    def switches(self):
        return {name: self.fabric.node(name).switch for name in LINE}

    def first_pass_misses(self, outputs: list) -> int:
        return check.count_fabric_misses(outputs, self.expects, self.trace, LINE)

    def invariants(self) -> List[str]:
        return super().invariants() + check.fabric_conservation(self.fabric)

    def run_pass(self, rec: Optional[Recorder] = None) -> Pass:
        done = super().run_pass(rec)
        done.counts["hops"] = sum(d.hops for d in done.outputs if d is not None)
        return done


class FabShardInt(FabLinePlain):
    name = "fab_shard_int"
    with_int = True
    SWITCH_IDS = [1, 2, 3, 4]

    def build(self) -> None:
        super().build()
        self.collector = self.fabric.attach_int_collector()
        self.fabric.shard(SHARDS)

    def close(self) -> None:
        self.fabric.unshard()

    def run_pass(self, rec: Optional[Recorder] = None) -> Pass:
        # A fresh collector per pass: it keeps one record per packet, so
        # memory would otherwise grow with how long the run measures.
        self.collector = self.fabric.attach_int_collector()
        if rec is not None:
            rec.shim(self.collector, "ingest", "intcol")
        done = super().run_pass(rec)
        done.counts["hop_records"] = self.collector.summary()["hop_records"]
        records = self.collector.records
        wrong = sum(1 for r in records if r["path"] != self.SWITCH_IDS)
        wrong += abs(len(records) - len(done.outputs))
        if wrong:
            done.counts["misses"] = wrong
            done.problems.append(f"{wrong} packets without hop records 1,2,3,4")
        return done


WORKLOADS = {
    cls.name: cls
    for cls in (DevL3Fast, DevSrv6Mix, FabLinePlain, FabShardInt, UpdateChurn)
}


def make(name: str, seed: int, quick: bool = False) -> Workload:
    return WORKLOADS[name](seed, quick)
