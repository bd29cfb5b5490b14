"""Differential tests for the hop-synchronous fabric walker.

``repro.runtime.walk.walk`` replaced two depth-first per-packet loops
(``Fabric.send`` and ``DeviceWorker._walk``).  The reference here is
that per-packet walk, written out on ``switch.inject`` with its own
book-keeping; a twin fabric driven through ``Fabric.send_batch`` must
agree with it on every ``Delivery`` field, on ``FabricStats``, on each
device's packet counters and drop reasons, and on the ``fabric.*``
registry counters -- serial and sharded.
"""

from collections import Counter

import pytest

from repro.dp.columnar import _numpy
from repro.net.addresses import parse_mac
from repro.programs import base_rp4_source, populate_base_tables
from repro.programs.base_l2l3 import ROUTER_MAC
from repro.runtime import Controller
from repro.runtime.fabric import Delivery, Fabric, FabricError
from repro.tables.table import TableEntry
from repro.workloads import ipv4_packet

LINE = ("sw0", "sw1", "sw2", "sw3")


def base_node():
    controller = Controller()
    controller.load_base(base_rp4_source())
    populate_base_tables(controller.switch.tables)
    return controller


def repoint(controller, nexthop_id, bd, port):
    """Make ``nexthop_id`` resolve to the peer's router MAC out of
    ``port``, so the next device routes the packet again."""
    tables = controller.switch.tables
    nexthop = tables["nexthop"]
    nexthop.remove_entry(
        next(e for e in nexthop.entries() if e.key == (nexthop_id,))
    )
    router_mac = parse_mac(ROUTER_MAC)
    nexthop.add_entry(TableEntry(
        key=(nexthop_id,), action="set_bd_dmac",
        action_data={"bd": bd, "dmac": router_mac}, tag=1,
    ))
    tables["dmac"].add_entry(TableEntry(
        key=(bd, router_mac), action="set_egress_port",
        action_data={"port": port}, tag=1,
    ))


def line_fabric(max_hops=16):
    """``sw0 - sw1 - sw2 - sw3``: 10.2/16 leaves each node on port 3,
    wired to the next node's port 0; sw3's port 3 is the edge."""
    fabric = Fabric(max_hops=max_hops)
    for name in LINE:
        fabric.add_node(name, base_node())
    for left, right in zip(LINE, LINE[1:]):
        fabric.wire(left, 3, right, 0)
        repoint(fabric.node(left), 2, bd=2, port=3)
    return fabric


def loop_fabric():
    """``A <-> B``: each sends 10.2/16 straight back to the other, so
    only ``max_hops`` (not the TTL of 64) ends the walk."""
    fabric = Fabric(max_hops=5)
    for name in ("A", "B"):
        repoint(fabric.add_node(name, base_node()), 2, bd=2, port=3)
    fabric.wire("A", 3, "B", 0)
    fabric.wire("B", 3, "A", 0)
    return fabric


def diamond_fabric():
    """Two branches of unequal length from ``A`` to ``D``: 10.2/16 goes
    ``A-B-C-D`` (port 3 chain), 10.1/16 goes ``A-E-D`` (port 2 chain)."""
    fabric = Fabric()
    for name in "ABCDE":
        fabric.add_node(name, base_node())
    for name in "ABC":
        repoint(fabric.node(name), 2, bd=2, port=3)
    for name in "AE":
        repoint(fabric.node(name), 1, bd=1, port=2)
    fabric.wire("A", 3, "B", 0)
    fabric.wire("B", 3, "C", 0)
    fabric.wire("C", 3, "D", 0)
    fabric.wire("A", 2, "E", 0)
    fabric.wire("E", 2, "D", 1)
    return fabric


def flows(n, dst="10.2.0.{}", ttl=64):
    return [
        (ipv4_packet("10.1.0.1", dst.format(1 + i % 200),
                     sport=2000 + i, ttl=ttl), 0)
        for i in range(n)
    ]


class PerPacketWalk:
    """The reference: one packet at a time, depth first, one
    ``switch.inject`` per hop, counting as the old walkers did."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.stats = Counter()
        self.counters = Counter()

    def count(self, name, **labels):
        self.counters[(name, tuple(sorted(labels.items())))] += 1

    def send(self, node, data, port):
        fabric = self.fabric
        self.stats["injected"] += 1
        self.count("fabric.injected", node=node)
        path = []
        for _hop in range(fabric.max_hops):
            path.append(node)
            out = fabric.nodes[node].switch.inject(data, port)
            if out is None:
                self.stats["dropped"] += 1
                self.count("fabric.hop_dropped", node=node)
                return None
            self.count("fabric.hop_forwarded", node=node, port=str(out.port))
            wire = fabric.peer(node, out.port)
            if wire is None:
                self.stats["delivered"] += 1
                self.count("fabric.delivered", node=node, port=str(out.port))
                return Delivery(node, out.port, out.data, len(path), tuple(path))
            data = out.data
            node, port = wire
        self.stats["loops_cut"] += 1
        self.count("fabric.loops_cut", node=node)
        return None

    def send_batch(self, items):
        return [self.send(node, data, port) for node, data, port in items]


def device_effects(fabric):
    return {
        name: (
            controller.switch.packets_in,
            controller.switch.packets_out,
            controller.switch.packets_dropped,
            dict(controller.switch.drop_reasons),
        )
        for name, controller in fabric.nodes.items()
    }


def fabric_counters(fabric):
    if fabric.sharded:
        fabric.sync_metrics()
    return {
        (s.name, tuple(sorted(s.labels.items()))): s.value
        for s in fabric.metrics.collect()
        if s.name.startswith("fabric.") and s.value
    }


def stats_of(fabric):
    return {key: value for key, value in vars(fabric.stats).items() if value}


def assert_matches_reference(build, items, shards=0):
    """Twin fabrics from ``build``: the reference walk on one, the
    wavefront (serial, or sharded and driven synchronously) on the
    other.  Returns the wavefront's deliveries."""
    reference = PerPacketWalk(build())
    want = reference.send_batch(items)
    fabric = build()
    if shards:
        fabric.shard(shards, start=False)
    got = fabric.send_batch(items)
    assert got == want  # Delivery is a dataclass: every field compared
    assert stats_of(fabric) == dict(reference.stats)
    assert device_effects(fabric) == device_effects(reference.fabric)
    assert fabric_counters(fabric) == dict(reference.counters)
    registry = Counter()
    for (name, _labels), value in fabric_counters(fabric).items():
        registry[name] += value
    assert registry["fabric.injected"] == (
        registry["fabric.delivered"] + registry["fabric.hop_dropped"]
        + registry["fabric.loops_cut"]
    )
    return got


def from_node(node, trace):
    return [(node, data, port) for data, port in trace]


#: Two shards cut the line in half (one handoff per packet); four put
#: one node on each shard, so every hop is a handoff.
MODES = pytest.mark.parametrize(
    "shards", [0, 2, 4], ids=["serial", "sharded", "sharded4"]
)


@MODES
class TestWavefrontEqualsPerPacketWalk:
    @pytest.mark.parametrize("n", [96, 3], ids=["columnar", "below_min_rows"])
    def test_line(self, shards, n):
        got = assert_matches_reference(
            line_fabric, from_node("sw0", flows(n)), shards
        )
        assert all(d.path == LINE and d.port == 3 for d in got)

    def test_full_waves_take_the_columnar_path(self, shards):
        # Without NumPy the front door falls back to the scalar loop
        # and compiles no columnar program.
        fabric = line_fabric()
        if shards:
            fabric.shard(shards, start=False)
        fabric.send_many("sw0", flows(64))
        assert all(
            (controller.switch.dp._columnar is not None)
            == (_numpy() is not None)
            for controller in fabric.nodes.values()
        )

    def test_mid_path_drops(self, shards):
        """A TTL that runs out partway down the line and a bad ingress
        port at the origin, mixed into a batch that otherwise delivers."""
        items = from_node("sw0", flows(40))
        items[5:15] = from_node("sw0", flows(10, ttl=2))
        items[20] = ("sw0", items[20][1], 42)
        got = assert_matches_reference(line_fabric, items, shards)
        assert got[20] is None and got[5:15] == [None] * 10
        assert sum(d is not None for d in got) == 29

    def test_loop_cut_at_max_hops(self, shards):
        got = assert_matches_reference(
            loop_fabric, from_node("A", flows(12)), shards
        )
        assert got == [None] * 12

    def test_multi_origin_send_batch(self, shards):
        trace = flows(90)
        items = [
            (LINE[i % 3], data, port) for i, (data, port) in enumerate(trace)
        ]
        got = assert_matches_reference(line_fabric, items, shards)
        assert [d.hops for d in got[:3]] == [4, 3, 2]

    def test_diamond_unequal_paths(self, shards):
        long = flows(20)
        short = flows(20, dst="10.1.0.{}")
        items = from_node("A", [p for pair in zip(long, short) for p in pair])
        got = assert_matches_reference(diamond_fabric, items, shards)
        assert got[0].path == ("A", "B", "C", "D") and got[0].port == 3
        assert got[1].path == ("A", "E", "D") and got[1].port == 2


class RecordingCollector:
    """Stands in for the INT collector: remembers ingest order."""

    class Ingest:
        def __init__(self, data):
            self.stripped = data

    def __init__(self):
        self.seen = []

    def ingest(self, data, node, port):
        self.seen.append(data)
        return self.Ingest(data)

    def ingest_batch(self, items):
        return [self.ingest(*item) for item in items]


def test_diamond_order_is_wave_then_index():
    """Results stay index-aligned; the collector sees exits wave by
    wave (the short branch first), ascending index within a wave."""
    long = flows(10)
    short = flows(10, dst="10.1.0.{}")
    items = from_node("A", [p for pair in zip(long, short) for p in pair])
    fabric = diamond_fabric()
    collector = fabric.attach_int_collector(RecordingCollector())
    got = fabric.send_batch(items)
    assert [len(d.path) for d in got] == [4, 3] * 10
    by_index = [d.data for d in got]
    assert collector.seen == by_index[1::2] + by_index[0::2]


def test_tracer_on_one_hop_still_traces_every_packet():
    """A traced device makes ``inject_batch`` loop ``inject`` there;
    the wave through it is still one batch call and loses nothing."""
    build = line_fabric
    items = from_node("sw0", flows(70))
    reference = PerPacketWalk(build())
    want = reference.send_batch(items)
    fabric = build()
    tracer = fabric.node("sw1").switch.enable_tracing(capacity=128)
    assert fabric.send_batch(items) == want
    assert device_effects(fabric) == device_effects(reference.fabric)
    assert len(tracer.traces) == 70


def test_small_waves_never_compile_a_columnar_program():
    fabric = line_fabric()
    assert fabric.send("sw0", *flows(1)[0]) is not None
    assert all(
        controller.switch.dp._columnar is None
        for controller in fabric.nodes.values()
    )


def test_unknown_origin_fails_before_any_hop():
    fabric = line_fabric()
    items = from_node("sw0", flows(2)) + [("ghost", flows(1)[0][0], 0)]
    with pytest.raises(FabricError):
        fabric.send_batch(items)
    assert fabric.stats.injected == 0
    assert fabric.node("sw0").switch.packets_in == 0


def test_device_exception_propagates():
    fabric = line_fabric()

    def broken(trace, meter=None):
        raise RuntimeError("device fault")

    fabric.node("sw2").switch.inject_batch = broken
    with pytest.raises(RuntimeError, match="device fault"):
        fabric.send_batch(from_node("sw0", flows(4)))
