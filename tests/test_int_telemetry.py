"""Tests for the C5 multi-hop INT use case and its primitives."""

import pytest

from repro.net.headers import (
    INT_ETHERTYPE,
    INT_HOP_BYTES,
    INT_SHIM,
    int_hop_records,
    int_pack_hop,
    int_unpack_hop,
    standard_header_types,
)
from repro.net.linkage import standard_linkage
from repro.net.packet import Packet
from repro.obs.clock import ManualClock
from repro.programs import base_rp4_source, populate_base_tables
from repro.programs.int_telemetry import (
    int_load_script,
    int_rp4_source,
    int_strip_load_script,
    int_strip_rp4_source,
    populate_int_sink_tables,
    populate_int_tables,
)
from repro.runtime import Controller
from repro.workloads import ipv4_packet


@pytest.fixture
def controller():
    ctl = Controller()
    ctl.load_base(base_rp4_source())
    populate_base_tables(ctl.switch.tables)
    ctl.run_script(int_load_script(), {"int.rp4": int_rp4_source()})
    populate_int_tables(ctl.switch.tables, switch_id=7)
    ctl.switch.enable_int(ManualClock(start=1.0, tick=1e-6))
    return ctl


def parse_out(data):
    """Parse an instrumented packet on the collector side."""
    types = dict(standard_header_types())
    types["int_shim"] = INT_SHIM
    linkage = standard_linkage()
    linkage.set_selector("int_shim", "orig_ethertype")
    linkage.add_link("ethernet", "int_shim", INT_ETHERTYPE)
    linkage.add_link("int_shim", "ipv4", 0x0800)
    packet = Packet(data)
    packet.parse_all(types, linkage)
    return packet


class TestHopRecordCodec:
    def test_roundtrip(self):
        record = {
            "switch_id": 42,
            "ingress_ts": 1_000_000,
            "egress_ts": 1_000_500,
            "queue_depth": 3,
            "dp_epoch": 9,
        }
        packed = int_pack_hop(record)
        assert len(packed) == INT_HOP_BYTES
        assert int_unpack_hop(packed) == record

    def test_timestamps_masked_to_48_bits(self):
        record = int_unpack_hop(int_pack_hop({"ingress_ts": 1 << 60}))
        assert record["ingress_ts"] == 0


class TestIntInsertion:
    def test_loads_without_extra_tsp(self, controller):
        assert controller.design.plan.tsp_count == 7
        assert "int_watch" in controller.switch.tables

    def test_watched_flow_gets_hop_record(self, controller):
        out = controller.switch.inject(
            ipv4_packet("10.1.0.1", "10.2.0.1", sport=1), 0
        )
        assert out is not None
        parsed = parse_out(out.data)
        assert parsed.header_names()[:3] == ["ethernet", "int_shim", "ipv4"]
        assert parsed.read("ethernet.ethertype") == INT_ETHERTYPE
        assert parsed.read("int_shim.orig_ethertype") == 0x0800
        assert parsed.read("int_shim.hop_count") == 1
        hops = int_hop_records(parsed.header("int_shim"))
        assert len(hops) == 1
        assert hops[0]["switch_id"] == 7
        assert hops[0]["ingress_ts"] <= hops[0]["egress_ts"]
        assert hops[0]["egress_ts"] > 0

    def test_reinjection_appends_second_hop(self, controller):
        # A transit switch re-parses the varbit stack a previous switch
        # started and appends its own record instead of a second shim.
        from repro.net.addresses import parse_mac
        from repro.programs.base_l2l3 import ROUTER_MAC

        first = controller.switch.inject(
            ipv4_packet("10.1.0.1", "10.2.0.1", sport=2), 0
        )
        # Re-address the instrumented output at the router (what the
        # next hop's wire would carry) and run it through again.
        router = parse_mac(ROUTER_MAC).to_bytes(6, "big")
        second = controller.switch.inject(router + first.data[6:], 0)
        assert second is not None
        parsed = parse_out(second.data)
        assert parsed.read("int_shim.hop_count") == 2
        hops = int_hop_records(parsed.header("int_shim"))
        assert [hop["switch_id"] for hop in hops] == [7, 7]
        # Shared clock: the second traversal's stamps come later.
        assert hops[0]["egress_ts"] <= hops[1]["ingress_ts"]

    def test_routing_still_correct(self, controller):
        out = controller.switch.inject(
            ipv4_packet("10.1.0.1", "10.2.0.1", sport=3), 0
        )
        assert out is not None and out.port == 3
        # Inner IPv4 untouched except TTL.
        parsed = parse_out(out.data)
        assert parsed.read("ipv4.ttl") == 63

    def test_unwatched_flows_untouched(self, controller):
        out = controller.switch.inject(ipv4_packet("10.1.0.1", "10.2.5.5"), 0)
        assert out is not None
        assert out.data[12:14] == b"\x08\x00"  # plain IPv4 ethertype

    def test_offload_restores(self, controller):
        controller.run_script("unload --func_name int_insert")
        assert "int_watch" not in controller.switch.tables
        out = controller.switch.inject(ipv4_packet("10.1.0.1", "10.2.0.1"), 0)
        assert out is not None and out.data[12:14] == b"\x08\x00"


def instrumented(path, src="10.1.0.1", sport=1024, inner=None):
    """A delivered packet carrying one hop record per switch id in
    ``path`` (``inner``: wire bytes to wrap instead of an IPv4 flow)."""
    data = inner if inner is not None else ipv4_packet(src, "10.2.0.1", sport=sport)
    stack = b"".join(
        int_pack_hop({"switch_id": switch, "ingress_ts": 5000 * j + sport,
                      "egress_ts": 5000 * j + 3 * sport, "queue_depth": j,
                      "dp_epoch": 1 + (switch == 9)})
        for j, switch in enumerate(path)
    )
    return (data[:12] + INT_ETHERTYPE.to_bytes(2, "big") + data[12:14]
            + bytes([len(path)]) + stack + data[14:])


class TestIngestBatch:
    """``IntCollector.ingest_batch`` is N x ``ingest``: records, path
    changes, histograms and stripped bytes, in delivery order."""

    @staticmethod
    def both(items):
        from repro.obs.intcol import IntCollector

        one, batch = IntCollector(), IntCollector()
        singles = [one.ingest(data, node=node, port=port)
                   for data, node, port in items]
        batched = batch.ingest_batch(items)
        return (one, singles), (batch, batched)

    def test_mixed_batch_matches_per_packet_ingest(self):
        from repro.workloads import ipv6_packet

        items = []
        for i in range(6):
            items += [
                (instrumented([1, 2, 3], sport=1024 + i), "sw2", 3),
                (ipv4_packet("10.1.0.9", "10.2.0.1", sport=1024 + i), "sw2", 3),
                (instrumented([1, 9] if i % 2 else [1, 2], src="10.1.0.2",
                              sport=2048 + i), "sw1", 3),
                (instrumented([4], inner=ipv6_packet(
                    "2001:db8:1::1", "2001:db8:2::1", sport=3000 + i)), None, None),
                (instrumented([], src="10.1.0.3", sport=4000 + i), "sw0", 1),
            ]
        (one, singles), (batch, batched) = self.both(items)
        assert [r.stripped for r in batched] == [r.stripped for r in singles]
        assert [r.record for r in batched] == [r.record for r in singles]
        assert batch.records == one.records
        assert batch.path_changes == one.path_changes
        assert len(batch.path_changes) == 5
        assert batch.metrics.to_prometheus() == one.metrics.to_prometheus()
        assert batch.to_dicts() == one.to_dicts()
        assert batch.summary() == one.summary()
        assert {r["flow"] for r in batch.records} >= {"ethertype:0x86dd"}

    def test_short_stack_raises_like_ingest(self):
        """A ``hop_count`` that claims more records than the frame
        carries fails in the parse, exactly as per-packet ingest does,
        after the rows before it were recorded."""
        from repro.net.packet import ParseError

        good = [(instrumented([1, 2], sport=1024 + i), "sw1", 3) for i in range(9)]
        bad = instrumented([1, 2])
        bad = bad[:16] + bytes([40]) + bad[17:]  # 40 hops, 2 on the wire
        items = good[:5] + [(bad, "sw1", 3)] + good[5:]
        errors = []
        collectors = []
        for batched in (False, True):
            from repro.obs.intcol import IntCollector

            collector = IntCollector()
            collectors.append(collector)
            with pytest.raises(ParseError) as raised:
                if batched:
                    collector.ingest_batch(items)
                else:
                    for data, node, port in items:
                        collector.ingest(data, node=node, port=port)
            errors.append(str(raised.value))
        assert errors[0] == errors[1] and "overruns" in errors[0]
        assert collectors[0].records == collectors[1].records
        assert len(collectors[1].records) == 5

    def test_a_warm_round_skips_the_parse_walk(self, monkeypatch):
        """The collector keeps its own learned probes, so its second
        delivery round of the same mix is claimed by probes without a
        look at the parse graph, and records and stripped bytes equal
        those of a collector that walks every round."""
        from repro.dp import columnar
        from repro.obs.intcol import IntCollector
        from repro.workloads import ipv6_packet

        if columnar._numpy() is None:
            pytest.skip("the batch walk needs NumPy")

        items = []
        for i in range(4):
            items += [
                (instrumented([1, 2, 3], sport=1024 + i), "sw2", 3),
                (ipv4_packet("10.1.0.9", "10.2.0.1", sport=1024 + i), "sw2", 3),
                (instrumented([4], inner=ipv6_packet(
                    "2001:db8:1::1", "2001:db8:2::1", sport=3000 + i)), "sw1", 3),
            ]
        probed = IntCollector()
        selector = probed._linkage.selector
        lookups = []

        def counted(header):
            lookups.append(header)
            return selector(header)

        monkeypatch.setattr(probed._linkage, "selector", counted)
        rounds = [probed.ingest_batch(items)]
        cold = len(lookups)
        assert cold and probed._probes
        rounds.append(probed.ingest_batch(items))
        assert len(lookups) == cold  # the second round walked nothing

        monkeypatch.setattr(columnar, "MAX_PROBES", 0)
        walking = IntCollector()
        want = [walking.ingest_batch(items) for _ in range(2)]
        assert walking._probes == []
        for got, expected in zip(rounds, want):
            assert [r.stripped for r in got] == [r.stripped for r in expected]
            assert [r.record for r in got] == [r.record for r in expected]
        assert probed.records == walking.records

    def test_dropped_collector_is_freed_without_a_gc_pass(self):
        """No reference cycle: a fabric that swaps in a fresh collector
        releases the old one's records at once, not at the next full
        collection (which a batch-ingesting process reaches rarely)."""
        import gc
        import weakref

        from repro.obs.intcol import IntCollector

        collector = IntCollector()
        collector.ingest_batch([(instrumented([1, 2]), "sw1", 3)] * 8)
        assert collector.summary()["flows"]
        dead = weakref.ref(collector)
        gc.disable()
        try:
            del collector
            assert dead() is None
        finally:
            gc.enable()


class TestIntStrip:
    def test_strip_stage_restores_and_reports(self, controller):
        from repro.obs.intcol import IntCollector

        controller.run_script(
            int_strip_load_script(),
            {"int_strip.rp4": int_strip_rp4_source()},
        )
        populate_int_sink_tables(controller.switch.tables)
        collector = IntCollector()
        controller.switch.attach_int_collector(collector, node="sink")

        out = controller.switch.inject(
            ipv4_packet("10.1.0.1", "10.2.0.1", sport=4), 0
        )
        assert out is not None
        # Wire output is back to plain IPv4: insert then strip on the
        # same device cancels on the wire ...
        assert out.data[12:14] == b"\x08\x00"
        restored = Packet(out.data)
        restored.parse_all(standard_header_types(), standard_linkage())
        assert restored.header_names()[:2] == ["ethernet", "ipv4"]
        # ... but the hop record reached the collector device-side.
        assert len(collector.records) == 1
        record = collector.records[0]
        assert record["node"] == "sink"
        assert record["path"] == [7]
        assert record["flow"] == "10.1.0.1->10.2.0.1"


class TestPrimitives:
    def test_push_requires_device_types(self):
        from repro.tables.actions import ActionContext
        from repro.tables.primitives import prim_push_int

        packet = Packet(b"\x00" * 64)
        with pytest.raises(RuntimeError):
            prim_push_int(ActionContext(packet))

    def test_pop_restores_ethertype(self, controller):
        out = controller.switch.inject(
            ipv4_packet("10.1.0.1", "10.2.0.1", sport=5), 0
        )
        parsed = parse_out(out.data)
        from repro.tables.actions import ActionContext
        from repro.tables.primitives import prim_pop_int

        prim_pop_int(ActionContext(parsed))
        assert parsed.read("ethernet.ethertype") == 0x0800
        assert not parsed.is_valid("int_shim")
        # The restored wire bytes parse as a plain IPv4 packet.
        restored = Packet(parsed.emit())
        restored.parse_all(standard_header_types(), standard_linkage())
        assert restored.header_names()[:2] == ["ethernet", "ipv4"]

    def test_pop_without_shim_is_a_no_op(self):
        from repro.tables.actions import ActionContext
        from repro.tables.primitives import prim_pop_int

        packet = Packet(ipv4_packet("10.1.0.1", "10.2.0.1"))
        packet.parse_all(standard_header_types(), standard_linkage())
        before = packet.emit()
        prim_pop_int(ActionContext(packet))
        assert packet.emit() == before
