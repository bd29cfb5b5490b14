"""Multi-hop INT across a line fabric: paths, latency, rollout evidence."""

import pytest

from repro.bench.scenarios import make_int_fabric
from repro.dp.columnar import _numpy
from repro.obs.clock import ManualClock
from repro.programs import acl_load_script, acl_rp4_source
from repro.workloads import ipv4_packet


def watched(sport=1024):
    return ipv4_packet("10.1.0.1", "10.2.0.1", sport=sport)


@pytest.fixture
def line3():
    clock = ManualClock(start=1.0, tick=1e-6)
    fabric, collector = make_int_fabric(n_nodes=3, clock=clock, strip="edge")
    return fabric, collector


class TestMultiHopPath:
    def test_hop_order_matches_wiring(self, line3):
        fabric, collector = line3
        delivery = fabric.send("sw0", watched(), 0)
        assert delivery is not None
        assert tuple(delivery.path) == ("sw0", "sw1", "sw2")
        assert len(collector.records) == 1
        record = collector.records[0]
        # One hop record per instrumented switch, in traversal order.
        assert record["path"] == [1, 2, 3]
        assert record["flow"] == "10.1.0.1->10.2.0.1"
        assert record["node"] == "sw2"

    def test_timestamps_monotonic_along_path(self, line3):
        fabric, collector = line3
        fabric.send("sw0", watched(), 0)
        hops = collector.records[0]["hops"]
        stamps = []
        for hop in hops:
            assert hop["ingress_ts"] <= hop["egress_ts"]
            stamps.extend((hop["ingress_ts"], hop["egress_ts"]))
        assert stamps == sorted(stamps)
        assert collector.records[0]["e2e_latency_ns"] > 0
        # All hops forwarded under the same (fully rolled out) epoch.
        assert collector.records[0]["epoch_mismatch"] is False

    def test_edge_strip_delivers_plain_packet(self, line3):
        fabric, _collector = line3
        delivery = fabric.send("sw0", watched(), 0)
        assert delivery.data[12:14] == b"\x08\x00"

    def test_latency_histograms_exported(self, line3):
        fabric, collector = line3
        fabric.send("sw0", watched(), 0)
        text = collector.metrics.to_prometheus()
        assert "int_e2e_latency_ns_bucket" in text
        for switch_id in (1, 2, 3):
            assert f'int_hop_latency_ns_count{{switch="{switch_id}"}}' in text

    def test_latency_quantiles(self, line3):
        fabric, collector = line3
        for sport in range(1024, 1032):
            fabric.send("sw0", watched(sport), 0)
        p50 = collector.latency_quantile(0.5)
        p99 = collector.latency_quantile(0.99)
        assert p50 is not None and p99 is not None
        assert 0 < p50 <= p99
        # Per-hop quantiles address individual switches; an unknown
        # switch has no observations.
        assert collector.latency_quantile(0.99, switch_id=1) > 0
        assert collector.latency_quantile(0.99, switch_id=77) is None
        summary = collector.summary()
        assert summary["e2e_latency_ns"]["p50"] == p50
        assert set(summary["hop_latency_p99_ns"]) == {"1", "2", "3"}

    def test_sink_strip_reports_device_side(self):
        clock = ManualClock(start=1.0, tick=1e-6)
        fabric, collector = make_int_fabric(
            n_nodes=3, clock=clock, strip="sink"
        )
        delivery = fabric.send("sw0", watched(), 0)
        assert delivery is not None
        assert delivery.data[12:14] == b"\x08\x00"
        assert len(collector.records) == 1
        record = collector.records[0]
        assert record["path"] == [1, 2, 3]
        assert record["node"] == "sw2"


class TestRolloutEvidence:
    def test_mixed_epochs_only_inside_flip_window(self, line3):
        fabric, collector = line3
        trace = [(watched(sport=2000 + i), 0) for i in range(3)]

        # Before the rollout every node forwards under the same epoch.
        for data, port in trace:
            fabric.send("sw0", data, port)
        assert all(not r["epoch_mismatch"] for r in collector.records)

        report = fabric.staged_rollout(
            acl_load_script(),
            {"acl.rp4": acl_rp4_source()},
            wave_size=1,
            evidence_trace=trace,
        )

        # canary:sw0, wave:0 (sw1), wave:1 (sw2).
        assert [e["after"] for e in report.epoch_evidence] == [
            "canary:sw0",
            "wave:0",
            "wave:1",
        ]
        mid = report.epoch_evidence[:-1]
        final = report.epoch_evidence[-1]
        # Inside the flip window packets straddle old and new plans --
        # the staged rollout is observable in-band.
        for checkpoint in mid:
            assert len(checkpoint["epochs"]) == 2
            assert checkpoint["mismatched_packets"] == checkpoint["packets"]
        # Once every node committed, the evidence is single-epoch again.
        assert len(final["epochs"]) == 1
        assert final["mismatched_packets"] == 0
        assert final["epochs"][0] == max(mid[0]["epochs"])

    def test_collector_epoch_evidence_view(self, line3):
        fabric, collector = line3
        trace = [(watched(sport=3000), 0)]
        fabric.staged_rollout(
            acl_load_script(),
            {"acl.rp4": acl_rp4_source()},
            wave_size=1,
            evidence_trace=trace,
        )
        evidence = collector.epoch_evidence()
        assert evidence, "mid-rollout packets must record mixed epochs"
        assert all(len(r["epochs"]) > 1 for r in evidence)
        assert collector.summary()["epoch_mismatch_packets"] == len(evidence)


@pytest.mark.parametrize("shards", [None, 2, 4])
class TestIntBursts:
    """A burst of watched packets: every hop of the line is one INT
    batch (columnar when NumPy is present), and the edge ingests each
    delivery round as one ``ingest_batch``."""

    N = 24

    def send(self, shards, tick, columnar=True):
        fabric, collector = make_int_fabric(
            n_nodes=3, clock=ManualClock(start=1.0, tick=tick), strip="edge"
        )
        for controller in fabric.nodes.values():
            controller.switch.dp.columnar_enabled = columnar
        if shards:
            fabric.shard(shards, start=False)
        trace = [(watched(sport=1024 + i), 0) for i in range(self.N)]
        deliveries = fabric.send_many("sw0", trace)
        fabric.unshard()
        if columnar and _numpy() is not None:  # every hop ran columnar
            for controller in fabric.nodes.values():
                assert all(controller.switch.dp._columnar[1].sigs.values())
        return deliveries, collector

    def test_paths_and_stamps(self, shards):
        deliveries, collector = self.send(shards, tick=1e-6)
        assert all(d is not None and d.data[12:14] == b"\x08\x00"
                   for d in deliveries)
        assert len(collector.records) == self.N
        for record in collector.records:
            assert record["path"] == [1, 2, 3]
            stamps = []
            for hop in record["hops"]:
                assert hop["ingress_ts"] <= hop["egress_ts"]
                stamps += [hop["ingress_ts"], hop["egress_ts"]]
            assert stamps == sorted(stamps)

    def test_frozen_clock_matches_the_scalar_loop(self, shards):
        deliveries, collector = self.send(shards, tick=0.0)
        want, reference = self.send(shards, tick=0.0, columnar=False)
        assert deliveries == want
        assert collector.records == reference.records
        assert collector.summary() == reference.summary()
