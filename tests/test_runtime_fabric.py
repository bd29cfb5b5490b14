"""Tests for the multi-switch fabric."""

import pytest

from repro.net.addresses import parse_ipv6, parse_mac
from repro.programs import (
    base_rp4_source,
    populate_base_tables,
    srv6_load_script,
    srv6_rp4_source,
)
from repro.programs.base_l2l3 import ROUTER_MAC
from repro.runtime import Controller
from repro.runtime.channel import ChannelError
from repro.runtime.fabric import (
    Delivery,
    Fabric,
    FabricError,
    HealthGateError,
    RolloutError,
)
from repro.runtime.workers import WorkerError
from repro.tables.table import TableEntry
from repro.workloads import ipv4_packet, srv6_packet
from tests.test_runtime_walk import flows, line_fabric


def base_node():
    controller = Controller()
    controller.load_base(base_rp4_source())
    populate_base_tables(controller.switch.tables)
    return controller


def two_node_fabric():
    """A <-> B on A's port 3 / B's port 0.

    A's next hop 2 resolves to a DMAC that must be B's router MAC for
    routing to continue at B, so A's nexthop entry is repointed.
    """
    fabric = Fabric()
    a = fabric.add_node("A", base_node())
    fabric.add_node("B", base_node())
    fabric.wire("A", 3, "B", 0)

    # Repoint A's nexthop 2 at B's router MAC (port 3 -> the wire).
    nexthop = a.switch.table("nexthop")
    old = next(e for e in nexthop.entries() if e.key == (2,))
    nexthop.remove_entry(old)
    nexthop.add_entry(
        TableEntry(
            key=(2,),
            action="set_bd_dmac",
            action_data={"bd": 2, "dmac": parse_mac(ROUTER_MAC)},
            tag=1,
        )
    )
    a.switch.table("dmac").add_entry(
        TableEntry(
            key=(2, parse_mac(ROUTER_MAC)),
            action="set_egress_port",
            action_data={"port": 3},
            tag=1,
        )
    )
    return fabric


class TestTopology:
    def test_duplicate_node_rejected(self):
        fabric = Fabric()
        fabric.add_node("A", base_node())
        with pytest.raises(FabricError):
            fabric.add_node("A", base_node())

    def test_unknown_node(self):
        with pytest.raises(FabricError):
            Fabric().node("ghost")

    def test_double_wire_rejected(self):
        fabric = Fabric()
        fabric.add_node("A", base_node())
        fabric.add_node("B", base_node())
        fabric.wire("A", 3, "B", 0)
        with pytest.raises(FabricError):
            fabric.wire("A", 3, "B", 1)

    def test_wiring_is_bidirectional(self):
        fabric = Fabric()
        fabric.add_node("A", base_node())
        fabric.add_node("B", base_node())
        fabric.wire("A", 3, "B", 0)
        assert fabric.peer("A", 3) == ("B", 0)
        assert fabric.peer("B", 0) == ("A", 3)

    def test_max_hops_validation(self):
        with pytest.raises(ValueError):
            Fabric(max_hops=0)


def placement(fabric, n_workers):
    """``fabric.shard(n_workers)``'s partition, worker by worker."""
    return [set(w.devices) for w in fabric.shard(n_workers, start=False)]


def isolated_fabric(names):
    fabric = Fabric()
    for name in names:
        fabric.add_node(name, Controller())
    return fabric


class TestPlacement:
    """Shards follow the wires: each wire-graph component is cut in BFS
    order into contiguous near-equal blocks, each block to the
    least-loaded worker."""

    def test_line_on_two_shards_is_cut_in_half(self):
        assert placement(line_fabric(), 2) == [
            {"sw0", "sw1"}, {"sw2", "sw3"},
        ]

    def test_line_on_four_shards_is_one_node_each(self):
        assert placement(line_fabric(), 4) == [
            {"sw0"}, {"sw1"}, {"sw2"}, {"sw3"},
        ]

    def test_isolated_nodes_are_dealt_round_robin(self):
        fabric = isolated_fabric([f"n{i}" for i in range(5)])
        assert placement(fabric, 2) == [{"n0", "n2", "n4"}, {"n1", "n3"}]

    def test_line_plus_isolated_node_on_three_shards(self):
        fabric = line_fabric()
        fabric.add_node("n4", Controller())
        assert placement(fabric, 3) == [
            {"sw0", "sw1"}, {"sw2", "n4"}, {"sw3"},
        ]

    def test_burst_costs_one_round_per_shard_crossing_plus_one(self):
        fabric = line_fabric()
        fabric.shard(2, start=False)
        deliveries = fabric.send_many("sw0", flows(64))
        assert all(d is not None and d.hops == 4 for d in deliveries)
        workers = fabric.workers
        assert sum(
            w.metrics.counter("worker.commands").value for w in workers
        ) == 2
        assert sum(
            w.requests.stats.messages + w.replies.stats.messages
            for w in workers
        ) == 4


class TestForwarding:
    def test_single_node_edge_delivery(self):
        fabric = Fabric()
        fabric.add_node("A", base_node())
        delivery = fabric.send("A", ipv4_packet("10.1.0.1", "10.2.0.5"), 0)
        assert isinstance(delivery, Delivery)
        assert delivery.node == "A" and delivery.port == 3
        assert delivery.hops == 1 and delivery.path == ("A",)

    def test_two_hop_path(self):
        fabric = two_node_fabric()
        delivery = fabric.send("A", ipv4_packet("10.1.0.1", "10.2.0.5"), 0)
        assert delivery is not None
        assert delivery.path == ("A", "B")
        assert delivery.hops == 2
        # TTL decremented once per routing hop.
        assert delivery.data[14 + 8] == 62

    def test_drop_counted(self):
        fabric = Fabric()
        fabric.add_node("A", base_node())
        assert fabric.send("A", ipv4_packet("10.1.0.1", "10.2.0.5"), 42) is None
        assert fabric.stats.dropped == 1

    def test_loop_cut(self):
        # Repoint A's next hop at its own router MAC and wire its
        # egress back into itself: every traversal re-routes the
        # packet, TTL (64) will not save us within max_hops=3 -- the
        # hop bound must.
        fabric = Fabric(max_hops=3)
        a = fabric.add_node("A", base_node())
        nexthop = a.switch.table("nexthop")
        old = next(e for e in nexthop.entries() if e.key == (2,))
        nexthop.remove_entry(old)
        nexthop.add_entry(
            TableEntry(
                key=(2,),
                action="set_bd_dmac",
                action_data={"bd": 2, "dmac": parse_mac(ROUTER_MAC)},
                tag=1,
            )
        )
        a.switch.table("dmac").add_entry(
            TableEntry(
                key=(2, parse_mac(ROUTER_MAC)),
                action="set_egress_port",
                action_data={"port": 3},
                tag=1,
            )
        )
        fabric.wire("A", 3, "A", 0)
        result = fabric.send("A", ipv4_packet("10.1.0.1", "10.2.0.5"), 0)
        assert result is None
        assert fabric.stats.loops_cut == 1


class TestRollout:
    def test_srv6_rollout_node_by_node(self):
        fabric = two_node_fabric()
        timings = fabric.rollout(
            srv6_load_script(), {"srv6.rp4": srv6_rp4_source()}
        )
        assert set(timings) == {"A", "B"}
        for name in ("A", "B"):
            from repro.programs import populate_srv6_tables

            populate_srv6_tables(fabric.node(name).switch.tables)
        # SRv6 chain across the fabric: A Ends (SID ours), routes the
        # next segment toward B via nexthop 2 (= the wire), B routes on.
        controller_a = fabric.node("A")
        controller_a.api("local_sid")  # exists on both
        packet = srv6_packet(
            src="2001:db8:9::1",
            active_sid="2001:db8:100::1",
            segments=["2001:db8:2::1", "2001:db8:100::1"],
            segments_left=1,
        )
        delivery = fabric.send("A", packet, 0)
        assert delivery is not None
        assert delivery.path == ("A", "B")
        # Outer DA advanced to the final segment by A's End behavior.
        da = delivery.data[14 + 24 : 14 + 40]
        assert da == parse_ipv6("2001:db8:2::1").to_bytes(16, "big")

    def test_partial_rollout(self):
        fabric = two_node_fabric()
        timings = fabric.rollout(
            srv6_load_script(), {"srv6.rp4": srv6_rp4_source()}, nodes=["A"]
        )
        assert set(timings) == {"A"}
        assert "local_sid" in fabric.node("A").switch.tables
        assert "local_sid" not in fabric.node("B").switch.tables

    def test_mid_rollout_failure_reports_blast_radius(self):
        fabric = two_node_fabric()
        fabric.node("B").channel.drop_kinds.add("update.prepare")
        with pytest.raises(RolloutError) as excinfo:
            fabric.rollout(srv6_load_script(), {"srv6.rp4": srv6_rp4_source()})
        err = excinfo.value
        assert err.updated == ["A"]
        assert err.failed == "B"
        assert err.pending == []
        assert err.rolled_back == []  # plain rollout never reverts
        # A keeps its committed update; B was never touched.
        assert "local_sid" in fabric.node("A").switch.tables
        assert "local_sid" not in fabric.node("B").switch.tables


GOOD_PROBE = [(ipv4_packet("10.1.0.1", "10.2.0.5"), 0)]
#: Port 42 is unwired and unknown to the port tables: guaranteed drop.
BAD_PROBE = [(ipv4_packet("10.1.0.1", "10.2.0.5"), 42)]


def four_node_fabric():
    fabric = Fabric()
    for name in ("A", "B", "C", "D"):
        fabric.add_node(name, base_node())
    return fabric


@pytest.fixture
def host(request):
    """Host a rollout test's fabric the way its class asks: serial,
    or ``shard(n_workers, start=False)`` when the class sets
    ``sharded = True`` -- one rollout test body, both modes."""
    hosted = []

    def place(fabric, n_workers=2):
        if getattr(request.cls, "sharded", False):
            fabric.shard(n_workers, start=False)
            hosted.append(fabric)
        return fabric

    yield place
    for fabric in hosted:
        fabric.unshard()


class TestStagedRollout:
    def test_canary_then_waves_happy_path(self, host):
        fabric = host(two_node_fabric())
        report = fabric.staged_rollout(
            srv6_load_script(),
            {"srv6.rp4": srv6_rp4_source()},
            probe_trace=GOOD_PROBE,
        )
        assert report.canary == "A"
        assert report.waves == [["B"]]
        assert set(report.timings) == {"A", "B"}
        assert report.probes == {"A": 0.0, "B": 0.0}
        for name in ("A", "B"):
            assert "local_sid" in fabric.node(name).switch.tables

    def test_wave_partitioning(self, host):
        fabric = host(four_node_fabric())
        report = fabric.staged_rollout(
            srv6_load_script(),
            {"srv6.rp4": srv6_rp4_source()},
            canary="B",
            wave_size=2,
        )
        assert report.canary == "B"
        assert report.waves == [["A", "C"], ["D"]]
        assert set(report.timings) == {"A", "B", "C", "D"}

    def test_failing_canary_leaves_fleet_untouched(self, host):
        fabric = host(two_node_fabric())
        epoch_b = fabric.node("B").switch.dp.epoch
        with pytest.raises(RolloutError) as excinfo:
            fabric.staged_rollout(
                srv6_load_script(),
                {"srv6.rp4": srv6_rp4_source()},
                probe_trace=BAD_PROBE,
                max_drop_rate=0.0,
            )
        err = excinfo.value
        assert err.failed == "A"
        assert isinstance(err.cause, HealthGateError)
        assert err.rolled_back == ["A"]
        assert err.pending == ["B"]
        # Every node is back on (or never left) the old design.
        assert "local_sid" not in fabric.node("A").switch.tables
        assert "local_sid" not in fabric.node("B").switch.tables
        assert fabric.node("B").switch.dp.epoch == epoch_b
        # The fleet still forwards end to end.
        assert fabric.send("A", *GOOD_PROBE[0]) is not None

    def test_mid_wave_failure_rolls_back_in_reverse(self, host):
        fabric = host(four_node_fabric())
        fabric.node("D").channel.drop_kinds.add("update.prepare")
        with pytest.raises(RolloutError) as excinfo:
            fabric.staged_rollout(
                srv6_load_script(),
                {"srv6.rp4": srv6_rp4_source()},
                wave_size=2,
            )
        err = excinfo.value
        assert err.updated == ["A", "B", "C"]
        assert err.failed == "D"
        assert err.rolled_back == ["C", "B", "A"]
        assert err.pending == []
        for name in ("A", "B", "C", "D"):
            controller = fabric.node(name)
            assert "local_sid" not in controller.switch.tables
            assert controller.switch.inject(*GOOD_PROBE[0]) is not None

    def test_unknown_canary_rejected(self, host):
        fabric = host(two_node_fabric())
        with pytest.raises(FabricError):
            fabric.staged_rollout(
                srv6_load_script(),
                {"srv6.rp4": srv6_rp4_source()},
                canary="ghost",
            )

    def test_bad_wave_size_rejected(self, host):
        fabric = host(two_node_fabric())
        with pytest.raises(ValueError):
            fabric.staged_rollout(srv6_load_script(), wave_size=0)


def drop_rate_rules():
    from repro.obs.health import ThresholdRule

    return [
        ThresholdRule(
            "device-drop-rate",
            metric="device.packets_dropped",
            signal="rate",
            window=5.0,
            op=">",
            value=0.0,
            for_seconds=1.0,
            severity="critical",
        )
    ]


class TestHealthGatedRollout:
    """staged_rollout with a health engine attached: the gate becomes
    continuous soak scoring instead of the one-shot probe check."""

    def attach(self, fabric):
        from repro.obs.clock import ManualClock

        engine = fabric.attach_health(
            rules=drop_rate_rules(), clock=ManualClock(tick=1.0)
        )
        return engine

    def test_healthy_fleet_passes_and_reports_scores(self, host):
        fabric = host(two_node_fabric())
        self.attach(fabric)
        report = fabric.staged_rollout(
            srv6_load_script(),
            {"srv6.rp4": srv6_rp4_source()},
            probe_trace=GOOD_PROBE,
        )
        assert report.health == {"A": 1.0, "B": 1.0}
        assert report.alerts == []
        assert report.flight_record is None
        for name in ("A", "B"):
            assert "local_sid" in fabric.node(name).switch.tables

    def test_firing_rule_aborts_and_rolls_back_fleet(self, host):
        fabric = host(four_node_fabric())
        self.attach(fabric)
        # Sabotage C's routing table: its soak probes all drop, the
        # drop-rate rule goes pending -> firing, the gate trips.
        lpm = fabric.node("C").switch.table("ipv4_lpm")
        for entry in list(lpm.entries()):
            lpm.remove_entry(entry)
        with pytest.raises(RolloutError) as excinfo:
            fabric.staged_rollout(
                srv6_load_script(),
                {"srv6.rp4": srv6_rp4_source()},
                probe_trace=GOOD_PROBE,
                wave_size=2,
                soak_ticks=4,
            )
        err = excinfo.value
        assert err.failed == "C"
        assert isinstance(err.cause, HealthGateError)
        assert "device-drop-rate" in str(err.cause)
        assert err.updated == ["A", "B", "C"]
        assert err.rolled_back == ["C", "B", "A"]
        assert err.pending == ["D"]
        for name in ("A", "B", "C", "D"):
            assert "local_sid" not in fabric.node(name).switch.tables
        # The report rides the error: C's lifecycle is in the alert
        # log and its last observed score breached the gate.
        report = err.report
        assert report is not None
        edges = [
            (a["from"], a["to"])
            for a in report.alerts
            if a["device"] == "C"
        ]
        assert ("inactive", "pending") in edges
        assert ("pending", "firing") in edges
        assert report.health["C"] < 1.0

    def test_abort_captures_flight_record(self, host):
        fabric = host(four_node_fabric())
        engine = self.attach(fabric)
        lpm = fabric.node("C").switch.table("ipv4_lpm")
        for entry in list(lpm.entries()):
            lpm.remove_entry(entry)
        with pytest.raises(RolloutError) as excinfo:
            fabric.staged_rollout(
                srv6_load_script(),
                {"srv6.rp4": srv6_rp4_source()},
                probe_trace=GOOD_PROBE,
                wave_size=2,
                soak_ticks=4,
            )
        record = excinfo.value.report.flight_record
        assert record is not None
        assert record["reason"] == "rollout_abort"
        # The ring holds the whole story: commits, metric motion, the
        # alert edges, and the three automatic rollbacks (dumped after
        # the unwind, so they are included).
        assert record["counts"]["rollback"] == 3
        assert record["counts"]["txn_commit"] >= 3  # >= 1 per updated node
        assert record["counts"]["alert"] >= 2
        assert record["counts"]["metric"] >= 1
        rollback_devices = [
            e["device"] for e in record["events"] if e["kind"] == "rollback"
        ]
        assert rollback_devices == ["C", "B", "A"]
        assert engine.recorder.last_dump() is record

    def test_detach_restores_legacy_probe_gate(self, host):
        fabric = host(two_node_fabric())
        engine = self.attach(fabric)
        assert fabric.detach_health() is engine
        assert fabric.health is None
        with pytest.raises(RolloutError) as excinfo:
            fabric.staged_rollout(
                srv6_load_script(),
                {"srv6.rp4": srv6_rp4_source()},
                probe_trace=BAD_PROBE,
                max_drop_rate=0.0,
            )
        err = excinfo.value
        assert isinstance(err.cause, HealthGateError)
        assert err.report.flight_record is None  # no engine, no dump


def fleet_fabric(n_nodes):
    fabric = Fabric()
    for index in range(n_nodes):
        fabric.add_node(f"n{index}", base_node())
    return fabric


def config_json(controller):
    import json

    return json.dumps(controller.design.config, sort_keys=True)


class TestShardedRollout:
    """staged_rollout on a sharded fabric: batched wave fan-out with
    the same deterministic reverse-order rollback contract."""

    sharded = True

    def test_sharded_happy_path_updates_every_node(self, host):
        fabric = host(fleet_fabric(6))
        report = fabric.staged_rollout(
            srv6_load_script(),
            {"srv6.rp4": srv6_rp4_source()},
            wave_size=3,
            probe_trace=GOOD_PROBE,
        )
        assert set(report.timings) == {f"n{i}" for i in range(6)}
        assert all(rate == 0.0 for rate in report.probes.values())
        for index in range(6):
            assert "local_sid" in fabric.node(f"n{index}").switch.tables

    def test_dropped_commit_mid_wave_rolls_back_byte_identical(self, host):
        # One node's update.commit frame is lost mid-wave.  Commits
        # run one batch per worker, so nodes on *other* shards in the
        # same wave may have already flipped -- all of them must
        # unwind, reverse order, and every node's config must land
        # byte-identical to the pre-rollout state.
        baseline = config_json(base_node())
        fabric = host(fleet_fabric(8), n_workers=3)
        fabric.node("n5").channel.drop_kinds.add("update.commit")
        with pytest.raises(RolloutError) as excinfo:
            fabric.staged_rollout(
                srv6_load_script(),
                {"srv6.rp4": srv6_rp4_source()},
                wave_size=4,
            )
        err = excinfo.value
        assert err.failed == "n5"
        # Canary n0, wave 1 = n1-n4 committed.  n5's worker stops at
        # n5; on three shards n6 and n7 live on other workers and
        # committed before the failure surfaced, while a serial
        # fabric's one worker leaves them parked (aborted, pending).
        same_wave = ["n6", "n7"]
        flipped = same_wave if fabric.sharded else []
        assert err.updated == ["n0", "n1", "n2", "n3", "n4"] + flipped
        assert err.rolled_back == list(reversed(err.updated))
        assert err.pending == ([] if fabric.sharded else same_wave)
        for index in range(8):
            controller = fabric.node(f"n{index}")
            assert "local_sid" not in controller.switch.tables
            assert config_json(controller) == baseline
            assert controller.switch.inject(*GOOD_PROBE[0]) is not None

    def test_staging_failure_aborts_whole_wave_shadow(self, host):
        # A staging failure must abort the wave while every member is
        # still shadow: no node in that wave commits, earlier waves
        # roll back.
        fabric = host(fleet_fabric(6))
        fabric.node("n4").channel.drop_kinds.add("update.prepare")
        with pytest.raises(RolloutError) as excinfo:
            fabric.staged_rollout(
                srv6_load_script(),
                {"srv6.rp4": srv6_rp4_source()},
                wave_size=3,
            )
        err = excinfo.value
        assert err.failed == "n4"
        assert err.updated == ["n0", "n1", "n2", "n3"]
        assert err.rolled_back == ["n3", "n2", "n1", "n0"]
        assert "n5" in err.pending
        for index in range(6):
            assert "local_sid" not in fabric.node(
                f"n{index}"
            ).switch.tables


# One rollout test body, both modes: each class above reruns on the
# other kind of fabric through the ``host`` fixture.


class TestStagedRolloutSharded(TestStagedRollout):
    sharded = True


class TestHealthGatedRolloutSharded(TestHealthGatedRollout):
    sharded = True


class TestShardedRolloutSerial(TestShardedRollout):
    sharded = False


def clear_routes(fabric, name):
    """Empty a node's LPM table: every probe through it drops."""
    lpm = fabric.node(name).switch.table("ipv4_lpm")
    for entry in list(lpm.entries()):
        lpm.remove_entry(entry)


def fail_probes(fabric, name, monkeypatch):
    """Make a node's front door raise, as a crashed probe would."""

    def broken(trace, *args, **kwargs):
        raise RuntimeError(f"probe crashed on {name}")

    monkeypatch.setattr(fabric.node(name).switch, "inject_batch", broken)


class TestRolloutModeParity:
    """One wave runner: the same fault yields the same blast radius on
    a serial fabric (here) and a sharded one
    (``TestRolloutModeParitySharded``), and every node lands back on
    its pre-rollout config.  Only the type of ``cause`` tells the
    modes apart -- ``causes`` is (serial, sharded): the original
    exception serially, a ``WorkerError`` naming the node once it
    crossed a worker frame, and the fabric's own ``HealthGateError``
    in both."""

    FAULTS = {
        # Staging fails on the second member of wave [n1, n2, n3]:
        # n1 and n3 are aborted while still shadow.
        "stage_second_member": dict(
            n_nodes=5, wave_size=3, node="n2",
            inject=lambda fabric, node, mp: fabric.node(
                node
            ).channel.drop_kinds.add("update.prepare"),
            outcome=(["n0"], "n2", ["n0"], ["n1", "n3", "n4"]),
            causes=(ChannelError, WorkerError),
        ),
        # The gate trips on the first member of wave [n1, n2]: the
        # whole wave committed, so both roll back; [n3] never starts.
        "gate_breach_first_member": dict(
            n_nodes=4, wave_size=2, node="n1",
            inject=lambda fabric, node, mp: clear_routes(fabric, node),
            outcome=(
                ["n0", "n1", "n2"], "n1", ["n2", "n1", "n0"], ["n3"]
            ),
            causes=(HealthGateError, HealthGateError),
        ),
        # The probe itself raises on the last member of a wave: a gate
        # failure like any other, so nothing stays on the new design.
        "probe_raises": dict(
            n_nodes=5, wave_size=3, node="n3",
            inject=fail_probes,
            outcome=(
                ["n0", "n1", "n2", "n3"], "n3",
                ["n3", "n2", "n1", "n0"], ["n4"],
            ),
            causes=(RuntimeError, WorkerError),
        ),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_same_blast_radius_in_both_modes(self, fault, host, monkeypatch):
        spec = self.FAULTS[fault]
        baseline = config_json(base_node())
        fabric = host(fleet_fabric(spec["n_nodes"]))
        spec["inject"](fabric, spec["node"], monkeypatch)
        with pytest.raises(RolloutError) as excinfo:
            fabric.staged_rollout(
                srv6_load_script(),
                {"srv6.rp4": srv6_rp4_source()},
                wave_size=spec["wave_size"],
                probe_trace=GOOD_PROBE,
            )
        err = excinfo.value
        assert (
            err.updated, err.failed, err.rolled_back, err.pending
        ) == spec["outcome"]
        assert type(err.cause) is spec["causes"][fabric.sharded]
        if isinstance(err.cause, WorkerError):
            assert err.cause.node == spec["node"]
        for controller in fabric.nodes.values():
            assert config_json(controller) == baseline

    def test_unknown_node_fails_before_anything_is_staged(self, host):
        fabric = host(fleet_fabric(2))
        n0 = fabric.node("n0")
        epoch, config = n0.switch.dp.epoch, config_json(n0)
        with pytest.raises(FabricError, match="ghost") as excinfo:
            fabric.staged_rollout(
                srv6_load_script(),
                {"srv6.rp4": srv6_rp4_source()},
                nodes=["n0", "ghost"],
            )
        assert not isinstance(excinfo.value, RolloutError)
        assert n0.switch.dp.epoch == epoch
        assert config_json(n0) == config


class TestRolloutModeParitySharded(TestRolloutModeParity):
    sharded = True


class TestPerHopRegistryMetrics:
    def test_send_labels_every_hop(self):
        fabric = two_node_fabric()
        delivery = fabric.send("A", ipv4_packet("10.1.0.1", "10.2.0.5"), 0)
        assert delivery is not None and delivery.path == ("A", "B")
        metrics = fabric.metrics
        assert metrics.value("fabric.injected", node="A") == 1
        # A forwarded out port 3 (the wire), B out its edge port.
        assert metrics.value("fabric.hop_forwarded", node="A", port="3") == 1
        assert metrics.value(
            "fabric.hop_forwarded", node="B", port=str(delivery.port)
        ) == 1
        assert metrics.value(
            "fabric.delivered", node="B", port=str(delivery.port)
        ) == 1

    def test_drop_labels_the_dropping_node(self):
        fabric = Fabric()
        fabric.add_node("A", base_node())
        assert fabric.send("A", ipv4_packet("10.1.0.1", "10.2.0.5"), 42) is None
        assert fabric.metrics.value("fabric.hop_dropped", node="A") == 1
