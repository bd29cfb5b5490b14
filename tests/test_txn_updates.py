"""Transactional updates: protocol order, failure injection, aborts.

The acceptance bar for the transaction engine: any failure before
commit -- a bad template, an exhausted allocator, a dropped control
message, a validator fault -- leaves the live device byte-identical
to its pre-update state, on both architectures.
"""

import pytest

from repro.bench.scenarios import CASE_ARTIFACTS
from repro.compiler.rp4bc import TargetSpec, compile_update
from repro.dp.exec import run_tsp_plan
from repro.dp.hooks import resolve_hooks
from repro.dp.plan import describe_plan
from repro.ipsa.pipeline import PipelineError
from repro.memory.pool import AllocationError
from repro.programs import (
    base_p4_source,
    base_rp4_source,
    ecmp_load_script,
    ecmp_rp4_source,
    populate_base_tables,
)
from repro.programs.p4_variants import ecmp_p4_source
from repro.runtime import (
    ChannelError,
    Controller,
    ControllerError,
    TxnPhase,
    TxnStateError,
    TxnValidationError,
)
from repro.tables.table import TableEntry
from repro.workloads import ipv4_packet, mixed_l3_trace

PROBE = (ipv4_packet("10.1.0.1", "10.2.0.5"), 0)


@pytest.fixture
def controller():
    ctl = Controller()
    ctl.load_base(base_rp4_source())
    populate_base_tables(ctl.switch.tables)
    return ctl


def ecmp_update(controller):
    """A freshly compiled C1 update message for the live design."""
    plan = compile_update(
        controller.design, ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}
    )
    return plan.update_message(controller.design.config)


def ipsa_state(switch):
    """Everything an update can touch, identity included."""
    return {
        "tables": {name: id(t) for name, t in switch.tables.items()},
        "entries": {
            name: [(e.key, e.action) for e in t.entries()]
            for name, t in switch.tables.items()
        },
        "actions": {name: id(a) for name, a in switch.actions.items()},
        "metadata": dict(switch.metadata_defaults),
        "header_types": set(switch.header_types),
        "links": dict(switch.linkage._edges),
        "plan": describe_plan(switch.dp.plan()),
        "epoch": switch.dp.epoch,
        "generation": switch.dp.generation,
        "paused": switch.paused,
        "selector_active": set(switch.pipeline.selector.active),
        "tsps": [
            (t.index, t.side, tuple(id(s) for s in t.stages), t.state)
            for t in switch.pipeline.tsps
        ],
    }


def pisa_state(switch):
    return {
        "tables": {name: id(t) for name, t in switch.tables.items()},
        "actions": {name: id(a) for name, a in switch.actions.items()},
        "metadata": dict(switch.metadata_defaults),
        "pipeline": id(switch.pipeline),
        "parser": id(switch.parser),
        "plan": describe_plan(switch.dp.plan()),
        "epoch": switch.dp.epoch,
    }


class TestTxnProtocol:
    def test_commit_runs_pending_phases(self, controller):
        txn = controller.switch.begin_update(ecmp_update(controller))
        assert txn.phase is TxnPhase.PENDING
        stats = txn.commit()  # auto prepare + validate
        assert txn.phase is TxnPhase.COMMITTED
        assert stats.templates_written == 1

    def test_phase_order_enforced(self, controller):
        txn = controller.switch.begin_update(ecmp_update(controller))
        with pytest.raises(TxnStateError):
            txn.validate()  # validate before prepare
        txn = controller.switch.begin_update(ecmp_update(controller))
        txn.prepare()
        with pytest.raises(TxnStateError):
            txn.prepare()  # prepare twice

    def test_abort_is_idempotent(self, controller):
        txn = controller.switch.begin_update(ecmp_update(controller))
        txn.prepare()
        txn.abort()
        txn.abort()
        assert txn.phase is TxnPhase.ABORTED
        with pytest.raises(TxnStateError):
            txn.commit()

    def test_committed_txn_cannot_abort(self, controller):
        txn = controller.switch.begin_update(ecmp_update(controller))
        txn.commit()
        with pytest.raises(TxnStateError):
            txn.abort()

    def test_txn_metrics_counted(self, controller):
        switch = controller.switch
        controller.switch.begin_update(ecmp_update(controller)).commit()
        assert switch.metrics.value("txn.prepared") == 1
        assert switch.metrics.value("txn.validated") == 1
        assert switch.metrics.value("txn.committed") == 1
        assert switch.metrics.value("txn.stall_seconds_count") == 1


class TestIpsaFailureInjection:
    """Every pre-commit failure leaves the device byte-identical."""

    def check_abort(self, controller, tamper, expected):
        switch = controller.switch
        before = ipsa_state(switch)
        update = ecmp_update(controller)
        txn = switch.begin_update(update)
        tamper(update, txn)
        with pytest.raises(expected):
            txn.prepare()
            txn.validate()
        assert txn.phase is TxnPhase.ABORTED
        assert ipsa_state(switch) == before
        assert switch.metrics.value("txn.aborted") == 1
        # The device still forwards and still accepts a clean update.
        assert switch.inject(*PROBE) is not None
        controller.run_script(
            ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}
        )
        assert "ecmp_ipv4" in switch.tables

    def test_bad_template_target(self, controller):
        def tamper(update, txn):
            update["templates"][0]["tsp"] = 99

        self.check_abort(controller, tamper, PipelineError)

    def test_unlink_of_missing_edge(self, controller):
        def tamper(update, txn):
            update["unlink_headers"] = [["ipv4", 99]]

        self.check_abort(controller, tamper, KeyError)

    def test_selector_out_of_range(self, controller):
        def tamper(update, txn):
            update["selector"]["active"] = list(
                update["selector"].get("active", [])
            ) + [99]

        self.check_abort(controller, tamper, TxnValidationError)

    def test_validator_fault(self, controller):
        def tamper(update, txn):
            def boom(t):
                raise RuntimeError("injected validator fault")

            txn.validators.append(boom)

        self.check_abort(controller, tamper, RuntimeError)

    def test_validation_findings_carried(self, controller):
        update = ecmp_update(controller)
        update["selector"]["active"] = [0, 99]
        txn = controller.switch.begin_update(update)
        txn.prepare()
        with pytest.raises(TxnValidationError) as excinfo:
            txn.validate()
        assert any("99" in f for f in excinfo.value.findings)


class TestChannelFailureInjection:
    def test_envelope_kinds_counted(self, controller):
        controller.run_script(
            ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}
        )
        by_kind = controller.channel.stats.by_kind
        assert by_kind["config.load"].messages == 1
        assert by_kind["update.prepare"].messages == 1
        assert by_kind["update.commit"].messages == 1
        assert controller.metrics.value(
            "channel.messages", kind="update.prepare"
        ) == 1
        assert controller.channel.seq == controller.channel.stats.messages

    def test_dropped_prepare_leaves_state_untouched(self, controller):
        switch = controller.switch
        before = ipsa_state(switch)
        controller.channel.drop_kinds.add("update.prepare")
        with pytest.raises(ChannelError):
            controller.stage_update(
                ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}
            )
        assert ipsa_state(switch) == before
        assert controller.history == ["load_base"]
        assert controller._undo == []
        # The loss is still accounted: the message hit the wire.
        assert controller.channel.stats.by_kind["update.prepare"].messages == 1

    def test_dropped_commit_is_retryable(self, controller):
        staged = controller.stage_update(
            ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}
        )
        controller.channel.drop_kinds.add("update.commit")
        with pytest.raises(ChannelError):
            staged.commit()
        assert not staged.committed
        assert "nexthop" in controller.switch.tables  # not flipped
        controller.channel.drop_kinds.clear()
        staged.commit()
        assert "ecmp_ipv4" in controller.switch.tables


class TestControllerStagedAbort:
    def test_abort_leaves_state_untouched(self, controller):
        before = ipsa_state(controller.switch)
        design = controller.design
        staged = controller.stage_update(
            ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}
        )
        staged.abort()
        staged.abort()  # idempotent
        assert ipsa_state(controller.switch) == before
        assert controller.design is design
        assert controller.history[-1] == "abort"
        with pytest.raises(ControllerError):
            staged.commit()
        # A fresh update still goes through.
        controller.run_script(
            ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}
        )
        assert "ecmp_ipv4" in controller.switch.tables


class TestHitlessCommit:
    """The paper's hitless claim (Sec. 5.3): an in-situ update costs
    the traffic nothing -- no in-flight packet is discarded and the
    old plan keeps serving until the pointer flip."""

    @pytest.mark.parametrize("case", sorted(CASE_ARTIFACTS))
    def test_update_under_traffic_loses_nothing(self, controller, case):
        script, snippet, name, _populate, _ = CASE_ARTIFACTS[case]
        switch = controller.switch

        # Mid-flight traffic: past ingress, parked in the TM when the
        # update arrives.
        plan = switch.dp.plan()
        hooks = resolve_hooks(switch)
        for data, port in mixed_l3_trace(16, seed=24):
            packet = switch.dp.new_packet(data, port)
            for tsp_plan in plan.ingress:
                run_tsp_plan(tsp_plan, packet, switch, hooks)
            assert not packet.metadata.get("drop")
            switch.pipeline.tm.enqueue(packet)
        # Upstream traffic: waiting at the intake.
        for data, port in mixed_l3_trace(60, seed=23):
            switch.enqueue(data, port)

        epoch = switch.dp.epoch
        staged = controller.stage_update(script(), {name: snippet()})
        # The old plan serves the whole intake while the shadow is staged.
        assert len(switch.pump()) == 60
        assert switch.dp.epoch == epoch

        _plan, stats, _timing = staged.commit()
        assert stats.drained_packets == 0
        assert stats.completed_packets == 16
        assert stats.stall_seconds > 0


class TestAllocationExhaustion:
    def test_update_that_cannot_place_tables_aborts_cleanly(self):
        # 40 SRAM blocks: the base design fits exactly; the two ECMP
        # hash tables do not.
        ctl = Controller(target=TargetSpec(sram_blocks=40))
        ctl.load_base(base_rp4_source())
        populate_base_tables(ctl.switch.tables)
        before = ipsa_state(ctl.switch)
        design = ctl.design
        with pytest.raises(AllocationError):
            ctl.stage_update(
                ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}
            )
        assert ipsa_state(ctl.switch) == before
        assert ctl.design is design
        assert ctl.history == ["load_base"]
        assert ctl.switch.inject(*PROBE) is not None

    def test_corrupt_pool_fails_validate_not_commit(self, controller):
        # Free a block out from under a surviving table's mapping; the
        # staged transaction's pool validator must catch it.
        pool = controller.design.pool
        block_id = pool.mapping("ipv4_lpm").block_ids[0]
        next(b for b in pool.blocks if b.block_id == block_id).release()
        before = ipsa_state(controller.switch)
        with pytest.raises(TxnValidationError) as excinfo:
            controller.stage_update(
                ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}
            )
        assert any("memory pool" in f for f in excinfo.value.findings)
        assert ipsa_state(controller.switch) == before


class TestPisaFailureInjection:
    @pytest.fixture
    def device(self):
        from repro.pisa.switch import PisaSwitch

        switch = PisaSwitch(n_stages=8)
        switch.load(base_p4_source())
        populate_base_tables(switch.tables)
        return switch

    def test_bad_program_leaves_old_design_serving(self, device):
        before = pisa_state(device)
        out_before = device.inject(*PROBE)
        with pytest.raises(Exception):
            device.reload("control Broken {{{", entries={})
        assert pisa_state(device) == before
        out_after = device.inject(*PROBE)
        assert out_after is not None
        assert out_after.port == out_before.port
        assert device.metrics.value("txn.aborted") == 1

    def test_entries_with_unknown_action_fail_validate(self, device):
        before = pisa_state(device)
        entries = {
            "port_map": [
                TableEntry(key=(0,), action="ghost", action_data={}, tag=1)
            ]
        }
        txn = device.begin_reload(ecmp_p4_source(), entries)
        txn.prepare()
        with pytest.raises(TxnValidationError) as excinfo:
            txn.validate()
        assert any("ghost" in f for f in excinfo.value.findings)
        assert pisa_state(device) == before

    def test_reload_still_works_after_failure(self, device):
        with pytest.raises(Exception):
            device.reload("garbage {{{", entries={})
        stats = device.reload(ecmp_p4_source(), entries={})
        assert stats.stall_seconds > 0
        assert device.dp.plan_flips.get("reload", 0) == 1
