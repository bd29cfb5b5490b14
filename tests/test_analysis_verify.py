"""rp4verify: symbolic differential verification of staged updates.

The acceptance bar for the verifier: every shipped base+snippet
staging verifies clean under the error-mode gate, a tampered update
is caught at the prepare gate *before* any epoch flip with the device
left byte-identical, and every reported divergence carries a witness
packet that observably reproduces the divergence when replayed
through the live and shadow views -- the parity test is never
vacuous.
"""

import pytest

from repro.analysis.diag import Severity
from repro.analysis.verify import (
    DeviceView,
    Domain,
    VerifyConfig,
    _replay_outcomes_differ,
    claimed_entities,
    replay,
    verify_txn,
)
from repro.analysis.verify_cli import _script_source_names, shipped_snippets
from repro.programs import (
    acl_load_script,
    acl_rp4_source,
    base_rp4_source,
    ecmp_load_script,
    ecmp_rp4_source,
    populate_base_tables,
)
from repro.runtime.controller import Controller, UnsafeUpdateError
from repro.runtime.fabric import Fabric, RolloutError
from tests.analysis_fixtures import staged_base_controller, tamper_port_map
from tests.test_txn_updates import ipsa_state


def ecmp_sources():
    return ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}


def acl_sources():
    return acl_load_script(), {"acl.rp4": acl_rp4_source()}


# -- interval domains --------------------------------------------------------


class TestDomain:
    def test_full_width(self):
        dom = Domain(8)
        assert dom.contains(0) and dom.contains(255)
        assert not dom.contains(256)
        assert dom.pick() == 0

    def test_eq_pins_and_ne_splits(self):
        dom = Domain(8).constrain("==", 7)
        assert dom.pick() == 7
        assert not dom.contains(6)
        dom = Domain(8).constrain("!=", 0)
        assert not dom.contains(0)
        assert dom.pick() == 1

    def test_ordering_refinement(self):
        dom = Domain(8).constrain(">=", 10).constrain("<", 12)
        assert dom.contains(10) and dom.contains(11)
        assert not dom.contains(12)

    def test_contradiction_is_empty(self):
        dom = Domain(8).constrain("==", 3).constrain("==", 4)
        assert dom.empty


# -- primitive transfer functions --------------------------------------------


class TestSrv6EndTransfer:
    """``srv6_end`` forks a pristine ``segments_left`` into the classes
    the device really has: forward for ``1..n_segs``, drop at 0, and
    drop past the segment list (RFC 8754 Sec. 4.3.1.1) -- so no witness
    claims to forward a packet the device drops."""

    @staticmethod
    def _view():
        from repro.bench.scenarios import make_switch

        return DeviceView.from_switch(make_switch("ipsa", "C2"))

    def test_segments_left_forks_three_ways(self):
        from repro.analysis.verify import PathState, SideState, _exec_primitive

        side = SideState(self._view())
        side.valid |= {"ipv6", "srh"}
        forks = _exec_primitive(PathState(), side, "srv6_end", ("site",))
        classes = sorted(
            (ps.doms["srh.segments_left"].ivs, "meta.drop" in out.cur)
            for ps, out in forks
        )
        assert classes == [
            (((0, 0),), True), (((1, 2),), False), (((3, 255),), True),
        ]

    def test_out_of_range_replays_as_a_drop(self):
        from repro.programs.srv6 import LOCAL_SIDS
        from repro.workloads.builders import srv6_packet

        data = srv6_packet(
            src="2001:db8:9::1", active_sid=LOCAL_SIDS[0],
            segments=["2001:db8:2::1", LOCAL_SIDS[0]], segments_left=5,
        )
        out = replay(self._view(), data)
        assert "error" not in out and out["drop"]


# -- the known-safe suite ----------------------------------------------------


class TestCleanUpdates:
    @pytest.mark.parametrize(
        "name, changes_flows",
        [
            # Loaded with empty tables, these three leave every base
            # flow class equivalent.
            ("acl.rp4", False),
            ("qos.rp4", False),
            ("srv6.rp4", False),
            ("ecmp.rp4", True),
            ("int.rp4", True),
        ],
    )
    def test_shipped_staging_verifies_clean_exhaustively(
        self, name, changes_flows
    ):
        controller = staged_base_controller()
        source, script = shipped_snippets()[name]
        sources = {key: source for key in _script_source_names(script)}
        staged = controller.stage_update(script, sources)
        try:
            report = verify_txn(
                controller.switch, staged.txn, plan=staged.plan,
                config=VerifyConfig(exhaustive=True),
            )
        finally:
            staged.abort()
        assert report.enumerated and not report.truncated
        assert report.classes  # enumeration actually ran
        assert report.drift == []  # template regeneration is deterministic
        assert report.unintended == []
        assert report.errors() == []
        # Where the rehosted stages really change flow behavior, the
        # clean verdict is "intended", not "saw nothing".
        assert bool(report.intended) == changes_flows

    def test_error_gate_commits_known_safe_update(self):
        controller = staged_base_controller(verify_updates="error")
        script, sources = ecmp_sources()
        staged = controller.stage_update(script, sources)
        staged.commit()
        assert "ecmp_ipv4" in controller.switch.tables
        report = controller.last_verify
        assert report is not None and report.errors() == []

    def test_gate_fast_path_skips_enumeration_without_drift(self):
        controller = staged_base_controller(verify_updates="warn")
        script, sources = ecmp_sources()
        staged = controller.stage_update(script, sources)
        staged.abort()
        report = controller.last_verify
        assert report is not None
        assert not report.enumerated  # structural tier only
        assert report.drift == []

    def test_claimed_entities_cover_the_plan(self):
        controller = staged_base_controller()
        script, sources = ecmp_sources()
        staged = controller.stage_update(script, sources)
        claimed = claimed_entities(staged.plan)
        staged.abort()
        assert "stage:ecmp" in claimed
        assert "stage:nexthop" in claimed  # removed stages are claimed too
        assert "table:nexthop" in claimed


# -- the tampered update -----------------------------------------------------


@pytest.fixture(scope="module")
def tampered():
    """One tampered ACL staging shared by the divergence tests: the
    update channel corrupts the rehosted ``port_map`` stage, which the
    plan does not claim, so every flow through it is unclaimed drift."""
    controller = staged_base_controller()
    tamper_port_map(controller)
    script, sources = acl_sources()
    staged = controller.stage_update(script, sources)
    report = verify_txn(controller.switch, staged.txn, plan=staged.plan)
    live = DeviceView.from_switch(controller.switch)
    shadow = DeviceView.from_txn(staged.txn)
    yield report, live, shadow
    staged.abort()


class TestTamperedUpdate:
    def test_unclaimed_drift_detected(self, tampered):
        report, _live, _shadow = tampered
        assert "stage:port_map" in report.drift
        assert any(d.rule == "RP4L503" for d in report.diagnostics)

    def test_unintended_divergences_found_and_confirmed(self, tampered):
        report, _live, _shadow = tampered
        assert report.unintended
        confirmed = [c for c in report.unintended if c.confirmed]
        assert confirmed  # at least one witness reproduced the divergence
        assert any(
            d.rule == "RP4L501" and d.severity is Severity.ERROR
            for d in report.diagnostics
        )

    def test_witness_parity_live_vs_shadow(self, tampered):
        """Every confirmed divergence's witness, replayed through both
        views, produces observably different outcomes -- and the test
        replays at least one witness (never vacuous)."""
        report, live, shadow = tampered
        replayed = 0
        for cls in report.unintended:
            if cls.witness is None or not cls.confirmed:
                continue
            live_out = replay(live, cls.witness.data, cls.witness.port)
            shadow_out = replay(shadow, cls.witness.data, cls.witness.port)
            assert _replay_outcomes_differ(live_out, shadow_out), (
                f"flow class #{cls.index}: witness "
                f"{cls.witness.data.hex()} replayed identically"
            )
            replayed += 1
        assert replayed > 0

    def test_tampered_witnesses_drop_only_in_shadow(self, tampered):
        """The tamper rewires ``port_map`` to drop: shadow replay must
        drop packets the live view still forwards."""
        report, live, shadow = tampered
        for cls in report.unintended:
            if cls.witness is None or not cls.confirmed:
                continue
            live_out = replay(live, cls.witness.data, cls.witness.port)
            shadow_out = replay(shadow, cls.witness.data, cls.witness.port)
            assert shadow_out.get("drop") is True
            assert live_out.get("drop") is not True

    def test_unconfirmed_findings_downgrade_to_warning(self):
        """With replay confirmation off, every RP4L501 is a warning --
        only a confirmed witness earns error severity."""
        controller = staged_base_controller()
        tamper_port_map(controller)
        script, sources = acl_sources()
        staged = controller.stage_update(script, sources)
        try:
            report = verify_txn(
                controller.switch, staged.txn, plan=staged.plan,
                config=VerifyConfig(witnesses=False, confirm=False),
            )
        finally:
            staged.abort()
        findings = [d for d in report.diagnostics if d.rule == "RP4L501"]
        assert findings
        assert all(d.severity is Severity.WARNING for d in findings)
        assert report.errors() == []


# -- the controller gate -----------------------------------------------------


class TestControllerGate:
    def test_error_gate_rejects_before_epoch_flip(self):
        controller = staged_base_controller(verify_updates="error")
        tamper_port_map(controller)
        before = ipsa_state(controller.switch)
        script, sources = acl_sources()
        with pytest.raises(UnsafeUpdateError) as excinfo:
            controller.stage_update(script, sources)
        assert excinfo.value.gate == "rp4verify"
        assert excinfo.value.diagnostics
        assert "rp4verify" in str(excinfo.value)
        # Caught while still shadow: the live device is untouched.
        assert ipsa_state(controller.switch) == before
        assert controller.switch.inject_batch([]) is not None  # still alive

    def test_warn_gate_reports_but_does_not_reject(self):
        controller = staged_base_controller(verify_updates="warn")
        tamper_port_map(controller)
        script, sources = acl_sources()
        staged = controller.stage_update(script, sources)
        staged.abort()
        report = controller.last_verify
        assert report is not None and report.errors()

    def test_off_gate_never_runs(self):
        controller = staged_base_controller(verify_updates="off")
        script, sources = ecmp_sources()
        staged = controller.stage_update(script, sources)
        staged.abort()
        assert controller.last_verify is None

    def test_bad_gate_mode_rejected(self):
        with pytest.raises(ValueError):
            Controller(verify_updates="paranoid")


# -- verify-before-canary ----------------------------------------------------


def base_node():
    controller = Controller()
    controller.load_base(base_rp4_source())
    populate_base_tables(controller.switch.tables)
    return controller


class TestFabricVerifyGate:
    def test_tampered_canary_aborts_whole_rollout(self):
        fabric = Fabric()
        fabric.add_node("A", base_node())
        fabric.add_node("B", base_node())
        tamper_port_map(fabric.node("A"))
        before_b = ipsa_state(fabric.node("B").switch)
        epoch_a = fabric.node("A").switch.dp.epoch
        script, sources = acl_sources()
        with pytest.raises(RolloutError) as excinfo:
            fabric.staged_rollout(script, sources)
        err = excinfo.value
        assert err.failed == "A"
        assert isinstance(err.cause, UnsafeUpdateError)
        assert err.cause.gate == "rp4verify"
        assert err.updated == []  # rejected before any commit
        assert err.pending == ["B"]
        # No node in the fabric flipped an epoch.
        assert fabric.node("A").switch.dp.epoch == epoch_a
        assert ipsa_state(fabric.node("B").switch) == before_b
        # The canary override is scoped to the rollout.
        assert fabric.node("A").verify_updates == "warn"

    def test_clean_rollout_passes_error_gate(self):
        fabric = Fabric()
        fabric.add_node("A", base_node())
        fabric.add_node("B", base_node())
        script, sources = ecmp_sources()
        report = fabric.staged_rollout(script, sources)
        assert report.canary == "A"
        for name in ("A", "B"):
            assert "ecmp_ipv4" in fabric.node(name).switch.tables
        assert fabric.node("A").verify_updates == "warn"  # restored
