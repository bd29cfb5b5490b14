"""Timeline tests: phase ordering, duration tiling, round-trips."""

import pytest

from repro.obs.timeline import Phase, Timeline, TimelineRecorder, format_timeline
from repro.programs import (
    base_rp4_source,
    ecmp_load_script,
    ecmp_rp4_source,
    populate_base_tables,
)
from repro.runtime import Controller


@pytest.fixture
def controller():
    ctl = Controller()
    ctl.load_base(base_rp4_source())
    populate_base_tables(ctl.switch.tables)
    return ctl


def apply_ecmp(controller):
    """The C1 ECMP use case as an in-situ update."""
    return controller.run_script(
        ecmp_load_script(), {"ecmp.rp4": ecmp_rp4_source()}
    )


class TestTimelinePrimitive:
    def test_phases_are_contiguous(self):
        timeline = Timeline("op")
        a = timeline.phase("a")
        b = timeline.phase("b")
        timeline.finish()
        assert a.start == timeline.start
        assert b.start == a.end
        assert timeline.end == b.end

    def test_durations_sum_to_total_exactly(self):
        timeline = Timeline("op")
        for name in ("a", "b", "c"):
            timeline.phase(name)
        timeline.finish()
        assert sum(timeline.durations().values()) == timeline.total_seconds

    def test_empty_timeline_finishes(self):
        timeline = Timeline("noop").finish()
        assert timeline.phases == []
        assert timeline.total_seconds >= 0

    def test_round_trip(self):
        timeline = Timeline("op", kind="test")
        timeline.phase("a", items=3)
        timeline.phase("b")
        timeline.finish()
        clone = Timeline.from_dict(timeline.to_dict())
        assert clone.to_dict() == timeline.to_dict()
        assert clone.label == "op"
        assert clone.attrs == {"kind": "test"}
        assert [p.name for p in clone.phases] == ["a", "b"]
        assert clone.phases[0].attrs == {"items": 3}
        assert clone.total_seconds == pytest.approx(timeline.total_seconds)

    def test_phase_round_trip(self):
        phase = Phase("drain", start=1.0, end=1.5, attrs={"held": 2})
        clone = Phase.from_dict(phase.to_dict())
        assert clone.name == "drain"
        assert clone.duration == pytest.approx(0.5)
        assert clone.attrs == {"held": 2}

    def test_recorder_bounded_and_latest(self):
        recorder = TimelineRecorder(capacity=2)
        recorder.begin("a").finish()
        recorder.begin("b").finish()
        recorder.begin("a").finish()
        assert len(recorder.timelines) == 2
        assert recorder.latest().label == "a"
        assert recorder.latest("b").label == "b"
        assert recorder.latest("ghost") is None

    def test_format_timeline(self):
        timeline = Timeline("apply_update")
        timeline.phase("drain", held=1)
        timeline.finish()
        text = format_timeline(timeline)
        assert text.startswith("apply_update: total ")
        assert "drain" in text and "held=1" in text


class TestApplyUpdateTimeline:
    """Acceptance: the C1 ECMP update records the transaction's
    prepare/validate/commit phases, and only the pointer-swap window
    (flip + resume) counts as stall."""

    def test_phase_order(self, controller):
        apply_ecmp(controller)
        timeline = controller.switch.timelines.latest("apply_update")
        assert timeline is not None
        assert [p.name for p in timeline.phases] == [
            "prepare", "validate", "serve", "flip", "resume", "complete",
        ]

    def test_stall_covers_only_the_flip_window(self, controller):
        _, stats, _ = apply_ecmp(controller)
        timeline = controller.switch.timelines.latest("apply_update")
        durations = timeline.durations()
        assert stats.stall_seconds == pytest.approx(
            durations["flip"] + durations["resume"]
        )
        assert stats.stall_seconds < timeline.total_seconds
        assert sum(durations.values()) == pytest.approx(
            timeline.total_seconds
        )

    def test_phase_attrs_carry_update_stats(self, controller):
        _, stats, _ = apply_ecmp(controller)
        timeline = controller.switch.timelines.latest("apply_update")
        attrs = {p.name: p.attrs for p in timeline.phases}
        assert attrs["prepare"]["templates"] == stats.templates_written
        assert attrs["flip"]["templates_written"] == stats.templates_written
        assert attrs["flip"]["tables_created"] == stats.tables_created
        assert attrs["flip"]["epoch"] == stats.epoch
        assert attrs["complete"]["drained_packets"] == stats.drained_packets
        assert attrs["complete"]["completed_packets"] == (
            stats.completed_packets
        )
        assert attrs["resume"]["active_tsps"] == len(
            controller.switch.pipeline.active_tsps()
        )


class TestControllerTimelines:
    def test_load_base_phases(self, controller):
        timeline = controller.timelines.latest("load_base")
        assert [p.name for p in timeline.phases] == [
            "compile", "validate", "load",
        ]
        assert sum(timeline.durations().values()) == pytest.approx(
            timeline.total_seconds
        )

    def test_load_base_timing_matches_timeline(self, controller):
        ctl = Controller()
        timing = ctl.load_base(base_rp4_source())
        timeline = ctl.timelines.latest("load_base")
        durations = timeline.durations()
        assert timing.compile_seconds == pytest.approx(durations["compile"])
        assert timing.load_seconds == pytest.approx(durations["load"])

    def test_run_script_phases_and_timing(self, controller):
        _, _, timing = apply_ecmp(controller)
        timeline = controller.timelines.latest("run_script")
        durations = timeline.durations()
        assert list(durations) == [
            "compile", "lint", "transfer", "verify", "apply"
        ]
        assert timing.compile_seconds == pytest.approx(durations["compile"])
        assert timing.load_seconds == pytest.approx(
            durations["transfer"] + durations["apply"]
        )

    def test_rollback_phases(self, controller):
        apply_ecmp(controller)
        controller.rollback()
        timeline = controller.timelines.latest("rollback")
        assert [p.name for p in timeline.phases] == [
            "plan", "transfer", "apply",
        ]

    def test_controller_counters(self, controller):
        apply_ecmp(controller)
        controller.rollback()
        assert controller.metrics.value("controller.base_loads") == 1
        assert controller.metrics.value("controller.updates_applied") == 1
        assert controller.metrics.value("controller.rollbacks") == 1
        assert controller.metrics.value("controller.compile_seconds_count") == 2


class TestPisaReloadTimeline:
    def test_reload_records_transaction_phases(self):
        from repro.pisa.switch import PisaSwitch
        from repro.programs import base_p4_source
        from repro.programs.p4_variants import ecmp_p4_source

        device = PisaSwitch(n_stages=8)
        device.load(base_p4_source())
        populate_base_tables(device.tables)
        stats = device.reload(ecmp_p4_source(), entries={})
        timeline = device.timelines.latest("reload")
        assert timeline is not None
        assert [p.name for p in timeline.phases] == [
            "prepare", "validate", "serve", "flip",
        ]
        assert sum(timeline.durations().values()) == pytest.approx(
            timeline.total_seconds
        )
        # The traffic-visible window is only the flip, not the rebuild.
        assert stats.stall_seconds == pytest.approx(
            timeline.durations()["flip"]
        )
        assert stats.stall_seconds < stats.seconds
