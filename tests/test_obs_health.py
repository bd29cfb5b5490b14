"""Tests for the streaming health engine (repro.obs.health)."""

import json

import pytest

from repro.obs.clock import ManualClock
from repro.obs.health import (
    AbsenceRule,
    AlertInstance,
    BurnRateRule,
    FlightRecorder,
    HealthEngine,
    HistogramSeries,
    ThresholdRule,
    WindowedSeries,
    default_rules,
    dump_rules,
    load_rules,
    rule_from_dict,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from tests.isolated import run_python


class TestWindowedSeries:
    def test_latest_and_len(self):
        s = WindowedSeries()
        assert s.latest() is None and len(s) == 0
        s.push(0.0, 5)
        s.push(1.0, 7)
        assert s.latest() == 7 and len(s) == 2

    def test_prunes_beyond_horizon(self):
        s = WindowedSeries(horizon=10.0)
        s.push(0.0, 1)
        s.push(5.0, 2)
        s.push(20.0, 3)  # floor = 10: both earlier points age out
        assert len(s) == 1
        assert s.latest() == 3

    def test_delta_and_rate(self):
        s = WindowedSeries()
        s.push(0.0, 100)
        s.push(2.0, 110)
        s.push(4.0, 130)
        assert s.delta(4.0, 10.0) == 30
        assert s.rate(4.0, 10.0) == pytest.approx(30 / 4)
        # Window narrows to the last two points.
        assert s.delta(4.0, 2.0) == 20
        assert s.rate(4.0, 2.0) == pytest.approx(10.0)

    def test_rate_clamps_counter_reset(self):
        s = WindowedSeries()
        s.push(0.0, 100)
        s.push(1.0, 3)  # process restart: counter reset
        assert s.rate(1.0, 10.0) == 0.0

    def test_single_point_has_no_rate(self):
        s = WindowedSeries()
        s.push(0.0, 5)
        assert s.delta(0.0, 10.0) is None
        assert s.rate(0.0, 10.0) is None

    def test_spans(self):
        s = WindowedSeries()
        s.push(0.0, 1)
        s.push(5.0, 2)
        assert s.spans(5.0, 5.0)
        assert not s.spans(5.0, 6.0)

    def test_ewma_weights_recent_samples(self):
        s = WindowedSeries()
        s.push(0.0, 0)
        s.push(10.0, 100)
        ewma = s.ewma(10.0, half_life=10.0)
        # Weights: 0.5 for the old point, 1.0 for the new one.
        assert ewma == pytest.approx(100 / 1.5)


class TestHistogramSeries:
    def test_windowed_quantile_uses_snapshot_delta(self):
        h = Histogram("lat", bounds=(10, 100, 1000))
        series = HistogramSeries()
        h.observe(5)  # old observation, outside the window
        series.push(0.0, h.snapshot())
        for _ in range(10):
            h.observe(500)
        series.push(10.0, h.snapshot())
        # Window [5, 10]: only the ten 500ish observations count.
        q = series.quantile(10.0, 5.0, 0.5)
        assert 100 < q <= 1000

    def test_empty_and_single_point(self):
        series = HistogramSeries()
        assert series.quantile(0.0, 5.0, 0.5) is None
        h = Histogram("lat", bounds=(10,))
        h.observe(5)
        series.push(0.0, h.snapshot())
        assert series.quantile(0.0, 5.0, 0.5) == pytest.approx(5.0)


class TestRuleSerialization:
    def test_round_trip_all_kinds(self):
        rules = default_rules()
        payload = json.loads(json.dumps(dump_rules(rules)))
        restored = load_rules(payload)
        assert dump_rules(restored) == dump_rules(rules)
        assert [r.kind for r in restored] == ["threshold", "burn_rate", "absence"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            rule_from_dict({"kind": "psychic", "name": "x"})

    def test_threshold_validates_op_and_signal(self):
        with pytest.raises(ValueError):
            ThresholdRule("r", metric="m", value=1, op="~")
        with pytest.raises(ValueError):
            ThresholdRule("r", metric="m", value=1, signal="vibes")
        ThresholdRule("r", metric="m", value=1, signal="p99")  # quantile: fine
        ThresholdRule("r", metric="m", value=1, signal="p99.9")

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRule("r", metric="m", value=1, severity="mauve")

    def test_burn_rate_needs_positive_objective(self):
        with pytest.raises(ValueError):
            BurnRateRule("r", errors="e", total="t", objective=0)


class TestAlertLifecycle:
    def test_immediate_firing_when_for_is_zero(self):
        rule = ThresholdRule("r", metric="m", value=0, for_seconds=0.0)
        alert = AlertInstance(rule, "dev")
        edges = alert.step(0.0, condition=True)
        assert [(e.from_state, e.to_state) for e in edges] == [
            ("inactive", "pending"),
            ("pending", "firing"),
        ]
        assert alert.state == "firing"

    def test_for_duration_hysteresis(self):
        rule = ThresholdRule("r", metric="m", value=0, for_seconds=2.0)
        alert = AlertInstance(rule, "dev")
        assert [e.to_state for e in alert.step(0.0, True)] == ["pending"]
        assert alert.step(1.0, True) == []  # held 1s < 2s: still pending
        assert [e.to_state for e in alert.step(2.0, True)] == ["firing"]

    def test_pending_clears_without_firing(self):
        rule = ThresholdRule("r", metric="m", value=0, for_seconds=5.0)
        alert = AlertInstance(rule, "dev")
        alert.step(0.0, True)
        edges = alert.step(1.0, False)
        assert [e.to_state for e in edges] == ["inactive"]
        # A later breach starts the for-clock over.
        alert.step(2.0, True)
        assert alert.step(4.0, True) == []
        assert alert.state == "pending"

    def test_resolve_needs_sustained_clear(self):
        rule = ThresholdRule(
            "r", metric="m", value=0, for_seconds=0.0, resolve_seconds=2.0
        )
        alert = AlertInstance(rule, "dev")
        alert.step(0.0, True)
        assert alert.state == "firing"
        assert alert.step(1.0, False) == []  # clear for 0s < 2s
        # A re-breach resets the clear-clock.
        alert.step(2.0, True)
        assert alert.state == "firing"
        assert alert.step(3.0, False) == []
        edges = alert.step(5.0, False)
        assert [e.to_state for e in edges] == ["resolved"]
        assert alert.state == "inactive"

    def test_transition_dict_shape(self):
        rule = ThresholdRule("r", metric="m", value=0, severity="warning")
        alert = AlertInstance(rule, "dev")
        (pending, firing) = alert.step(7.0, True)
        d = firing.to_dict()
        assert d == {
            "ts": 7.0,
            "rule": "r",
            "device": "dev",
            "from": "pending",
            "to": "firing",
            "severity": "warning",
        }


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=3, clock=ManualClock())
        for i in range(5):
            rec.record("metric", ts=float(i), n=i)
        assert len(rec.events) == 3
        assert [e["n"] for e in rec.events] == [2, 3, 4]

    def test_auto_dump_on_rollback(self):
        rec = FlightRecorder(clock=ManualClock())
        rec.record("metric", ts=0.0)
        assert rec.last_dump() is None
        rec.record("rollback", ts=1.0, restored_tables=["nexthop"])
        dump = rec.last_dump()
        assert dump is not None
        assert dump["reason"] == "rollback"
        assert dump["counts"] == {"metric": 1, "rollback": 1}

    def test_bound_recorder_stamps_device(self):
        rec = FlightRecorder(clock=ManualClock())
        handle = rec.bind("n3")
        event = handle.record("txn_abort", ts=0.0)
        assert event["device"] == "n3"
        # An explicit device label wins over the binding.
        event = handle.record("txn_abort", ts=1.0, device="other")
        assert event["device"] == "other"

    def test_dump_json_round_trips(self):
        rec = FlightRecorder(clock=ManualClock())
        rec.record("metric", ts=0.0, value=3)
        parsed = json.loads(rec.dump_json(reason="test"))
        assert parsed["reason"] == "test"
        assert parsed["events"][0]["value"] == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


def drop_rate_rule(**overrides):
    spec = dict(
        metric="device.packets_dropped",
        signal="rate",
        window=5.0,
        op=">",
        value=0.0,
        for_seconds=1.0,
        severity="critical",
    )
    spec.update(overrides)
    return ThresholdRule("drops", **spec)


class TestHealthEngine:
    @pytest.fixture
    def clock(self):
        return ManualClock(start=0.0, tick=0.0)

    def make_engine(self, clock, rules):
        engine = HealthEngine(clock=clock)
        engine.install(rules)
        return engine

    def test_threshold_rate_rule_fires_and_resolves(self, clock):
        reg = MetricsRegistry()
        drops = reg.counter("device.packets_dropped")
        engine = self.make_engine(clock, [drop_rate_rule(resolve_seconds=1.0)])
        engine.add_source("dev", reg)

        engine.tick()  # baseline sample at t=0
        clock.advance(1.0)
        drops.inc(4)
        transitions = engine.tick()  # rate > 0 observed: pending
        assert [t.to_state for t in transitions] == ["pending"]
        assert engine.device_health("dev") == 1.0  # pending doesn't score

        clock.advance(1.0)
        drops.inc(4)
        transitions = engine.tick()  # held >= for_seconds: firing
        assert [t.to_state for t in transitions] == ["firing"]
        assert engine.device_health("dev") == 0.0  # critical zeroes the score

        # The bleed stops; the 5s window must age the deltas out, then
        # the resolve clock must run down.
        later = []
        for _ in range(8):
            clock.advance(1.0)
            later.extend(engine.tick())
        assert [t.to_state for t in later] == ["resolved"]
        assert engine.device_health("dev") == 1.0

    def test_burn_rate_math_and_multiwindow_gate(self, clock):
        reg = MetricsRegistry()
        errs = reg.counter("device.packets_dropped")
        total = reg.counter("device.packets_in")
        rule = BurnRateRule(
            "burn",
            errors="device.packets_dropped",
            total="device.packets_in",
            objective=0.01,
            short_window=5.0,
            long_window=60.0,
            burn_factor=1.0,
        )
        engine = self.make_engine(clock, [rule])
        engine.add_source("dev", reg)
        engine.tick()

        # 2% errors vs a 1% objective: burn should be 2.0 in any window.
        clock.advance(1.0)
        total.inc(100)
        errs.inc(2)
        engine.tick()
        ctx_source = engine._sources["dev"]
        from repro.obs.health import _EvalContext

        ctx = _EvalContext(1.0, 1.0, ctx_source.scalars, ctx_source.hists)
        assert rule.burn(ctx, 5.0) == pytest.approx(2.0)
        assert rule.burn(ctx, 60.0) == pytest.approx(2.0)
        assert rule.condition(ctx)

        # Error-free traffic at the same volume burns at zero.
        clock.advance(1.0)
        total.inc(100)
        engine.tick()
        ctx = _EvalContext(2.0, 2.0, ctx_source.scalars, ctx_source.hists)
        assert rule.burn(ctx, 1.5) == pytest.approx(0.0)

    def test_absence_rule_fires_on_flat_and_missing(self, clock):
        reg = MetricsRegistry()
        beat = reg.counter("device.packets_in")
        rule = AbsenceRule("heartbeat", metric="device.packets_in", window=5.0)
        engine = self.make_engine(clock, [rule])
        engine.add_source("dev", reg)
        missing = MetricsRegistry()  # never grows the metric at all
        engine.add_source("ghost", missing)

        beat.inc(1)
        for _ in range(7):
            engine.tick()
            clock.advance(1.0)
        # dev's counter went flat for > window; ghost never reported.
        states = {a.device: a.state for a in engine.alerts()}
        assert states["dev"] == "firing"
        assert states["ghost"] == "firing"
        # warning severity: score drops but does not zero.
        assert engine.device_health("dev") == pytest.approx(0.6)

        beat.inc(1)  # traffic resumes
        engine.tick()
        assert engine.device_health("dev") == 1.0

    def test_quantile_rule_reads_histograms(self, clock):
        reg = MetricsRegistry()
        hist = reg.histogram("int.latency", (100, 1000, 10000))
        rule = ThresholdRule(
            "p99-lat",
            metric="int.latency",
            signal="p99",
            window=10.0,
            op=">",
            value=500.0,
            for_seconds=0.0,
        )
        engine = self.make_engine(clock, [rule])
        engine.add_source("dev", reg)
        hist.observe(50)
        engine.tick()
        assert engine.firing("dev") == []
        clock.advance(1.0)
        for _ in range(20):
            hist.observe(5000)
        transitions = engine.tick()
        assert [t.to_state for t in transitions] == ["pending", "firing"]

    def test_device_scoped_rule_skips_other_sources(self, clock):
        rule = drop_rate_rule(for_seconds=0.0, device="a")
        engine = self.make_engine(clock, [rule])
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        drops_a = reg_a.counter("device.packets_dropped")
        drops_b = reg_b.counter("device.packets_dropped")
        engine.add_source("a", reg_a)
        engine.add_source("b", reg_b)
        engine.tick()
        clock.advance(1.0)
        drops_a.inc(5)
        drops_b.inc(5)
        engine.tick()
        assert {a.device for a in engine.firing()} == {"a"}

    def test_alerts_exported_prometheus_style(self, clock):
        reg = MetricsRegistry()
        drops = reg.counter("device.packets_dropped")
        engine = self.make_engine(clock, [drop_rate_rule(for_seconds=0.0)])
        engine.add_source("dev", reg)
        engine.tick()
        clock.advance(1.0)
        drops.inc(3)
        engine.tick()
        text = engine.to_prometheus()
        assert (
            'ALERTS{alertname="drops",alertstate="firing",'
            'device="dev",severity="critical"} 1' in text
        )
        assert 'health_score{device="dev"} 0' in text
        assert "health_ticks 2" in text

    def test_metric_changes_land_in_flight_ring(self, clock):
        reg = MetricsRegistry()
        drops = reg.counter("device.packets_dropped")
        engine = self.make_engine(clock, [drop_rate_rule()])
        engine.add_source("dev", reg)
        engine.tick()
        clock.advance(1.0)
        drops.inc(2)
        engine.tick()
        clock.advance(1.0)
        engine.tick()  # unchanged: no new metric event
        metric_events = [
            e for e in engine.recorder.events if e["kind"] == "metric"
        ]
        assert [e["value"] for e in metric_events] == [0, 2]
        assert metric_events[1]["delta"] == 2

    def test_health_summary_shape(self, clock):
        reg = MetricsRegistry()
        drops = reg.counter("device.packets_dropped")
        engine = self.make_engine(clock, [drop_rate_rule(for_seconds=0.0)])
        engine.add_source("dev", reg)
        engine.tick()
        clock.advance(1.0)
        drops.inc(1)
        engine.tick()
        summary = engine.health_summary()
        assert summary["rules"] == 1
        assert summary["devices"]["dev"]["score"] == 0.0
        assert summary["devices"]["dev"]["firing"][0]["rule"] == "drops"

    def test_remove_source_unhooks_recorder(self, clock):
        class FakeSwitch:
            flight_recorder = None

        engine = self.make_engine(clock, [])
        switch = FakeSwitch()
        engine.add_source("dev", MetricsRegistry(), switch=switch)
        assert switch.flight_recorder is not None
        engine.remove_source("dev")
        assert switch.flight_recorder is None


def test_obs_package_loads_health_and_intcol_lazily():
    """``repro.obs`` re-exports ``health`` / ``intcol`` names through a
    module ``__getattr__``: a process that only forwards packets never
    loads either module, yet every spelling of the import still works."""
    run_python(
        "import sys\n"
        "import repro.runtime\n"
        "import repro.obs\n"
        "for name in ('repro.obs.health', 'repro.obs.intcol'):\n"
        "    assert name not in sys.modules, name + ' loaded eagerly'\n"
        "from repro.obs import HealthEngine, IntCollector\n"
        "assert repro.obs.health.HealthEngine is HealthEngine\n"
        "assert repro.obs.intcol.IntCollector is IntCollector\n"
        "namespace = {}\n"
        "exec('from repro.obs import *', namespace)\n"
        "assert set(repro.obs.__all__) <= set(namespace)\n"
        "try:\n"
        "    repro.obs.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown attribute did not raise')\n"
    )
