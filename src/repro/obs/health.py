"""Streaming health engine: sliding windows, alert rules, flight recorder.

Everything upstream of this module *produces* signals -- the metrics
registry, INT latency histograms, update timelines, epoch evidence.
Nothing *judged* them continuously: the staged-rollout health gate was
a one-shot snapshot check, and a regression between waves went
unnoticed.  This module closes that loop in the same spirit as the
rest of rP4 -- declaratively, at runtime, without touching the packet
hot path:

* :class:`WindowedSeries` / windowed histogram snapshots -- sliding-
  window views (rate, delta, EWMA, quantiles) over sampled metric
  values, pruned to a bounded horizon.
* Rules -- :class:`ThresholdRule` (any metric, any window signal),
  :class:`BurnRateRule` (multiwindow SLO burn), :class:`AbsenceRule`
  (heartbeat).  All carry for-duration hysteresis and serialize
  to/from plain dicts, so rule sets install at runtime exactly like
  dataplane programs do.
* :class:`AlertInstance` -- the ``inactive -> pending -> firing ->
  resolved`` lifecycle per (rule, device).
* :class:`HealthEngine` -- pull-based evaluator: each ``tick()`` takes
  one snapshot per attached source on the injectable ``obs.clock``,
  feeds the windows, steps every alert lifecycle, and exports
  ``ALERTS{alertname=...}`` plus per-device ``health.score`` gauges
  through its own registry.  ``device_health()`` is the score the
  staged-rollout gate consumes.
* :class:`FlightRecorder` -- a bounded ring buffer of metric deltas,
  alert transitions, timeline phases, path changes, and txn/rollback
  events.  On a configured trigger (rollback, by default) it freezes
  the ring into a post-mortem JSON bundle.

The engine is strictly *outside* the forwarding path: devices never
call into it; it reads their registries at tick time.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.clock import Clock, MONOTONIC
from repro.obs.metrics import (
    HistogramSnapshot,
    LabelKey,
    MetricsRegistry,
    Sample,
    _label_key,
    snapshot_from_samples,
)

SEVERITIES = ("info", "warning", "critical")

#: How much a single firing alert subtracts from a device's score.
SEVERITY_WEIGHT = {"info": 0.0, "warning": 0.4, "critical": 1.0}

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_QUANTILE_RE = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")


# ---------------------------------------------------------------------------
# sliding windows
# ---------------------------------------------------------------------------


class WindowedSeries:
    """Timestamped scalar samples pruned to a bounded horizon.

    The engine pushes one sample per tick; rules read windowed views.
    All views take ``now`` explicitly so a tick evaluates every rule
    against one coherent instant.
    """

    __slots__ = ("horizon", "_points")

    def __init__(self, horizon: float = 300.0) -> None:
        self.horizon = horizon
        self._points: Deque[Tuple[float, float]] = deque()

    def push(self, t: float, value: float) -> None:
        self._points.append((t, float(value)))
        floor = t - self.horizon
        while self._points and self._points[0][0] < floor:
            self._points.popleft()

    def __len__(self) -> int:
        return len(self._points)

    def latest(self) -> Optional[float]:
        return self._points[-1][1] if self._points else None

    def _window(self, now: float, window: float) -> List[Tuple[float, float]]:
        floor = now - window
        return [p for p in self._points if p[0] >= floor]

    def spans(self, now: float, window: float) -> bool:
        """True when sampling reaches back at least ``window`` seconds."""
        return bool(self._points) and self._points[0][0] <= now - window

    def delta(self, now: float, window: float) -> Optional[float]:
        pts = self._window(now, window)
        if len(pts) < 2:
            return None
        return pts[-1][1] - pts[0][1]

    def rate(self, now: float, window: float) -> Optional[float]:
        """Per-second increase over the window; counter resets clamp
        to zero rather than going negative."""
        pts = self._window(now, window)
        if len(pts) < 2:
            return None
        span = pts[-1][0] - pts[0][0]
        if span <= 0:
            return None
        return max(0.0, (pts[-1][1] - pts[0][1]) / span)

    def ewma(self, now: float, half_life: float) -> Optional[float]:
        if not self._points or half_life <= 0:
            return self.latest()
        weighted = total = 0.0
        for t, value in self._points:
            weight = 0.5 ** ((now - t) / half_life)
            weighted += weight * value
            total += weight
        return weighted / total if total > 0 else None


class HistogramSeries:
    """Timestamped histogram snapshots; windowed quantiles via delta."""

    __slots__ = ("horizon", "_points")

    def __init__(self, horizon: float = 300.0) -> None:
        self.horizon = horizon
        self._points: Deque[Tuple[float, HistogramSnapshot]] = deque()

    def push(self, t: float, snapshot: HistogramSnapshot) -> None:
        self._points.append((t, snapshot))
        floor = t - self.horizon
        while self._points and self._points[0][0] < floor:
            self._points.popleft()

    def __len__(self) -> int:
        return len(self._points)

    def quantile(
        self, now: float, window: float, q: float
    ) -> Optional[float]:
        """Quantile over observations recorded inside the window
        (cumulative snapshots differenced, then bucket-walked)."""
        floor = now - window
        pts = [p for p in self._points if p[0] >= floor]
        if not pts:
            return None
        if len(pts) == 1:
            return pts[0][1].quantile(q)
        return pts[-1][1].delta(pts[0][1]).quantile(q)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


@dataclass
class AlertTransition:
    """One lifecycle edge of one (rule, device) alert."""

    ts: float
    rule: str
    device: str
    from_state: str
    to_state: str
    severity: str

    def to_dict(self) -> dict:
        return {
            "ts": self.ts,
            "rule": self.rule,
            "device": self.device,
            "from": self.from_state,
            "to": self.to_state,
            "severity": self.severity,
        }


class _EvalContext:
    """What one rule sees when evaluated against one device."""

    __slots__ = ("now", "uptime", "_scalars", "_hists")

    def __init__(
        self,
        now: float,
        uptime: float,
        scalars: Dict[Tuple[str, LabelKey], WindowedSeries],
        hists: Dict[Tuple[str, LabelKey], HistogramSeries],
    ) -> None:
        self.now = now
        self.uptime = uptime
        self._scalars = scalars
        self._hists = hists

    def scalar(
        self, metric: str, labels: Dict[str, str]
    ) -> Optional[WindowedSeries]:
        return self._scalars.get((metric, _label_key(labels)))

    def histogram(
        self, metric: str, labels: Dict[str, str]
    ) -> Optional[HistogramSeries]:
        return self._hists.get((metric, _label_key(labels)))


class Rule:
    """Base class: identity, hysteresis, and serialization plumbing.

    Subclasses define ``condition(ctx) -> bool`` and ``needs()`` (the
    metric series the engine must maintain for them).  ``device=None``
    means the rule is instantiated per attached source; naming a
    device scopes it to that one.
    """

    kind = "rule"

    def __init__(
        self,
        name: str,
        severity: str = "critical",
        for_seconds: float = 0.0,
        resolve_seconds: float = 0.0,
        device: Optional[str] = None,
    ) -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self.name = name
        self.severity = severity
        self.for_seconds = float(for_seconds)
        self.resolve_seconds = float(resolve_seconds)
        self.device = device

    def condition(self, ctx: _EvalContext) -> bool:
        raise NotImplementedError

    def needs(self) -> List[Tuple[str, Dict[str, str], str]]:
        """(metric, labels, "scalar"|"histogram") series this rule reads."""
        raise NotImplementedError

    def _base_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "severity": self.severity,
            "for_seconds": self.for_seconds,
            "resolve_seconds": self.resolve_seconds,
            "device": self.device,
        }

    def to_dict(self) -> dict:
        raise NotImplementedError


class ThresholdRule(Rule):
    """``signal(metric) op value`` over a sliding window.

    ``signal`` is one of ``value`` (latest sample), ``rate``, ``delta``,
    ``ewma`` (half-life = window), or ``pNN``/``pNN.N`` for a windowed
    histogram quantile (e.g. ``p99``).  A window without enough
    samples evaluates to *not in violation* -- absence of data is the
    :class:`AbsenceRule`'s job.
    """

    kind = "threshold"

    def __init__(
        self,
        name: str,
        metric: str,
        value: float,
        signal: str = "value",
        op: str = ">",
        window: float = 10.0,
        labels: Optional[Dict[str, str]] = None,
        **common: object,
    ) -> None:
        super().__init__(name, **common)  # type: ignore[arg-type]
        if op not in _OPS:
            raise ValueError(f"unknown op {op!r}")
        quantile = _QUANTILE_RE.match(signal)
        if signal not in ("value", "rate", "delta", "ewma") and not quantile:
            raise ValueError(f"unknown signal {signal!r}")
        self.metric = metric
        self.value = float(value)
        self.signal = signal
        self.op = op
        self.window = float(window)
        self.labels = dict(labels or {})
        self._quantile = float(quantile.group(1)) / 100.0 if quantile else None

    def needs(self) -> List[Tuple[str, Dict[str, str], str]]:
        kind = "histogram" if self._quantile is not None else "scalar"
        return [(self.metric, dict(self.labels), kind)]

    def observed(self, ctx: _EvalContext) -> Optional[float]:
        """The signal's current windowed value (None = insufficient data)."""
        if self._quantile is not None:
            hist = ctx.histogram(self.metric, self.labels)
            if hist is None:
                return None
            return hist.quantile(ctx.now, self.window, self._quantile)
        series = ctx.scalar(self.metric, self.labels)
        if series is None:
            return None
        if self.signal == "value":
            return series.latest()
        if self.signal == "rate":
            return series.rate(ctx.now, self.window)
        if self.signal == "delta":
            return series.delta(ctx.now, self.window)
        return series.ewma(ctx.now, self.window)

    def condition(self, ctx: _EvalContext) -> bool:
        observed = self.observed(ctx)
        if observed is None:
            return False
        return _OPS[self.op](observed, self.value)

    def to_dict(self) -> dict:
        data = self._base_dict()
        data.update(
            metric=self.metric,
            value=self.value,
            signal=self.signal,
            op=self.op,
            window=self.window,
            labels=dict(self.labels),
        )
        return data


class BurnRateRule(Rule):
    """Multiwindow SLO burn-rate alert (errors/total vs. an objective).

    Burn over a window is ``(d_errors / d_total) / objective``; the
    alert condition requires **both** the short and the long window to
    burn faster than ``burn_factor`` -- the standard multiwindow trick:
    the long window keeps one transient spike from paging, the short
    window resolves quickly once the bleed stops.
    """

    kind = "burn_rate"

    def __init__(
        self,
        name: str,
        errors: str,
        total: str,
        objective: float = 0.01,
        short_window: float = 5.0,
        long_window: float = 60.0,
        burn_factor: float = 1.0,
        labels: Optional[Dict[str, str]] = None,
        **common: object,
    ) -> None:
        super().__init__(name, **common)  # type: ignore[arg-type]
        if objective <= 0:
            raise ValueError("objective must be positive")
        self.errors = errors
        self.total = total
        self.objective = float(objective)
        self.short_window = float(short_window)
        self.long_window = float(long_window)
        self.burn_factor = float(burn_factor)
        self.labels = dict(labels or {})

    def needs(self) -> List[Tuple[str, Dict[str, str], str]]:
        return [
            (self.errors, dict(self.labels), "scalar"),
            (self.total, dict(self.labels), "scalar"),
        ]

    def burn(self, ctx: _EvalContext, window: float) -> Optional[float]:
        errors = ctx.scalar(self.errors, self.labels)
        total = ctx.scalar(self.total, self.labels)
        if errors is None or total is None:
            return None
        d_err = errors.delta(ctx.now, window)
        d_tot = total.delta(ctx.now, window)
        if d_err is None or d_tot is None or d_tot <= 0:
            return None
        return (max(0.0, d_err) / d_tot) / self.objective

    def condition(self, ctx: _EvalContext) -> bool:
        short = self.burn(ctx, self.short_window)
        long = self.burn(ctx, self.long_window)
        if short is None or long is None:
            return False
        return short > self.burn_factor and long > self.burn_factor

    def to_dict(self) -> dict:
        data = self._base_dict()
        data.update(
            errors=self.errors,
            total=self.total,
            objective=self.objective,
            short_window=self.short_window,
            long_window=self.long_window,
            burn_factor=self.burn_factor,
            labels=dict(self.labels),
        )
        return data


class AbsenceRule(Rule):
    """Fires when a metric stops moving (or never appears) for a window.

    The heartbeat complement of :class:`ThresholdRule`: a threshold
    rule treats missing data as healthy, this one treats it as the
    problem.
    """

    kind = "absence"

    def __init__(
        self,
        name: str,
        metric: str,
        window: float = 30.0,
        labels: Optional[Dict[str, str]] = None,
        severity: str = "warning",
        **common: object,
    ) -> None:
        super().__init__(name, severity=severity, **common)  # type: ignore[arg-type]
        self.metric = metric
        self.window = float(window)
        self.labels = dict(labels or {})

    def needs(self) -> List[Tuple[str, Dict[str, str], str]]:
        return [(self.metric, dict(self.labels), "scalar")]

    def condition(self, ctx: _EvalContext) -> bool:
        series = ctx.scalar(self.metric, self.labels)
        if series is None or len(series) == 0:
            return ctx.uptime > self.window
        if not series.spans(ctx.now, self.window):
            return False
        return series.delta(ctx.now, self.window) == 0

    def to_dict(self) -> dict:
        data = self._base_dict()
        data.update(
            metric=self.metric, window=self.window, labels=dict(self.labels)
        )
        return data


_RULE_KINDS = {
    ThresholdRule.kind: ThresholdRule,
    BurnRateRule.kind: BurnRateRule,
    AbsenceRule.kind: AbsenceRule,
}


def rule_from_dict(data: dict) -> Rule:
    """Inverse of ``Rule.to_dict()`` -- ``kind`` picks the class."""
    spec = dict(data)
    kind = spec.pop("kind", None)
    cls = _RULE_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown rule kind {kind!r}")
    return cls(**spec)


def dump_rules(rules: Sequence[Rule]) -> List[dict]:
    return [rule.to_dict() for rule in rules]


def load_rules(data: Iterable[dict]) -> List[Rule]:
    return [rule_from_dict(d) for d in data]


def default_rules() -> List[Rule]:
    """The stock fabric rule set: drops, drop-SLO burn, heartbeat."""
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
        ),
        BurnRateRule(
            "drop-slo-burn",
            errors="device.packets_dropped",
            total="device.packets_in",
            objective=0.01,
            short_window=5.0,
            long_window=60.0,
            burn_factor=1.0,
            for_seconds=1.0,
            severity="critical",
        ),
        AbsenceRule(
            "traffic-heartbeat",
            metric="device.packets_in",
            window=30.0,
            severity="warning",
        ),
    ]


# ---------------------------------------------------------------------------
# alert lifecycle
# ---------------------------------------------------------------------------


class AlertInstance:
    """State machine for one (rule, device) pair.

    ``inactive -> pending`` when the condition first holds; ``pending
    -> firing`` once it has held for ``for_seconds`` (both edges on
    the same tick when ``for_seconds`` is 0); ``pending -> inactive``
    the moment it stops holding; ``firing -> resolved`` only after the
    condition has been clear for ``resolve_seconds``.
    """

    __slots__ = ("rule", "device", "state", "since", "_pending_since", "_ok_since")

    def __init__(self, rule: Rule, device: str) -> None:
        self.rule = rule
        self.device = device
        self.state = "inactive"
        self.since: Optional[float] = None
        self._pending_since: Optional[float] = None
        self._ok_since: Optional[float] = None

    def _edge(self, now: float, to_state: str) -> AlertTransition:
        transition = AlertTransition(
            ts=now,
            rule=self.rule.name,
            device=self.device,
            from_state=self.state,
            to_state=to_state,
            severity=self.rule.severity,
        )
        self.state = "inactive" if to_state == "resolved" else to_state
        self.since = now
        return transition

    def step(self, now: float, condition: bool) -> List[AlertTransition]:
        out: List[AlertTransition] = []
        if condition:
            self._ok_since = None
            if self.state == "inactive":
                self._pending_since = now
                out.append(self._edge(now, "pending"))
            if (
                self.state == "pending"
                and self._pending_since is not None
                and now - self._pending_since >= self.rule.for_seconds
            ):
                out.append(self._edge(now, "firing"))
        else:
            if self.state == "pending":
                self._pending_since = None
                out.append(self._edge(now, "inactive"))
            elif self.state == "firing":
                if self._ok_since is None:
                    self._ok_since = now
                if now - self._ok_since >= self.rule.resolve_seconds:
                    self._pending_since = None
                    self._ok_since = None
                    out.append(self._edge(now, "resolved"))
        return out

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "device": self.device,
            "state": self.state,
            "since": self.since,
            "severity": self.rule.severity,
        }


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


class FlightRecorder:
    """Bounded ring buffer of recent observability events.

    Cheap to write (dict append), bounded by construction, and
    freezable: when an event of a ``dump_on`` kind arrives (rollback,
    by default), the ring is snapshotted into a post-mortem bundle so
    the moments *before* the failure survive the failure.
    """

    def __init__(
        self,
        capacity: int = 256,
        clock: Optional[Clock] = None,
        dump_on: Sequence[str] = ("rollback",),
        dump_capacity: int = 4,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.clock = clock or MONOTONIC
        self.events: Deque[dict] = deque(maxlen=capacity)
        self.dump_on = tuple(dump_on)
        self.dumps: Deque[dict] = deque(maxlen=dump_capacity)

    def record(self, kind: str, ts: Optional[float] = None, **attrs: object) -> dict:
        event = {"ts": self.clock.now() if ts is None else ts, "kind": kind}
        event.update(attrs)
        self.events.append(event)
        if kind in self.dump_on:
            self.dump(reason=kind, ts=event["ts"])
        return event

    def bind(self, device: str) -> "_BoundRecorder":
        """A handle that stamps every event with a device label --
        what gets hung on ``switch.flight_recorder``."""
        return _BoundRecorder(self, device)

    def dump(self, reason: str = "manual", ts: Optional[float] = None) -> dict:
        counts: Dict[str, int] = {}
        for event in self.events:
            kind = str(event.get("kind"))
            counts[kind] = counts.get(kind, 0) + 1
        bundle = {
            "reason": reason,
            "ts": self.clock.now() if ts is None else ts,
            "events": [dict(e) for e in self.events],
            "counts": counts,
        }
        self.dumps.append(bundle)
        return bundle

    def last_dump(self) -> Optional[dict]:
        return self.dumps[-1] if self.dumps else None

    def dump_json(self, reason: str = "manual") -> str:
        return json.dumps(self.dump(reason=reason), indent=2)


class _BoundRecorder:
    """Device-scoped view over a shared :class:`FlightRecorder`."""

    __slots__ = ("parent", "device")

    def __init__(self, parent: FlightRecorder, device: str) -> None:
        self.parent = parent
        self.device = device

    def record(self, kind: str, ts: Optional[float] = None, **attrs: object) -> dict:
        attrs.setdefault("device", self.device)
        return self.parent.record(kind, ts=ts, **attrs)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class _Source:
    """One attached device: its registry plus per-device window state."""

    __slots__ = (
        "name",
        "metrics",
        "switch",
        "timelines",
        "scalars",
        "hists",
        "last_values",
        "seen_timelines",
    )

    def __init__(self, name, metrics, switch, timelines) -> None:
        self.name = name
        self.metrics = metrics
        self.switch = switch
        self.timelines = tuple(timelines)
        self.scalars: Dict[Tuple[str, LabelKey], WindowedSeries] = {}
        self.hists: Dict[Tuple[str, LabelKey], HistogramSeries] = {}
        self.last_values: Dict[Tuple[str, LabelKey], float] = {}
        self.seen_timelines: set = set()


class HealthEngine:
    """Pull-based streaming evaluator over attached metric sources."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        recorder: Optional[FlightRecorder] = None,
        registry: Optional[MetricsRegistry] = None,
        horizon: float = 300.0,
    ) -> None:
        self.clock = clock or MONOTONIC
        self.recorder = (
            recorder if recorder is not None else FlightRecorder(clock=self.clock)
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.horizon = horizon
        self.rules: List[Rule] = []
        self._sources: Dict[str, _Source] = {}
        self._int = None
        self._int_seen_changes = 0
        self._alerts: Dict[Tuple[str, str], AlertInstance] = {}
        self.transitions: List[AlertTransition] = []
        self._started: Optional[float] = None
        self._ticks = self.registry.counter("health.ticks")
        self._transition_count = self.registry.counter("health.transitions")
        self.registry.add_collector("health.alerts", self._alert_samples)

    # -- wiring ------------------------------------------------------------

    def install(self, rules: Iterable[Rule]) -> None:
        self.rules.extend(rules)

    def add_source(
        self,
        name: str,
        metrics: MetricsRegistry,
        switch: object = None,
        timelines: Sequence[object] = (),
    ) -> None:
        """Attach a device's registry; optionally hang a device-bound
        flight-recorder handle on its switch so control-plane events
        (txn aborts, rollbacks) land in the same ring."""
        self._sources[name] = _Source(name, metrics, switch, timelines)
        if switch is not None and getattr(switch, "flight_recorder", None) is None:
            switch.flight_recorder = self.recorder.bind(name)

    def remove_source(self, name: str) -> None:
        source = self._sources.pop(name, None)
        if source is not None and source.switch is not None:
            recorder = getattr(source.switch, "flight_recorder", None)
            if isinstance(recorder, _BoundRecorder) and recorder.parent is self.recorder:
                source.switch.flight_recorder = None

    def watch_int(self, collector) -> None:
        self._int = collector
        self._int_seen_changes = len(collector.path_changes)

    # -- evaluation --------------------------------------------------------

    def _needed(self) -> List[Tuple[str, Dict[str, str], str]]:
        needed: List[Tuple[str, Dict[str, str], str]] = []
        seen = set()
        for rule in self.rules:
            for metric, labels, kind in rule.needs():
                key = (metric, _label_key(labels), kind)
                if key not in seen:
                    seen.add(key)
                    needed.append((metric, labels, kind))
        return needed

    def tick(self) -> List[AlertTransition]:
        """Take one snapshot of every source and step every alert.

        The instant is read from the clock exactly once, so every
        series, rule, and recorded event within a tick shares one
        timestamp (important under ``ManualClock`` auto-advance).
        """
        now = self.clock.now()
        if self._started is None:
            self._started = now
        uptime = now - self._started
        self._ticks.inc()
        needed = self._needed()
        transitions: List[AlertTransition] = []

        for source in self._sources.values():
            samples = source.metrics.collect()
            indexed: Dict[Tuple[str, LabelKey], Sample] = {}
            for sample in samples:
                indexed.setdefault(sample.key(), sample)
            for metric, labels, kind in needed:
                key = (metric, _label_key(labels))
                if kind == "histogram":
                    snapshot = snapshot_from_samples(samples, metric, labels)
                    if snapshot is None:
                        continue
                    series_h = source.hists.get(key)
                    if series_h is None:
                        series_h = source.hists[key] = HistogramSeries(self.horizon)
                    series_h.push(now, snapshot)
                    continue
                sample = indexed.get(key)
                if sample is None:
                    sample = indexed.get((metric + "_count", key[1]))
                if sample is None:
                    continue
                series = source.scalars.get(key)
                if series is None:
                    series = source.scalars[key] = WindowedSeries(self.horizon)
                series.push(now, sample.value)
                last = source.last_values.get(key)
                if last is None or sample.value != last:
                    self.recorder.record(
                        "metric",
                        ts=now,
                        device=source.name,
                        metric=metric,
                        value=sample.value,
                        delta=0.0 if last is None else sample.value - last,
                    )
                source.last_values[key] = sample.value

            ctx = _EvalContext(now, uptime, source.scalars, source.hists)
            for rule in self.rules:
                if rule.device is not None and rule.device != source.name:
                    continue
                instance = self._alerts.get((rule.name, source.name))
                if instance is None:
                    instance = AlertInstance(rule, source.name)
                    self._alerts[(rule.name, source.name)] = instance
                for transition in instance.step(now, rule.condition(ctx)):
                    self.recorder.record(
                        "alert",
                        ts=now,
                        rule=transition.rule,
                        device=transition.device,
                        from_state=transition.from_state,
                        to_state=transition.to_state,
                        severity=transition.severity,
                    )
                    transitions.append(transition)

            self._poll_timelines(source, now)

        self._poll_int(now)
        self.transitions.extend(transitions)
        self._transition_count.inc(len(transitions))
        return transitions

    def _poll_timelines(self, source: _Source, now: float) -> None:
        for recorder in source.timelines:
            for timeline in getattr(recorder, "timelines", ()):
                if timeline.end is None or id(timeline) in source.seen_timelines:
                    continue
                source.seen_timelines.add(id(timeline))
                self.recorder.record(
                    "timeline",
                    ts=now,
                    device=source.name,
                    label=timeline.label,
                    total_seconds=timeline.total_seconds,
                    phases={p.name: p.duration for p in timeline.phases},
                )

    def _poll_int(self, now: float) -> None:
        if self._int is None:
            return
        changes = self._int.path_changes
        for change in changes[self._int_seen_changes :]:
            self.recorder.record(
                "path_change",
                ts=now,
                flow=change.flow,
                old_path=list(change.old_path),
                new_path=list(change.new_path),
            )
        self._int_seen_changes = len(changes)

    # -- views -------------------------------------------------------------

    def alerts(self) -> List[AlertInstance]:
        return list(self._alerts.values())

    def firing(self, device: Optional[str] = None) -> List[AlertInstance]:
        return [
            a
            for a in self._alerts.values()
            if a.state == "firing" and (device is None or a.device == device)
        ]

    def device_health(self, name: str) -> float:
        """1.0 = healthy; each firing alert subtracts its severity
        weight; floor at 0."""
        penalty = sum(
            SEVERITY_WEIGHT.get(a.rule.severity, 1.0) for a in self.firing(name)
        )
        return max(0.0, 1.0 - penalty)

    def health_summary(self) -> dict:
        devices = {}
        for name in self._sources:
            devices[name] = {
                "score": self.device_health(name),
                "firing": [a.to_dict() for a in self.firing(name)],
                "pending": [
                    a.to_dict()
                    for a in self._alerts.values()
                    if a.state == "pending" and a.device == name
                ],
            }
        return {
            "devices": devices,
            "rules": len(self.rules),
            "transitions": len(self.transitions),
        }

    # -- export ------------------------------------------------------------

    def _alert_samples(self) -> List[Sample]:
        """``ALERTS{alertname=...,alertstate=...}`` convention plus a
        per-device ``health.score`` gauge."""
        samples: List[Sample] = []
        for instance in self._alerts.values():
            if instance.state in ("pending", "firing"):
                samples.append(
                    Sample(
                        "ALERTS",
                        1,
                        {
                            "alertname": instance.rule.name,
                            "alertstate": instance.state,
                            "device": instance.device,
                            "severity": instance.rule.severity,
                        },
                        "gauge",
                    )
                )
        for name in self._sources:
            samples.append(
                Sample("health.score", self.device_health(name), {"device": name}, "gauge")
            )
        return samples

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()
