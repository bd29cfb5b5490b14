"""Observability layer: metrics registry, packet tracer, update timelines.

The paper's whole pitch is *runtime* reprogrammability, and runtime
behavior needs runtime visibility.  This package provides the three
instruments the rest of the tree threads through:

* :mod:`repro.obs.metrics` -- a device-level registry of counters,
  gauges, and bounded-bucket histograms.  Components publish their
  live counters through collectors, so the hot path pays nothing and
  the registry is the single enumeration/export surface
  (``runtime.stats.snapshot()`` is a compatibility view over it).
* :mod:`repro.obs.trace` -- an opt-in per-packet tracer recording a
  span tree for a packet's lifecycle (parse/match/execute per TSP,
  TM enqueue/dequeue, emit/drop with a drop-reason taxonomy).
* :mod:`repro.obs.timeline` -- timestamped phase timelines for
  control-plane operations (``load_base``, ``run_script``,
  ``apply_update``, ``rollback``), so Table-1-style numbers decompose
  into phases.
* :mod:`repro.obs.export` -- JSON-lines sinks and loaders plus the
  Prometheus-style text exposition.
* :mod:`repro.obs.clock` -- the injectable time source every
  instrument reads through (tests use :class:`ManualClock` for exact,
  jitter-free durations).
* :mod:`repro.obs.prof` -- an opt-in low-overhead profiler that
  attributes wall-time and work counters (headers parsed, lookups,
  primitive ops, TM enqueues) to parse/match/execute phases per
  component; feeds ``ipbm-ctl profile`` and flamegraph tooling.
"""

import importlib

from repro.obs.clock import Clock, ManualClock, MonotonicClock, MONOTONIC
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    Sample,
    bucket_quantile,
)
from repro.obs.prof import (
    PHASES,
    ProfileRecord,
    Profiler,
    format_profile,
)
from repro.obs.timeline import Phase, Timeline, TimelineRecorder, format_timeline
from repro.obs.trace import (
    DropReason,
    PacketTrace,
    PacketTracer,
    Span,
    format_trace,
)

# ``health`` and ``intcol`` load on first use (PEP 562 ``__getattr__``
# below): most device and fabric workloads never touch them, and
# importing them eagerly costs every process ~0.6 MB of resident heap.
_LAZY = {
    "health": (
        "AbsenceRule",
        "AlertInstance",
        "AlertTransition",
        "BurnRateRule",
        "FlightRecorder",
        "HealthEngine",
        "HistogramSeries",
        "Rule",
        "ThresholdRule",
        "WindowedSeries",
        "default_rules",
        "dump_rules",
        "load_rules",
        "rule_from_dict",
    ),
    "intcol": ("IntCollector", "IntIngest", "PathChange"),
}


def __getattr__(name: str):
    for submodule, exported in _LAZY.items():
        if name == submodule or name in exported:
            module = importlib.import_module(f"{__name__}.{submodule}")
            return module if name == submodule else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AbsenceRule",
    "AlertInstance",
    "AlertTransition",
    "BurnRateRule",
    "Clock",
    "Counter",
    "DropReason",
    "FlightRecorder",
    "Gauge",
    "HealthEngine",
    "Histogram",
    "HistogramSeries",
    "HistogramSnapshot",
    "IntCollector",
    "IntIngest",
    "MONOTONIC",
    "ManualClock",
    "MetricsRegistry",
    "MonotonicClock",
    "PHASES",
    "PacketTrace",
    "PacketTracer",
    "PathChange",
    "Phase",
    "ProfileRecord",
    "Profiler",
    "Rule",
    "Sample",
    "Span",
    "ThresholdRule",
    "Timeline",
    "TimelineRecorder",
    "WindowedSeries",
    "bucket_quantile",
    "default_rules",
    "dump_rules",
    "format_profile",
    "format_timeline",
    "format_trace",
    "load_rules",
    "rule_from_dict",
]
