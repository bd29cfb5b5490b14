"""Pluggable instrumentation for the unified execution loop.

The dataplane core runs ONE loop (:mod:`repro.dp.exec`); what used to
be the plain/traced/profiled twins of that loop is now a hook object:

* :class:`ExecHooks` -- the no-op base.  Its methods perform exactly
  the semantic operation (parse / lookup / execute / TM transfer) and
  nothing else, so the base class is both the interface contract and
  the uninstrumented fast path (:data:`NULL_HOOKS`).
* :class:`TraceHooks` -- wraps each operation in the packet tracer's
  span tree (same shapes as the old ``_process_traced`` twins).
* :class:`ProfileHooks` -- attributes wall time and work counters to
  ``(label, phase, detail)`` paths (the old ``_process_profiled``).

:func:`resolve_hooks` encodes the device policy: an *active* trace
takes priority over the profiler; otherwise the profiler; otherwise
the no-op singleton.  When both a tracer and a profiler are attached,
the TM and deparser phases are still timed (they always were -- the
old pipeline checked the profiler independently of the tracer).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.prof import Profiler
from repro.obs.trace import PacketTracer


class ExecHooks:
    """No-op instrumentation: each method IS the bare semantic op."""

    __slots__ = ()

    # -- the stage loop (IPSA TSPs, PISA physical stages) -------------

    def unit_begin(self, plan):
        """Called entering one TSP's (or PISA stage's) hosted stages;
        returns a context."""
        return None

    def unit_end(self, ctx, plan) -> None:
        """Called leaving the TSP (always, via ``finally``)."""

    def parse(self, plan, stage, packet, device) -> int:
        """JIT-parse the stage's parser set; returns headers parsed.

        The uninstrumented path prechecks the parsed-header index and
        skips the :meth:`~repro.net.packet.Packet.ensure_parsed` call
        entirely when every requested header is already available (the
        call would return 0 -- the precheck only removes overhead).
        Instrumented subclasses always make the call so the parse
        span/phase exists for every IPSA stage, as it always has; a
        PISA stage's parse list is empty (its front parser ran).
        """
        by_name = packet._by_name
        for name in stage.parse_list:
            if name not in by_name:
                return packet.ensure_parsed(
                    stage.parse_list, device.header_types, device.linkage
                )
        return 0

    def empty_arm(self, plan, stage, arm) -> None:
        """A matched arm with no table: an explicit no-op."""

    def match(self, plan, stage, arm, table, packet):
        """Apply the arm's table; returns the lookup result."""
        return table.lookup(packet)

    def execute(self, plan, stage, name, action, packet, result, device) -> None:
        """Run the executor-selected action."""
        action.execute(
            packet, result.action_data, entry=result.entry, device=device
        )

    # -- PISA front end / back end ------------------------------------

    def front_parse(self, parser, packet) -> int:
        """PISA's full-stack front-end parse."""
        return parser.parse(packet)

    def deparse(self, deparser, packet) -> bytes:
        """PISA's explicit egress deparse."""
        return deparser.deparse(packet)

    # -- traffic manager ----------------------------------------------

    def tm_enqueue(self, tm, packet) -> int:
        return tm.enqueue_or_replicate(packet)

    def tm_dequeue(self, tm):
        return tm.dequeue()


#: The shared uninstrumented hook object (stateless, reusable).
NULL_HOOKS = ExecHooks()


class ProfileHooks(ExecHooks):
    """Wall-time + work attribution (the old ``*_profiled`` twins)."""

    __slots__ = ("profiler",)

    def __init__(self, profiler: Profiler) -> None:
        self.profiler = profiler

    def parse(self, plan, stage, packet, device) -> int:
        if plan.kind == "stage":
            return 0  # PISA: the front parser already extracted it all
        prof = self.profiler
        started = prof.now()
        parsed = packet.ensure_parsed(
            stage.parse_list, device.header_types, device.linkage
        )
        prof.add((plan.label, "parse"), started, headers=parsed)
        return parsed

    def match(self, plan, stage, arm, table, packet):
        prof = self.profiler
        started = prof.now()
        result = table.lookup(packet)
        prof.add((plan.label, "match", arm.table_name), started, lookups=1)
        prof.note_engine(table.engine_kind)
        return result

    def execute(self, plan, stage, name, action, packet, result, device) -> None:
        prof = self.profiler
        started = prof.now()
        action.execute(
            packet, result.action_data, entry=result.entry, device=device
        )
        prof.add((plan.label, "execute", name), started, ops=len(action.ops))

    def front_parse(self, parser, packet) -> int:
        prof = self.profiler
        started = prof.now()
        parsed = parser.parse(packet)
        prof.add(("parser", "parse"), started, headers=parsed)
        return parsed

    def deparse(self, deparser, packet) -> bytes:
        prof = self.profiler
        started = prof.now()
        data = deparser.deparse(packet)
        prof.add(("deparser", "deparse"), started, bytes=len(data))
        return data

    def tm_enqueue(self, tm, packet) -> int:
        prof = self.profiler
        started = prof.now()
        queued = tm.enqueue_or_replicate(packet)
        prof.add(("tm", "enqueue"), started, enqueues=queued)
        return queued

    def tm_dequeue(self, tm):
        prof = self.profiler
        started = prof.now()
        packet = tm.dequeue()
        prof.add(("tm", "dequeue"), started, dequeues=1)
        return packet


class TraceHooks(ExecHooks):
    """Span-tree recording (the old ``*_traced`` twins).

    Carries the device's profiler too: per-stage phases are traced
    INSTEAD of profiled (trace priority), but TM and deparser phases
    keep their wall-time attribution even while a trace is active --
    exactly the old split, where the pipeline checked the profiler
    independently.
    """

    __slots__ = ("tracer", "profiler")

    def __init__(
        self, tracer: PacketTracer, profiler: Optional[Profiler] = None
    ) -> None:
        self.tracer = tracer
        self.profiler = profiler

    def unit_begin(self, plan):
        return self.tracer.start_span(
            plan.label, kind=plan.kind, tsp=plan.index, side=plan.side
        )

    def unit_end(self, ctx, plan) -> None:
        self.tracer.end_span(ctx)

    def parse(self, plan, stage, packet, device) -> int:
        if plan.kind == "stage":
            return 0  # PISA: the front parser already extracted it all
        tracer = self.tracer
        span = tracer.start_span(
            "parse",
            kind="parse",
            stage=stage.name,
            headers=list(stage.parse_list),
        )
        parsed = packet.ensure_parsed(
            stage.parse_list, device.header_types, device.linkage
        )
        span.attrs["parsed"] = parsed
        tracer.end_span(span)
        return parsed

    def empty_arm(self, plan, stage, arm) -> None:
        self.tracer.event(
            "match",
            kind="match",
            stage=stage.name,
            arm=arm.index,
            matched=False,
        )

    def match(self, plan, stage, arm, table, packet):
        tracer = self.tracer
        span = tracer.start_span(
            "match",
            kind="match",
            stage=stage.name,
            arm=arm.index,
            table=arm.table_name,
        )
        result = table.lookup(packet)
        span.attrs["hit"] = result.hit
        span.attrs["tag"] = result.tag
        tracer.end_span(span)
        return result

    def execute(self, plan, stage, name, action, packet, result, device) -> None:
        tracer = self.tracer
        span = tracer.start_span(
            "execute",
            kind="execute",
            stage=stage.name,
            action=name,
            ops=len(action.ops),
        )
        action.execute(
            packet, result.action_data, entry=result.entry, device=device
        )
        tracer.end_span(span)

    def front_parse(self, parser, packet) -> int:
        tracer = self.tracer
        span = tracer.start_span("parse", kind="parse")
        parsed = parser.parse(packet)
        span.attrs["parsed"] = parsed
        span.attrs["headers"] = [h.name for h in packet.headers]
        tracer.end_span(span)
        return parsed

    def deparse(self, deparser, packet) -> bytes:
        prof = self.profiler
        if prof is not None:
            started = prof.now()
            data = deparser.deparse(packet)
            prof.add(("deparser", "deparse"), started, bytes=len(data))
            return data
        return deparser.deparse(packet)

    def tm_enqueue(self, tm, packet) -> int:
        prof = self.profiler
        if prof is not None:
            started = prof.now()
            queued = tm.enqueue_or_replicate(packet)
            prof.add(("tm", "enqueue"), started, enqueues=queued)
        else:
            queued = tm.enqueue_or_replicate(packet)
        self.tracer.event(
            "tm.enqueue", kind="tm", queued=queued, occupancy=tm.occupancy()
        )
        return queued

    def tm_dequeue(self, tm):
        prof = self.profiler
        if prof is not None:
            started = prof.now()
            packet = tm.dequeue()
            prof.add(("tm", "dequeue"), started, dequeues=1)
        else:
            packet = tm.dequeue()
        self.tracer.event("tm.dequeue", kind="tm")
        return packet


def resolve_hooks(device) -> ExecHooks:
    """Pick the hook object for one packet (or one batch).

    An active trace (tracer attached AND a trace begun) wins over the
    profiler; a lone profiler gets :class:`ProfileHooks`; otherwise
    the shared no-op singleton -- the plain path allocates nothing.
    """
    tracer = device.tracer
    if tracer is not None and tracer.current is not None:
        return TraceHooks(tracer, device.profiler)
    profiler = device.profiler
    if profiler is not None:
        return ProfileHooks(profiler)
    return NULL_HOOKS
