"""The device and its front door: inject / inject_multi / inject_batch.

IPSA and PISA differ in where parsing happens, in elasticity and in
how they take updates -- their configuration paths, and the plan
compiler each hands its :class:`~repro.dp.core.DataplaneCore`.  They
do not differ in how a device is counted, traced, instrumented or fed
packets: that is :class:`Device`, once -- the counters, the metrics
registry and its collectors, the tracing / profiling / INT switches,
the table map and the front door's preamble (counters, clock, size
histogram, tracer begin, metadata defaults) and epilogue (drop
accounting, PortOut construction, punt/emit trace outcome).

:meth:`Device.inject_batch` is the amortized path: hooks and the
compiled plan resolve once per batch, the per-packet tracer checks
disappear when tracing is off, and each packet's metadata is one dict
copy of the device's merged defaults template.  Its native form is a
:class:`~repro.dp.batch.PacketBatch` in and the batch of survivors
out, so a fabric hop hands the next one its byte matrix; ``(data,
port)`` pairs in and one :class:`PortOut` slot per pair out is the
adapter at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compiler.lowering import builtin_actions
# Loaded here rather than at the first batch: compiling the module from
# source on top of a fully built fleet is what set a process's peak RSS.
from repro.dp import columnar
from repro.dp.batch import PacketBatch
from repro.dp.core import DataplaneCore
from repro.dp.exec import PipelineOutcome, run_pipeline
from repro.dp.hooks import NULL_HOOKS, ProfileHooks, resolve_hooks
from repro.net.headers import HeaderType
from repro.net.linkage import HeaderLinkageTable
from repro.net.packet import Packet
from repro.obs.clock import Clock
from repro.obs.metrics import MetricsRegistry, Sample
from repro.obs.prof import Profiler
from repro.obs.timeline import TimelineRecorder
from repro.obs.trace import DropReason, PacketTracer
from repro.tables.actions import ActionDef
from repro.tables.meters import MeterBank
from repro.tables.registers import ExternStore
from repro.tables.table import Table

#: Packet-size histogram edges (bytes): the classic wire ladder.
PACKET_BYTES_BOUNDS = (64, 128, 256, 512, 1024, 1518)


@dataclass
class PortOut:
    """One packet leaving a device."""

    port: int
    data: bytes
    to_cpu: bool = False


class BatchResult:
    """Outcome of :meth:`Device.inject_batch`: one slot per injected packet.

    ``outputs[i]`` is the :class:`PortOut` for packet ``i``, or
    ``None`` if it was dropped -- so a batch is position-for-position
    comparable with N individual :meth:`Device.inject` calls.
    """

    __slots__ = ("outputs",)

    def __init__(self, outputs: List[Optional[PortOut]]) -> None:
        self.outputs = outputs

    @property
    def forwarded(self) -> int:
        return sum(1 for out in self.outputs if out is not None)

    @property
    def dropped(self) -> int:
        return sum(1 for out in self.outputs if out is None)

    def __len__(self) -> int:
        return len(self.outputs)

    def __iter__(self):
        return iter(self.outputs)

    def __getitem__(self, index):
        return self.outputs[index]


def _account_drops(device, tracer, outcome: PipelineOutcome) -> None:
    """Per-reason drop counters + trace annotation (first reason wins).

    Every individually dropped egress copy counts once; a packet that
    produced no output at all additionally resolves its overall reason
    (``UNKNOWN`` only when the pipeline truly reported none).
    """
    for reason in outcome.copy_drops:
        device.note_drop(reason)
        if tracer is not None:
            tracer.note_drop(reason)
    if not outcome.outputs:
        device.packets_dropped += 1
        if not outcome.copy_drops:
            device.note_drop(outcome.drop_reason or DropReason.UNKNOWN)
        if tracer is not None:
            tracer.note_drop(outcome.drop_reason or DropReason.UNKNOWN)
            tracer.end("drop")


def _emit_one(device, plan, hooks, tracer, packet) -> PortOut:
    """Serialize one surviving copy -- through the plan's deparser, or
    the header stack IPSA keeps in flight -- and count it out."""
    deparser = plan.deparser
    out = PortOut(
        port=int(packet.metadata.get("egress_spec", 0)),  # type: ignore[arg-type]
        data=packet.emit() if deparser is None else hooks.deparse(deparser, packet),
        to_cpu=bool(packet.metadata.get("to_cpu")),
    )
    device.packets_out += 1
    if out.to_cpu:
        device.punted += 1
    if tracer is not None:
        tracer.note_egress(out.port)
    return out


def finish_unicast(device, plan, hooks, tracer, outcome) -> Optional[PortOut]:
    """Epilogue for ``inject``: first surviving copy or ``None``."""
    _account_drops(device, tracer, outcome)
    if not outcome.outputs:
        return None
    out = _emit_one(device, plan, hooks, tracer, outcome.outputs[0])
    if tracer is not None:
        tracer.end("punt" if out.to_cpu else "emit")
    return out


class Device:
    """What every switch has, whatever its architecture.

    A subclass adds its configuration path and hands in its plan
    compiler (:func:`~repro.dp.plan.compile_ipsa_plan` or
    :func:`~repro.dp.plan.compile_fixed_plan`); everything here reads
    the compiled :class:`~repro.dp.plan.DevicePlan`, never the family.
    """

    def __init__(self, compile_plan) -> None:
        # The schema and match-action state the configuration path
        # fills (PISA's install publishes its front parser's graph).
        self.header_types: Dict[str, HeaderType] = {}
        self.linkage = HeaderLinkageTable()
        self.first_header = "ethernet"
        self.actions: Dict[str, ActionDef] = builtin_actions()
        self.tables: Dict[str, Table] = {}
        self.metadata_defaults: Dict[str, int] = {}
        self.packets_in = 0
        self.packets_out = 0
        self.packets_dropped = 0
        self.punted = 0
        self.externs = ExternStore()
        self.meters = MeterBank()
        self.clock = 0  # logical time: one tick per injected packet
        # Observability: the registry is the canonical export surface
        # (collectors read the live counters above at collect time);
        # the tracer is opt-in and None on the hot path by default.
        self.drop_reasons: Dict[str, int] = {}
        self.tracer: Optional[PacketTracer] = None
        self.profiler: Optional[Profiler] = None
        # INT instrumentation: both stay None on the untelemetered hot
        # path.  ``int_clock`` stamps ingress/egress timestamps for
        # push_int; ``int_collector`` (duck-typed: observe_strip) is
        # fed by pop_int at sink nodes.
        self.int_clock: Optional[Clock] = None
        self.int_collector = None
        self.int_node: Optional[str] = None
        # Flight recorder: a device-bound handle (duck-typed: record)
        # hung here by HealthEngine.add_source.  Only control-plane
        # paths (txn abort/commit, rollback) write to it -- the packet
        # hot path never reads it.
        self.flight_recorder = None
        self.timelines = TimelineRecorder()
        self.metrics = metrics = MetricsRegistry()
        self._packet_bytes = metrics.histogram(
            "device.packet_bytes", PACKET_BYTES_BOUNDS
        )
        # The shared dataplane execution core: compiled stage plans,
        # invalidated whenever the configuration changes.
        self.dp = DataplaneCore(self, compile_plan)
        self.dp.register_metrics(metrics)
        metrics.add_collector("device", self._device_samples)
        metrics.add_collector(
            "tables",
            lambda: (
                s
                for table in list(self.tables.values())
                for s in table.metrics_samples()
            ),
        )
        metrics.add_collector("sketches", self._sketch_samples)
        metrics.add_collector("meters", lambda: self.meters.metrics_samples())

    # -- observability -----------------------------------------------------

    def _device_samples(self):
        yield Sample("device.packets_in", self.packets_in)
        yield Sample("device.packets_out", self.packets_out)
        yield Sample("device.packets_dropped", self.packets_dropped)
        yield Sample("device.punted", self.punted)
        for reason, count in self.drop_reasons.items():
            yield Sample("device.drops", count, {"reason": reason})

    def _sketch_samples(self):
        for name, sketch in self.externs.sketches.items():
            labels = {"sketch": name}
            yield Sample("sketch.updates", sketch.updates, dict(labels))
            yield Sample("sketch.columns", sketch.columns, dict(labels), "gauge")
            yield Sample("sketch.rows", len(sketch.rows), dict(labels), "gauge")

    def note_drop(self, reason: DropReason, count: int = 1) -> None:
        """Attribute ``count`` (copy-level) drops to a taxonomy reason."""
        key = reason.value
        self.drop_reasons[key] = self.drop_reasons.get(key, 0) + count

    def enable_tracing(self, capacity: int = 256) -> PacketTracer:
        """Attach (and return) a per-packet tracer; idempotent."""
        if self.tracer is None:
            self.tracer = PacketTracer(capacity=capacity)
        return self.tracer

    def disable_tracing(self) -> Optional[PacketTracer]:
        """Detach the tracer (hot path returns to the untraced fast
        path); returns it so captured traces stay readable."""
        tracer, self.tracer = self.tracer, None
        return tracer

    def enable_profiling(self, clock: Optional[Clock] = None) -> Profiler:
        """Attach (and return) the wall-time profiler; idempotent."""
        if self.profiler is None:
            self.profiler = Profiler(clock=clock)
        return self.profiler

    def disable_profiling(self) -> Optional[Profiler]:
        """Detach the profiler (hot path returns to the unprofiled
        fast path); returns it so accumulated records stay readable."""
        profiler, self.profiler = self.profiler, None
        return profiler

    def enable_int(self, clock: Optional[Clock] = None) -> Clock:
        """Turn on INT timestamping: the front door stamps
        ``ingress_ts_ns`` on arrivals and ``push_int`` reads this clock
        for egress timestamps.  Idempotent."""
        if self.int_clock is None:
            from repro.obs.clock import MONOTONIC

            self.int_clock = clock if clock is not None else MONOTONIC
        return self.int_clock

    def attach_int_collector(self, collector, node: Optional[str] = None) -> None:
        """Attach a sink-side INT collector; ``pop_int`` reports each
        stripped hop stack to it (duck-typed: ``observe_strip``).
        ``node`` labels this device in the collector's records."""
        self.int_collector = collector
        self.int_node = node

    # -- tables --------------------------------------------------------------

    def set_table(self, name: str, table: Table) -> None:
        """Repoint a table name at a different :class:`Table` object.

        The compiled stage plans hold direct table references, so a
        repoint must invalidate them (counted under ``table_repoint``).
        """
        self.tables[name] = table
        self.dp.invalidate("table_repoint")

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"switch has no table {name!r}") from None

    # -- traffic -------------------------------------------------------------

    def _ingest(self, data: bytes, port: int) -> Packet:
        """Shared preamble: counters, clock, histogram, tracer begin."""
        self.packets_in += 1
        self.clock += 1
        self._packet_bytes.observe(len(data))
        if self.profiler is not None:
            self.profiler.packets += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(clock=self.clock, port=port, length=len(data))
        packet = self.dp.new_packet(data, port)
        if self.int_clock is not None:
            packet.metadata["ingress_ts_ns"] = int(self.int_clock.now() * 1e9)
        return packet

    def inject(self, data: bytes, port: int = 0, meter=None) -> Optional[PortOut]:
        """Push one packet through the device (unicast view).

        ``meter`` (if given) receives the per-unit parse/lookup events
        the hardware throughput model prices."""
        plan = self.dp.plan()  # compile (or refuse) before any counter moves
        packet = self._ingest(data, port)
        hooks = resolve_hooks(self)
        outcome = run_pipeline(plan, packet, self, hooks, meter)
        return finish_unicast(self, plan, hooks, self.tracer, outcome)

    def inject_multi(self, data: bytes, port: int = 0) -> List[PortOut]:
        """Like :meth:`inject`, but returns every copy a multicast
        group produced (unicast packets return a one-element list)."""
        plan = self.dp.plan()
        packet = self._ingest(data, port)
        hooks = resolve_hooks(self)
        outcome = run_pipeline(plan, packet, self, hooks)
        tracer = self.tracer
        _account_drops(self, tracer, outcome)
        outs = [
            _emit_one(self, plan, hooks, tracer, copy)
            for copy in outcome.outputs
        ]
        if outs and tracer is not None:
            tracer.end("multicast" if len(outs) > 1 else "emit", copies=len(outs))
        return outs

    def inject_batch(self, trace, meter=None):
        """Push a batch through, amortizing the front door.

        ``trace`` is a :class:`~repro.dp.batch.PacketBatch` -- the
        answer is then the batch of surviving rows, each under its
        input ``index`` -- or ``(data, port)`` pairs, answered by a
        :class:`BatchResult` with one slot per pair.  Outputs, counters
        and drops match N :meth:`inject` calls packet for packet, and so
        do INT hop records when the INT clock is frozen (or absent).
        Under a ticking INT clock they do not: every row's ingress
        stamp is read here, once per row in index order and whichever
        path then runs the row, so all ingress stamps precede every
        egress stamp.  With a tracer attached each packet still gets
        its own trace (begin/end must bracket each packet), so the
        batch simply loops :meth:`inject`; otherwise hooks, plan,
        metadata template, and serializer resolve once for the whole
        batch.  ``meter`` (like an attached profiler) keeps the batch
        on the scalar loop, whose hook points it was written against.
        """
        core = self.dp
        core.plan()  # compile (or refuse) outside the per-packet loop
        batched = isinstance(trace, PacketBatch)
        if not batched and not isinstance(trace, list):
            trace = list(trace)
        if self.tracer is not None:
            outputs = [
                self.inject(data, port, meter)
                for data, port in (trace.pairs() if batched else trace)
            ]
        else:
            stamps = None
            if self.int_clock is not None:
                now = self.int_clock.now
                stamps = [int(now() * 1e9) for _ in range(len(trace))]
            if core.columnar_enabled and meter is None and self.profiler is None:
                out = columnar.try_run_batch(core, trace, stamps)
                if out is not None:
                    return out if batched else BatchResult(out)
            outputs = [None] * len(trace)
            run_scalar_rows(
                core, trace.pairs() if batched else trace, range(len(trace)),
                outputs, stamps, meter,
            )
        if not batched:
            return BatchResult(outputs)
        kept = [
            (index, out) for index, out in zip(trace.tolist(), outputs)
            if out is not None
        ]
        return PacketBatch.from_frames(
            [out.data for _index, out in kept], [out.port for _index, out in kept],
            [index for index, _out in kept], [out.to_cpu for _index, out in kept],
        )


def port_outputs(out: PacketBatch, n: int) -> List[Optional[PortOut]]:
    """A device's output batch as ``n`` per-row slots: the
    :class:`PortOut` of each surviving row at its ``index``, ``None``
    where the row was dropped."""
    outputs: List[Optional[PortOut]] = [None] * n
    for index, port, data, cpu in zip(
        out.tolist(), out.tolist("ports"), out.frames(), out.tolist("to_cpu")
    ):
        outputs[index] = PortOut(port, data, cpu)
    return outputs


def run_scalar_rows(core, items, indices, outputs, stamps=None, meter=None):
    """The per-packet loop over ``items[i]`` for ``i`` in ``indices``,
    writing ``outputs[i]``: the whole batch on the scalar path, the
    peeled rows on the columnar one.  ``stamps[i]`` is row ``i``'s INT
    ingress stamp (``None``: no INT clock)."""
    device = core.device
    profiler = device.profiler
    hooks = NULL_HOOKS if profiler is None else ProfileHooks(profiler)
    first_header = device.first_header
    template = core.metadata_template
    observe = device._packet_bytes.observe
    for index in indices:
        data, port = items[index]
        device.packets_in += 1
        device.clock += 1
        observe(len(data))
        if profiler is not None:
            profiler.packets += 1
        metadata = dict(template)
        metadata["ingress_port"] = port
        metadata["packet_length"] = len(data)
        if stamps is not None:
            metadata["ingress_ts_ns"] = stamps[index]
        packet = Packet(data, first_header=first_header, metadata=metadata)
        plan = core.plan()
        outcome = run_pipeline(plan, packet, device, hooks, meter)
        outputs[index] = finish_unicast(device, plan, hooks, None, outcome)
