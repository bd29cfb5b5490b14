"""The shared front door: inject / inject_multi / inject_batch.

Both switches used to hand-maintain the same preamble (counters,
clock, size histogram, tracer begin, metadata defaults) and epilogue
(drop accounting, PortOut construction, punt/emit trace outcome).
That lives here once, parameterized by the device's
:class:`~repro.dp.core.DataplaneCore`.

:func:`inject_batch` is the amortized path: hooks and the compiled
plan resolve once per batch, the per-packet tracer checks disappear
when tracing is off, and each packet's metadata is one dict copy of
the device's merged defaults template.  Its native form is a
:class:`~repro.dp.batch.PacketBatch` in and the batch of survivors
out, so a fabric hop hands the next one its byte matrix; ``(data,
port)`` pairs in and one :class:`PortOut` slot per pair out is the
adapter at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

# Loaded here rather than at the first batch: compiling the module from
# source on top of a fully built fleet is what set a process's peak RSS.
from repro.dp import columnar
from repro.dp.batch import PacketBatch
from repro.dp.core import DataplaneCore
from repro.dp.exec import PipelineOutcome
from repro.dp.hooks import NULL_HOOKS, ProfileHooks, resolve_hooks
from repro.net.packet import Packet
from repro.obs.trace import DropReason

#: Packet-size histogram edges (bytes): the classic wire ladder.
PACKET_BYTES_BOUNDS = (64, 128, 256, 512, 1024, 1518)


@dataclass
class PortOut:
    """One packet leaving a device."""

    port: int
    data: bytes
    to_cpu: bool = False


class BatchResult:
    """Outcome of :func:`inject_batch`: one slot per injected packet.

    ``outputs[i]`` is the :class:`PortOut` for packet ``i``, or
    ``None`` if it was dropped -- so a batch is position-for-position
    comparable with N individual :func:`inject` calls.
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


def _ingest(core: DataplaneCore, data: bytes, port: int) -> Packet:
    """Shared preamble: counters, clock, histogram, tracer begin."""
    device = core.device
    device.packets_in += 1
    device.clock += 1
    device._packet_bytes.observe(len(data))
    if device.profiler is not None:
        device.profiler.packets += 1
    tracer = device.tracer
    if tracer is not None:
        tracer.begin(clock=device.clock, port=port, length=len(data))
    packet = core.new_packet(data, port)
    int_clock = getattr(device, "int_clock", None)
    if int_clock is not None:
        packet.metadata["ingress_ts_ns"] = int(int_clock.now() * 1e9)
    return packet


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


def _emit_one(core, hooks, tracer, packet) -> PortOut:
    device = core.device
    out = PortOut(
        port=int(packet.metadata.get("egress_spec", 0)),  # type: ignore[arg-type]
        data=core.serialize(packet, hooks),
        to_cpu=bool(packet.metadata.get("to_cpu")),
    )
    device.packets_out += 1
    if out.to_cpu:
        device.punted += 1
    if tracer is not None:
        tracer.note_egress(out.port)
    return out


def finish_unicast(core, hooks, tracer, outcome) -> Optional[PortOut]:
    """Epilogue for ``inject``: first surviving copy or ``None``."""
    _account_drops(core.device, tracer, outcome)
    if not outcome.outputs:
        return None
    out = _emit_one(core, hooks, tracer, outcome.outputs[0])
    if tracer is not None:
        tracer.end("punt" if out.to_cpu else "emit")
    return out


def finish_multi(core, hooks, tracer, outcome) -> List[PortOut]:
    """Epilogue for ``inject_multi``: every surviving copy."""
    _account_drops(core.device, tracer, outcome)
    if not outcome.outputs:
        return []
    outs = [
        _emit_one(core, hooks, tracer, packet) for packet in outcome.outputs
    ]
    if tracer is not None:
        tracer.end("multicast" if len(outs) > 1 else "emit", copies=len(outs))
    return outs


def inject(core: DataplaneCore, data: bytes, port: int = 0, meter=None):
    """Push one packet through the device (unicast view)."""
    packet = _ingest(core, data, port)
    hooks = resolve_hooks(core.device)
    outcome = core.process(packet, hooks, meter)
    return finish_unicast(core, hooks, core.device.tracer, outcome)


def inject_multi(core: DataplaneCore, data: bytes, port: int = 0):
    """Push one packet through; return every multicast copy."""
    packet = _ingest(core, data, port)
    hooks = resolve_hooks(core.device)
    outcome = core.process(packet, hooks, None)
    return finish_multi(core, hooks, core.device.tracer, outcome)


def inject_batch(core: DataplaneCore, trace, meter=None):
    """Push a batch through, amortizing the front door.

    ``trace`` is a :class:`~repro.dp.batch.PacketBatch` -- the answer
    is then the batch of surviving rows, each under its input
    ``index`` -- or ``(data, port)`` pairs, answered by a
    :class:`BatchResult` with one slot per pair.  Either way it is
    equivalent packet-for-packet to N :func:`inject` calls.  With a
    tracer attached each packet still gets its own trace (begin/end
    must bracket each packet), so the batch simply loops ``inject``;
    otherwise hooks, plan, metadata template, and serializer resolve
    once for the whole batch.  On an INT device every row's ingress
    stamp is read here, once per row in index order -- the reads the
    per-packet loop makes -- whichever path then runs the row.
    """
    device = core.device
    batched = isinstance(trace, PacketBatch)
    if not batched and not isinstance(trace, list):
        trace = list(trace)
    if device.tracer is not None:
        outputs = [
            inject(core, data, port, meter)
            for data, port in (trace.pairs() if batched else trace)
        ]
    else:
        core.plan()  # compile outside the per-packet loop
        int_clock = getattr(device, "int_clock", None)
        stamps = None
        if int_clock is not None:
            stamps = [int(int_clock.now() * 1e9) for _ in range(len(trace))]
        # Columnar fast path: homogeneous runs execute vectorized, with
        # per-packet fallback for divergent packets.  Instrumented runs
        # (profiler / meter) stay on the scalar loop, whose hook points
        # the instruments were written against.
        if core.columnar_enabled and meter is None and device.profiler is None:
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
    first_header = core.first_header()
    template = core.metadata_template
    observe = device._packet_bytes.observe
    process = core.process
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
        outcome = process(packet, hooks, meter)
        outputs[index] = finish_unicast(core, hooks, None, outcome)
