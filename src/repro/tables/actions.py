"""Action definitions and the small expression VM that executes them.

An :class:`ActionDef` is a named list of primitive operations over a
tiny expression language (constants, action parameters, dotted field
references, binary operators, and a hash primitive).  Table entries
bind an action name to concrete parameter values; the executor
sub-module of a TSP (or a PISA stage) runs the ops against the packet.

The op set matches what the paper's executor templates need: field
assignment, header add/remove, a flow-hash primitive for ECMP, and a
count-and-mark primitive for the event-triggered flow probe (C3).
``PyPrimitive`` is the extern escape hatch for behaviors that a
behavioral model implements natively (e.g. SRv6 segment-endpoint
processing), mirroring bmv2's extern mechanism.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.net.fields import mask_to_width
from repro.net.packet import Packet

# --------------------------------------------------------------------------
# Expression language
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """A literal integer."""

    value: int


@dataclass(frozen=True)
class Param:
    """A reference to an action parameter (bound per table entry)."""

    name: str


@dataclass(frozen=True)
class FieldRef:
    """A dotted reference: ``"ipv4.dst_addr"`` or ``"meta.bd"``."""

    ref: str


@dataclass(frozen=True)
class BinOp:
    """A binary operation over two sub-expressions."""

    op: str  # one of + - & | ^ << >> *
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class HashExpr:
    """Hash of the named fields, truncated to ``width`` bits.

    This is the flow-ID hash ECMP uses for next-hop selection.
    """

    fields: Tuple[str, ...]
    width: int = 32


Expr = Union[Const, Param, FieldRef, BinOp, HashExpr]

_BINOPS: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
}


def flow_hash(values: List[int]) -> int:
    """Deterministic 32-bit hash of a list of field values (CRC32)."""
    blob = b"".join(
        v.to_bytes((max(v.bit_length(), 1) + 7) // 8, "big") for v in values
    )
    return zlib.crc32(blob) & 0xFFFFFFFF


def evaluate(expr: Expr, packet: Packet, params: Dict[str, int]) -> int:
    """Evaluate an expression against a packet and bound parameters."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Param):
        try:
            return params[expr.name]
        except KeyError:
            raise KeyError(f"action parameter {expr.name!r} not bound") from None
    if isinstance(expr, FieldRef):
        value = packet.read(expr.ref)
        if not isinstance(value, int):
            raise TypeError(f"field {expr.ref!r} is not an integer field")
        return value
    if isinstance(expr, BinOp):
        fn = _BINOPS.get(expr.op)
        if fn is None:
            raise ValueError(f"unsupported operator {expr.op!r}")
        return fn(
            evaluate(expr.left, packet, params),
            evaluate(expr.right, packet, params),
        )
    if isinstance(expr, HashExpr):
        values = []
        for ref in expr.fields:
            value = packet.read(ref)
            if not isinstance(value, int):
                raise TypeError(f"hash input {ref!r} is not an integer field")
            values.append(value)
        return mask_to_width(flow_hash(values), expr.width)
    raise TypeError(f"not an expression: {expr!r}")


# --------------------------------------------------------------------------
# Primitive operations
# --------------------------------------------------------------------------


@dataclass
class ActionContext:
    """Everything an op may touch: the packet, bound params, the
    matched entry, and (for stateful externs) the device."""

    packet: Packet
    params: Dict[str, int] = field(default_factory=dict)
    entry: Optional[object] = None  # TableEntry; avoids a circular import
    device: Optional[object] = None  # the hosting switch (extern store)


@dataclass(frozen=True)
class SetField:
    """``dest = expr`` -- the workhorse primitive."""

    dest: str
    expr: Expr

    def execute(self, ctx: ActionContext) -> None:
        # Widths are enforced by Packet.write via HeaderInstance.set.
        ctx.packet.write(self.dest, evaluate(self.expr, ctx.packet, ctx.params))


@dataclass(frozen=True)
class RemoveHeaderOp:
    """Invalidate (pop) a header instance."""

    header: str

    def execute(self, ctx: ActionContext) -> None:
        ctx.packet.remove_header(self.header)


@dataclass(frozen=True)
class CountAndMark:
    """Increment the matched entry's counter; mark once it exceeds a
    threshold.  This is the C3 flow-probe primitive.  A failing op (no
    matched entry, an unbound threshold) leaves the counter as it was."""

    threshold_param: str
    dest: str

    def execute(self, ctx: ActionContext) -> None:
        entry = ctx.entry
        if entry is None:
            raise RuntimeError("count_and_mark requires a matched table entry")
        threshold = ctx.params.get(self.threshold_param)
        if threshold is None:
            raise KeyError(
                f"action parameter {self.threshold_param!r} not bound"
            )
        entry.counter += 1  # type: ignore[attr-defined]
        if entry.counter > threshold:  # type: ignore[attr-defined]
            ctx.packet.write(self.dest, 1)


@dataclass(frozen=True)
class SketchUpdate:
    """Count this packet's key in a device-resident count-min sketch
    and write the min-estimate to ``dest`` (heavy-hitter detection)."""

    sketch: str
    fields: Tuple[str, ...]
    dest: str

    def execute(self, ctx: ActionContext) -> None:
        device = ctx.device
        if device is None or not hasattr(device, "externs"):
            raise RuntimeError(
                "sketch_update requires a device with an extern store"
            )
        values = []
        for ref in self.fields:
            value = ctx.packet.read(ref)
            if not isinstance(value, int):
                raise TypeError(f"sketch key {ref!r} is not an integer field")
            values.append(value)
        estimate = device.externs.sketch(self.sketch).update(values)
        ctx.packet.write(self.dest, estimate)


@dataclass(frozen=True)
class MarkAbove:
    """``dest = 1`` when ``src`` exceeds a threshold parameter."""

    src: str
    threshold_param: str
    dest: str

    def execute(self, ctx: ActionContext) -> None:
        threshold = ctx.params.get(self.threshold_param)
        if threshold is None:
            raise KeyError(
                f"action parameter {self.threshold_param!r} not bound"
            )
        value = ctx.packet.read(self.src)
        if not isinstance(value, int):
            raise TypeError(f"mark_above source {self.src!r} is not an int")
        if value > threshold:
            ctx.packet.write(self.dest, 1)


@dataclass(frozen=True)
class Police:
    """Meter this packet against a device token bucket; write 1 to
    ``dest`` when it exceeds the configured rate.  Pointing ``dest``
    at ``meta.drop`` polices (drops red); pointing it at a user field
    merely colors the packet for downstream stages."""

    meter: str
    dest: str

    def execute(self, ctx: ActionContext) -> None:
        device = ctx.device
        if device is None or not hasattr(device, "meters"):
            raise RuntimeError("police requires a device with a meter bank")
        tick = getattr(device, "clock", 0)
        color = device.meters.meter(self.meter).color(tick)
        if color == "red":
            ctx.packet.write(self.dest, 1)


@dataclass(frozen=True)
class PyPrimitive:
    """Extern escape hatch: a named Python callable.

    Behavioral-model equivalents of hardware primitives too rich for
    the expression language (SRv6 END processing, encap/decap).
    """

    name: str
    fn: Callable[[ActionContext], None]

    def execute(self, ctx: ActionContext) -> None:
        self.fn(ctx)


Op = Union[SetField, RemoveHeaderOp, CountAndMark, SketchUpdate, MarkAbove, Police, PyPrimitive]


# --------------------------------------------------------------------------
# Actions
# --------------------------------------------------------------------------


@dataclass
class ActionDef:
    """A named action: typed parameters plus a list of primitive ops."""

    name: str
    params: List[Tuple[str, int]] = field(default_factory=list)  # (name, width)
    ops: List[Op] = field(default_factory=list)

    def param_names(self) -> List[str]:
        return [name for name, _ in self.params]

    def execute(
        self,
        packet: Packet,
        action_data: Dict[str, int],
        entry: Optional[object] = None,
        device: Optional[object] = None,
    ) -> None:
        """Run all ops; action data is truncated to declared widths."""
        bound: Dict[str, int] = {}
        for name, width in self.params:
            if name not in action_data:
                raise KeyError(
                    f"action {self.name!r} missing parameter {name!r}"
                )
            bound[name] = mask_to_width(action_data[name], width)
        ctx = ActionContext(packet=packet, params=bound, entry=entry, device=device)
        for op in self.ops:
            op.execute(ctx)


NO_ACTION = ActionDef("NoAction", [], [])


def drop_action() -> ActionDef:
    """The standard drop action: sets the intrinsic drop flag."""
    return ActionDef("drop", [], [SetField("meta.drop", Const(1))])


def mark_to_cpu_action() -> ActionDef:
    """Punt-to-controller action used by telemetry probes."""
    return ActionDef("mark_to_cpu", [], [SetField("meta.to_cpu", Const(1))])
