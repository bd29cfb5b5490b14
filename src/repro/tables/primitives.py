"""Named behavioral primitives (the extern library).

rP4 action bodies may call primitives the expression language cannot
express -- SRv6 endpoint processing, TTL decrement, header push/pop.
The compiler lowers each call to a :class:`PyPrimitive` looked up in
this registry, mirroring how bmv2 binds P4 externs to C++ code.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.net.headers import (
    INT_ETHERTYPE,
    SRH,
    HeaderInstance,
    int_hop_records,
    int_push_hop,
    srh_capacity,
    srh_segment,
)
from repro.tables.actions import ActionContext, PyPrimitive


def prim_drop(ctx: ActionContext) -> None:
    """Set the intrinsic drop flag."""
    ctx.packet.metadata["drop"] = 1


def prim_mark_to_cpu(ctx: ActionContext) -> None:
    """Punt a copy of the packet to the controller."""
    ctx.packet.metadata["to_cpu"] = 1


def prim_no_op(ctx: ActionContext) -> None:
    """Do nothing (placeholder arm)."""


def prim_decrement_ttl(ctx: ActionContext) -> None:
    """Decrement IPv4 TTL or IPv6 hop limit; drop on expiry."""
    packet = ctx.packet
    if packet.is_valid("ipv4"):
        ttl = packet.read("ipv4.ttl")
        assert isinstance(ttl, int)
        if ttl <= 1:
            packet.metadata["drop"] = 1
            packet.write("ipv4.ttl", 0)
        else:
            packet.write("ipv4.ttl", ttl - 1)
    elif packet.is_valid("ipv6"):
        hop = packet.read("ipv6.hop_limit")
        assert isinstance(hop, int)
        if hop <= 1:
            packet.metadata["drop"] = 1
            packet.write("ipv6.hop_limit", 0)
        else:
            packet.write("ipv6.hop_limit", hop - 1)


def _read_segment(srh, index: int) -> int:
    """Read segment ``index`` from either SRH layout.

    The library SRH type carries a variable-length ``segment_list``;
    device programs declare a bounded layout with ``seg0``/``seg1``
    fields (the usual P4 idiom).  Both are supported here.
    """
    if srh.htype.varlen_field == "segment_list":
        return srh_segment(srh, index)
    value = srh.get(f"seg{index}")
    assert isinstance(value, int)
    return value


def _segment_count(srh) -> int:
    """How many segments ``srh`` carries, in either layout."""
    if srh.htype.varlen_field == "segment_list":
        seglist = srh.get("segment_list")
        assert isinstance(seglist, bytes)
        return len(seglist) // 16
    return srh_capacity(srh.htype)


def prim_srv6_end(ctx: ActionContext) -> None:
    """SRv6 End behavior (RFC 8754): advance to the next segment.

    ``segments_left -= 1`` and the IPv6 destination becomes
    ``segment_list[segments_left]``.  Packets with no segments left
    are dropped (no USP/PSP flavors in the behavioral model), and so
    are packets whose ``segments_left`` points past the segment list
    (RFC 8754 Sec. 4.3.1.1 discards them).
    """
    packet = ctx.packet
    if not (packet.is_valid("srh") and packet.is_valid("ipv6")):
        packet.metadata["drop"] = 1
        return
    srh = packet.header("srh")
    left = srh.get("segments_left")
    assert isinstance(left, int)
    if not 0 < left <= _segment_count(srh):
        packet.metadata["drop"] = 1
        return
    left -= 1
    srh.set("segments_left", left)
    packet.write("ipv6.dst_addr", _read_segment(srh, left))


def prim_srv6_transit(ctx: ActionContext) -> None:
    """SRv6 transit-node behavior: plain IPv6 forwarding of the outer
    header (hop limit handled by the rewrite stage); nothing to do to
    the SRH itself."""


def prim_pop_srh(ctx: ActionContext) -> None:
    """Remove the SRH (End.DX-style decap of the routing header).

    Restores ``ipv6.next_hdr`` from the SRH and shrinks the payload
    length accordingly.
    """
    packet = ctx.packet
    if not packet.is_valid("srh"):
        return
    srh = packet.remove_header("srh")
    next_hdr = srh.get("next_hdr")
    assert isinstance(next_hdr, int)
    srh_bytes = srh.htype.bit_length(srh.values) // 8
    if packet.is_valid("ipv6"):
        packet.write("ipv6.next_hdr", next_hdr)
        plen = packet.read("ipv6.payload_len")
        assert isinstance(plen, int)
        packet.write("ipv6.payload_len", max(0, plen - srh_bytes))


def prim_push_srh(ctx: ActionContext) -> None:
    """Insert an empty SRH after the outer IPv6 header (encap shell).

    Segment lists are populated by the controller in the behavioral
    model; this primitive only splices the header and fixes linkage
    fields.
    """
    packet = ctx.packet
    if not packet.is_valid("ipv6") or packet.is_valid("srh"):
        return
    old_next = packet.read("ipv6.next_hdr")
    assert isinstance(old_next, int)
    srh = HeaderInstance(
        SRH,
        {
            "next_hdr": old_next,
            "hdr_ext_len": 0,
            "routing_type": 4,
            "segments_left": 0,
            "last_entry": 0,
            "segment_list": b"",
        },
    )
    packet.insert_header(srh, after="ipv6")
    packet.write("ipv6.next_hdr", 43)
    plen = packet.read("ipv6.payload_len")
    assert isinstance(plen, int)
    packet.write("ipv6.payload_len", plen + 8)


def _device_header_types(device):
    """Header-type dictionary of either switch family (IPSA keeps it
    on the device, PISA on its front-end parser)."""
    types = getattr(device, "header_types", None)
    if types is not None:
        return types
    parser = getattr(device, "parser", None)
    return getattr(parser, "header_types", None)


def _int_timestamps_ns(ctx: ActionContext) -> tuple:
    """(ingress, egress) nanosecond stamps for this hop.

    Ingress comes from the front-door stamp (written when the device
    has INT enabled); egress reads the device's INT clock now.  With
    no clock attached both fall back to 0 -- the record still carries
    switch id / queue depth / epoch.
    """
    packet = ctx.packet
    clock = getattr(ctx.device, "int_clock", None)
    egress = int(clock.now() * 1e9) if clock is not None else 0
    ingress = packet.metadata.get("ingress_ts_ns")
    if not isinstance(ingress, int):
        ingress = egress
    return ingress, egress


def prim_push_int(ctx: ActionContext) -> None:
    """Push one INT hop record (INT-over-L2, paper use case C5).

    Ensures the telemetry shim sits after Ethernet (inserting it on
    the first instrumented hop: ``orig_ethertype`` preserves the
    displaced EtherType, the wire EtherType becomes
    :data:`INT_ETHERTYPE`), then appends this switch's hop record
    ``{switch_id, ingress_ts, egress_ts, queue_depth, dp_epoch}`` to
    the stack and bumps ``hop_count``.  The switch id arrives as the
    enclosing action's ``switch_id`` parameter (table action data).
    """
    packet = ctx.packet
    device = ctx.device
    types = _device_header_types(device)
    if device is None or types is None:
        raise RuntimeError("push_int requires a device with header types")
    shim_type = types.get("int_shim")
    if shim_type is None or not packet.is_valid("ethernet"):
        packet.metadata["drop"] = 1
        return
    if not packet.is_valid("int_shim"):
        orig = packet.read("ethernet.ethertype")
        assert isinstance(orig, int)
        shim = HeaderInstance(
            shim_type,
            {"orig_ethertype": orig, "hop_count": 0, "hop_stack": b""},
            "int_shim",
        )
        packet.insert_header(shim, after="ethernet")
        packet.write("ethernet.ethertype", INT_ETHERTYPE)
    ingress, egress = _int_timestamps_ns(ctx)
    tm = getattr(getattr(device, "pipeline", None), "tm", None)
    dp = getattr(device, "dp", None)
    int_push_hop(
        packet.header("int_shim"),
        {
            "switch_id": ctx.params.get("switch_id", 0),
            "ingress_ts": ingress,
            "egress_ts": egress,
            "queue_depth": tm.occupancy() if tm is not None else 0,
            "dp_epoch": getattr(dp, "epoch", 0),
        },
    )


def prim_pop_int(ctx: ActionContext) -> None:
    """Strip the INT shim at a sink: restore the original EtherType
    and hand the hop stack to the device's collector (if attached)."""
    packet = ctx.packet
    if not packet.is_valid("int_shim"):
        return
    shim = packet.remove_header("int_shim")
    orig = shim.get("orig_ethertype")
    assert isinstance(orig, int)
    packet.write("ethernet.ethertype", orig)
    collector = getattr(ctx.device, "int_collector", None)
    if collector is not None:
        collector.observe_strip(
            packet,
            int_hop_records(shim),
            node=getattr(ctx.device, "int_node", None),
        )


#: Registry consumed by the action-lowering pass of the compilers.
PRIMITIVES: Dict[str, Callable[[ActionContext], None]] = {
    "drop": prim_drop,
    "mark_to_cpu": prim_mark_to_cpu,
    "no_op": prim_no_op,
    "decrement_ttl": prim_decrement_ttl,
    "srv6_end": prim_srv6_end,
    "srv6_transit": prim_srv6_transit,
    "pop_srh": prim_pop_srh,
    "push_srh": prim_push_srh,
    "push_int": prim_push_int,
    "pop_int": prim_pop_int,
}


def primitive(name: str) -> PyPrimitive:
    """Look up a primitive by name and wrap it as an action op."""
    try:
        return PyPrimitive(name, PRIMITIVES[name])
    except KeyError:
        raise KeyError(f"unknown primitive {name!r}") from None
