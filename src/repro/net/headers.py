"""Header type definitions and the standard header library.

A :class:`HeaderType` is an ordered list of bit-accurate fields, with
optional support for one variable-length trailing byte field whose
length is computed from already-decoded fields (the SRv6 SRH segment
list, the INT hop stack).  A :class:`HeaderInstance` is a concrete
parsed header: a type plus field values.

Both the PISA front-end parser and IPSA's distributed per-stage
parsers decode packets into these instances; the instances (not the
raw bytes) are what match-action stages read and write, mirroring the
paper's "parsed headers are passed to later pipeline stages" design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.fields import extract_bits, mask_to_width


@dataclass(frozen=True)
class FieldDef:
    """One fixed-width field inside a header type."""

    name: str
    width: int  # bits

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"field {self.name!r} must have positive width")


class HeaderType:
    """An ordered, bit-accurate header layout.

    Parameters
    ----------
    name:
        Type name (e.g. ``"ipv4"``); also the default instance name.
    fields:
        Fixed-width fields in wire order.  Their total width must be a
        multiple of 8 bits when a variable-length field is present.
    varlen_field:
        Optional name of a trailing byte-string field.
    varlen_bytes:
        Callable mapping the decoded fixed-field values to the length
        in bytes of the variable part.
    varlen_count:
        ``(count field, unit bytes)``: the variable part is the value
        of one fixed field times a constant.  Implies ``varlen_bytes``
        and lets a batch parser read the length off one column
        (``repro.dp.columnar`` folds the count into the signature).
    """

    def __init__(
        self,
        name: str,
        fields: List[FieldDef],
        varlen_field: Optional[str] = None,
        varlen_bytes: Optional[Callable[[Dict[str, int]], int]] = None,
        varlen_count: Optional[Tuple[str, int]] = None,
    ) -> None:
        if not fields:
            raise ValueError(f"header type {name!r} needs at least one field")
        if varlen_count is not None:
            if varlen_bytes is not None:
                raise ValueError("give varlen_bytes or varlen_count, not both")
            count_field, unit = varlen_count
            if count_field not in {f.name for f in fields}:
                raise ValueError(
                    f"varlen count {count_field!r} is not a fixed field of {name!r}"
                )

            def varlen_bytes(values, _count=count_field, _unit=unit) -> int:
                return int(values.get(_count, 0)) * _unit

        self.varlen_count = varlen_count
        if (varlen_field is None) != (varlen_bytes is None):
            raise ValueError("varlen_field and varlen_bytes must be given together")
        self.name = name
        self.fields = list(fields)
        self.varlen_field = varlen_field
        self.varlen_bytes = varlen_bytes
        self._widths = {f.name: f.width for f in fields}
        if len(self._widths) != len(fields):
            raise ValueError(f"duplicate field name in header type {name!r}")
        if varlen_field is not None and varlen_field in self._widths:
            raise ValueError(
                f"varlen field {varlen_field!r} collides with a fixed field"
            )
        self.fixed_bits = sum(f.width for f in fields)
        if varlen_field is not None and self.fixed_bits % 8:
            raise ValueError(
                f"header type {name!r}: fixed part must be byte aligned "
                "when a varlen field is present"
            )
        # Precomputed (name, shift, mask, width) per field so unpack
        # and pack shift one whole-header integer instead of running
        # the generic bit helpers once per field (the hot path).
        self._fixed_bytes = (self.fixed_bits + 7) // 8
        self._pad_bits = self._fixed_bytes * 8 - self.fixed_bits
        layout = []
        cursor = self.fixed_bits
        for fdef in fields:
            cursor -= fdef.width
            layout.append(
                (fdef.name, cursor, (1 << fdef.width) - 1, fdef.width)
            )
        self._layout = tuple(layout)

    def field_width(self, field_name: str) -> int:
        """Return the bit width of ``field_name``."""
        try:
            return self._widths[field_name]
        except KeyError:
            raise KeyError(
                f"header type {self.name!r} has no field {field_name!r}"
            ) from None

    def field_names(self) -> List[str]:
        """All field names, fixed fields first, in wire order."""
        names = [f.name for f in self.fields]
        if self.varlen_field is not None:
            names.append(self.varlen_field)
        return names

    def unpack(self, data: bytes, bit_offset: int = 0) -> Tuple[Dict[str, object], int]:
        """Decode one header at ``bit_offset``; return ``(values, bits_consumed)``."""
        chunk = extract_bits(data, bit_offset, self.fixed_bits)
        values: Dict[str, object] = {
            name: (chunk >> shift) & mask
            for name, shift, mask, _width in self._layout
        }
        cursor = bit_offset + self.fixed_bits
        if self.varlen_field is not None:
            assert self.varlen_bytes is not None
            nbytes = self.varlen_bytes({k: v for k, v in values.items() if isinstance(v, int)})
            if nbytes < 0:
                raise ValueError(
                    f"header type {self.name!r}: negative varlen length {nbytes}"
                )
            if cursor % 8:
                raise ValueError(
                    f"header type {self.name!r}: varlen part not byte aligned"
                )
            start = cursor // 8
            if start + nbytes > len(data):
                raise ValueError(
                    f"header type {self.name!r}: varlen part overruns packet"
                )
            values[self.varlen_field] = bytes(data[start : start + nbytes])
            cursor += nbytes * 8
        return values, cursor - bit_offset

    def pack(self, values: Dict[str, object]) -> bytes:
        """Encode field values back to wire bytes."""
        varlen = b""
        if self.varlen_field is not None:
            raw = values.get(self.varlen_field, b"")
            if not isinstance(raw, (bytes, bytearray)):
                raise TypeError(
                    f"field {self.varlen_field!r} of {self.name!r} must be bytes"
                )
            varlen = bytes(raw)
        chunk = 0
        for name, _shift, mask, width in self._layout:
            value = values.get(name, 0)
            if not isinstance(value, int):
                raise TypeError(
                    f"field {name!r} of {self.name!r} must be an int"
                )
            chunk = (chunk << width) | (value & mask)
        chunk <<= self._pad_bits
        return chunk.to_bytes(self._fixed_bytes, "big") + varlen

    def bit_length(self, values: Dict[str, object]) -> int:
        """Total encoded length in bits for the given field values."""
        extra = 0
        if self.varlen_field is not None:
            raw = values.get(self.varlen_field, b"")
            extra = len(raw) * 8  # type: ignore[arg-type]
        return self.fixed_bits + extra

    def __repr__(self) -> str:
        return f"HeaderType({self.name!r}, {len(self.fields)} fields)"


@dataclass
class HeaderInstance:
    """A parsed (or synthesized) header: a type plus field values."""

    htype: HeaderType
    values: Dict[str, object] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.htype.name

    def get(self, field_name: str) -> object:
        """Read a field value (fixed fields default to 0 if unset)."""
        if field_name == self.htype.varlen_field:
            return self.values.get(field_name, b"")
        width = self.htype.field_width(field_name)  # validates the name
        value = self.values.get(field_name, 0)
        if isinstance(value, int):
            return mask_to_width(value, width)
        return value

    def set(self, field_name: str, value: object) -> None:
        """Write a field value, truncating integers to the field width."""
        if field_name == self.htype.varlen_field:
            if not isinstance(value, (bytes, bytearray)):
                raise TypeError(f"field {field_name!r} must be bytes")
            self.values[field_name] = bytes(value)
            return
        width = self.htype.field_width(field_name)
        if not isinstance(value, int):
            raise TypeError(f"field {field_name!r} must be an int")
        self.values[field_name] = mask_to_width(value, width)

    def pack(self) -> bytes:
        """Wire encoding of this instance."""
        return self.htype.pack(self.values)

    def clone(self) -> "HeaderInstance":
        """Deep-enough copy (values dict is copied; the type is shared)."""
        return HeaderInstance(self.htype, dict(self.values), self.name)

    def __repr__(self) -> str:
        return f"HeaderInstance({self.name!r})"


#: Ethertype announcing an INT shim between Ethernet and L3.
INT_ETHERTYPE = 0x1234

#: One INT hop record: switch id, ingress/egress timestamps (ns, 48
#: bits -- wraps after ~3.2 days of monotonic clock, ample for a
#: behavioral model), TM queue depth, and the dataplane plan epoch the
#: packet was forwarded under (the PR 5 txn engine's commit counter).
INT_HOP_FIELDS: Tuple[Tuple[str, int], ...] = (
    ("switch_id", 16),
    ("ingress_ts", 48),
    ("egress_ts", 48),
    ("queue_depth", 16),
    ("dp_epoch", 16),
)
INT_HOP_BYTES = sum(width for _name, width in INT_HOP_FIELDS) // 8


ETHERNET = HeaderType(
    "ethernet",
    [FieldDef("dst_addr", 48), FieldDef("src_addr", 48), FieldDef("ethertype", 16)],
)

VLAN = HeaderType(
    "vlan",
    [
        FieldDef("pcp", 3),
        FieldDef("dei", 1),
        FieldDef("vid", 12),
        FieldDef("ethertype", 16),
    ],
)

IPV4 = HeaderType(
    "ipv4",
    [
        FieldDef("version", 4),
        FieldDef("ihl", 4),
        FieldDef("dscp", 6),
        FieldDef("ecn", 2),
        FieldDef("total_len", 16),
        FieldDef("identification", 16),
        FieldDef("flags", 3),
        FieldDef("frag_offset", 13),
        FieldDef("ttl", 8),
        FieldDef("protocol", 8),
        FieldDef("hdr_checksum", 16),
        FieldDef("src_addr", 32),
        FieldDef("dst_addr", 32),
    ],
)

IPV6 = HeaderType(
    "ipv6",
    [
        FieldDef("version", 4),
        FieldDef("traffic_class", 8),
        FieldDef("flow_label", 20),
        FieldDef("payload_len", 16),
        FieldDef("next_hdr", 8),
        FieldDef("hop_limit", 8),
        FieldDef("src_addr", 128),
        FieldDef("dst_addr", 128),
    ],
)

SRH = HeaderType(
    "srh",
    [
        FieldDef("next_hdr", 8),
        FieldDef("hdr_ext_len", 8),
        FieldDef("routing_type", 8),
        FieldDef("segments_left", 8),
        FieldDef("last_entry", 8),
        FieldDef("flags", 8),
        FieldDef("tag", 16),
    ],
    varlen_field="segment_list",
    # RFC 8754: total ext header length is (hdr_ext_len + 1) * 8 bytes,
    # of which the first 8 are the fixed part.
    varlen_count=("hdr_ext_len", 8),
)

INT_SHIM = HeaderType(
    "int_shim",
    [FieldDef("orig_ethertype", 16), FieldDef("hop_count", 8)],
    varlen_field="hop_stack",
    varlen_count=("hop_count", INT_HOP_BYTES),
)

TCP = HeaderType(
    "tcp",
    [
        FieldDef("src_port", 16),
        FieldDef("dst_port", 16),
        FieldDef("seq_no", 32),
        FieldDef("ack_no", 32),
        FieldDef("data_offset", 4),
        FieldDef("reserved", 4),
        FieldDef("flags", 8),
        FieldDef("window", 16),
        FieldDef("checksum", 16),
        FieldDef("urgent_ptr", 16),
    ],
)

UDP = HeaderType(
    "udp",
    [
        FieldDef("src_port", 16),
        FieldDef("dst_port", 16),
        FieldDef("length", 16),
        FieldDef("checksum", 16),
    ],
)


def standard_header_types() -> Dict[str, HeaderType]:
    """The built-in header library keyed by type name."""
    return {
        h.name: h
        for h in (ETHERNET, VLAN, IPV4, IPV6, SRH, TCP, UDP)
    }


def int_pack_hop(record: Dict[str, int]) -> bytes:
    """Encode one hop record to its :data:`INT_HOP_BYTES` wire form."""
    chunk = 0
    for name, width in INT_HOP_FIELDS:
        chunk = (chunk << width) | mask_to_width(int(record.get(name, 0)), width)
    return chunk.to_bytes(INT_HOP_BYTES, "big")


def int_unpack_hop(data: bytes) -> Dict[str, int]:
    """Decode one :data:`INT_HOP_BYTES`-sized hop record."""
    if len(data) != INT_HOP_BYTES:
        raise ValueError(
            f"hop record must be {INT_HOP_BYTES} bytes, got {len(data)}"
        )
    chunk = int.from_bytes(data, "big")
    values: Dict[str, int] = {}
    for name, width in reversed(INT_HOP_FIELDS):
        values[name] = chunk & ((1 << width) - 1)
        chunk >>= width
    return values


def int_hop_records(instance: HeaderInstance) -> List[Dict[str, int]]:
    """Decode an ``int_shim`` instance's hop stack, oldest hop first."""
    stack = instance.get("hop_stack")
    assert isinstance(stack, bytes)
    count = instance.get("hop_count")
    assert isinstance(count, int)
    if len(stack) != count * INT_HOP_BYTES:
        raise ValueError(
            f"hop stack carries {len(stack)} bytes but hop_count={count} "
            f"declares {count * INT_HOP_BYTES}"
        )
    return [
        int_unpack_hop(stack[i * INT_HOP_BYTES : (i + 1) * INT_HOP_BYTES])
        for i in range(count)
    ]


def int_push_hop(instance: HeaderInstance, record: Dict[str, int]) -> None:
    """Append one hop record to an ``int_shim`` instance (path order:
    the oldest hop stays first) and bump ``hop_count``."""
    stack = instance.get("hop_stack")
    assert isinstance(stack, bytes)
    count = instance.get("hop_count")
    assert isinstance(count, int)
    instance.set("hop_stack", stack + int_pack_hop(record))
    instance.set("hop_count", count + 1)


def srh_segment(instance: HeaderInstance, index: int) -> int:
    """Read segment ``index`` (a 128-bit IPv6 address) from an SRH instance."""
    seglist = instance.get("segment_list")
    assert isinstance(seglist, bytes)
    start = index * 16
    if start + 16 > len(seglist):
        raise IndexError(
            f"segment {index} out of range for SRH with {len(seglist) // 16} segments"
        )
    return int.from_bytes(seglist[start : start + 16], "big")


def srh_capacity(htype: HeaderType) -> int:
    """Most segments an SRH of type ``htype`` can hold.

    A bounded layout (the usual P4 idiom) declares them as ``seg0``,
    ``seg1``, ... fields.  For the library's varbit ``segment_list`` it
    is what the count field can describe -- an upper bound, as the real
    list length is per packet.
    """
    if htype.varlen_field != "segment_list":
        names = {f.name for f in htype.fields}
        count = 0
        while f"seg{count}" in names:
            count += 1
        return count
    if htype.varlen_count is None:
        return 1 << 64  # a length callable: no bound known
    field, unit = htype.varlen_count
    return ((1 << htype.field_width(field)) - 1) * unit // 16


def srh_set_segment(instance: HeaderInstance, index: int, address: int) -> None:
    """Write segment ``index`` of an SRH instance."""
    seglist = instance.get("segment_list")
    assert isinstance(seglist, bytes)
    start = index * 16
    if start + 16 > len(seglist):
        raise IndexError(
            f"segment {index} out of range for SRH with {len(seglist) // 16} segments"
        )
    buf = bytearray(seglist)
    buf[start : start + 16] = address.to_bytes(16, "big")
    instance.set("segment_list", bytes(buf))
