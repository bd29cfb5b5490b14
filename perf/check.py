"""Output checking: a forwarding oracle, conservation, golden digests.

The oracle is written from the reference topology (which next hop a
destination resolves to, which MACs and port that next hop means), not
from the program's code, so it notices a packet that leaves the wrong
port or with the wrong bytes on any seed.  It leaves the IPv4 header
checksum unchecked: the base design decrements the TTL without
re-summing, and whether it should is not this benchmark's call.

For the default seed a SHA-256 over every output of the first pass must
also equal the digest committed in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.net.addresses import parse_ipv4, parse_ipv6, parse_mac
from repro.programs.base_l2l3 import BD_SMACS, NEXTHOP_MACS
from repro.programs.ecmp import ECMP_MEMBERS
from repro.programs.srv6 import LOCAL_SIDS

GOLDEN_PATH = Path(__file__).with_name("golden.json")

ETH_IPV4 = b"\x08\x00"
ETH_IPV6 = b"\x86\xdd"


def _mac(text: str) -> bytes:
    return parse_mac(text).to_bytes(6, "big")


#: next hop id -> (egress bridge domain, egress port), as populate_base_tables
#: wires the reference topology.
NEXTHOP_EGRESS = {1: (2, 2), 2: (2, 3), 3: (1, 1)}


class Expect(NamedTuple):
    """What one offered packet must look like on the way out."""

    #: Allowed destination MAC -> the port that MAC leaves by (ECMP allows
    #: any member; everything else exactly one).
    port_by_dmac: Dict[bytes, int]
    smac: bytes
    #: Expected bytes from the EtherType on.
    tail: bytes
    ipv4: bool

    def matches(self, port: int, data: bytes) -> bool:
        if self.port_by_dmac.get(data[:6]) != port or data[6:12] != self.smac:
            return False
        tail = self.tail
        if self.ipv4:  # bytes 24..25 of the frame are the header checksum
            return data[12:24] == tail[:12] and data[26:] == tail[14:]
        return data[12:] == tail


class Fib:
    """Longest-prefix oracle over the routes the benchmark installed."""

    def __init__(self) -> None:
        self.v4: Dict[int, Dict[int, int]] = {}
        self.v6: Dict[int, Dict[int, int]] = {}
        # populate_base_tables' routes.
        self.add_v4(parse_ipv4("10.1.0.0"), 16, 1)
        self.add_v4(parse_ipv4("10.2.0.0"), 16, 2)
        self.add_v4(0, 0, 3)
        self.add_v4(parse_ipv4("10.1.0.1"), 32, 1)
        self.add_v6(parse_ipv6("2001:db8:1::"), 48, 1)
        self.add_v6(parse_ipv6("2001:db8:2::"), 48, 2)
        self.add_v6(parse_ipv6("2001:db8:1::1"), 128, 1)

    def add_v4(self, value: int, plen: int, nexthop: int) -> None:
        self.v4.setdefault(plen, {})[value >> (32 - plen) if plen else 0] = nexthop

    def add_v6(self, value: int, plen: int, nexthop: int) -> None:
        self.v6.setdefault(plen, {})[value >> (128 - plen) if plen else 0] = nexthop

    @staticmethod
    def _lookup(table, address: int, width: int) -> Optional[int]:
        for plen in sorted(table, reverse=True):  # <= 15 lengths, per flow
            hit = table[plen].get(address >> (width - plen) if plen else 0)
            if hit is not None:
                return hit
        return None

    def nexthop(self, data: bytes) -> Optional[int]:
        if data[12:14] == ETH_IPV4:
            return self._lookup(self.v4, int.from_bytes(data[30:34], "big"), 32)
        if data[12:14] == ETH_IPV6:
            return self._lookup(self.v6, int.from_bytes(data[38:54], "big"), 128)
        return None


def _aged(data: bytes, hops: int) -> Tuple[bytes, bool]:
    """Bytes from the EtherType on, TTL / hop limit lowered by ``hops``."""
    ipv4 = data[12:14] == ETH_IPV4
    at = 22 if ipv4 else 21
    return data[12:at] + bytes([data[at] - hops]) + data[at + 1:], ipv4


def expect_routed(data: bytes, fib: Fib) -> Expect:
    """One routed hop through a base-design device."""
    nexthop = fib.nexthop(data)
    if nexthop is None:
        raise ValueError("benchmark generated an unroutable packet")
    bd, port = NEXTHOP_EGRESS[nexthop]
    tail, ipv4 = _aged(data, 1)
    return Expect({_mac(NEXTHOP_MACS[nexthop]): port}, _mac(BD_SMACS[bd]), tail,
                  ipv4)


def expect_ecmp(data: bytes) -> Expect:
    """C1 live: any equal-cost member, with that member's port."""
    tail, ipv4 = _aged(data, 1)
    members = {_mac(mac): port for _bd, mac, port in ECMP_MEMBERS}
    return Expect(members, _mac(BD_SMACS[2]), tail, ipv4)


LOCAL_SID_BYTES = frozenset(parse_ipv6(sid).to_bytes(16, "big") for sid in LOCAL_SIDS)


def expect_srv6(data: bytes, fib: Fib) -> Expect:
    """C2 live.  End behaviour when the outer destination is one of the
    node's SIDs: segments_left - 1, the destination becomes that
    segment, then route on it.  Anything else is transit: plain routing."""
    if data[38:54] in LOCAL_SID_BYTES:
        left = data[57] - 1
        segment = data[62 + 16 * left:78 + 16 * left]
        data = data[:38] + segment + data[54:57] + bytes([left]) + data[58:]
    return expect_routed(data, fib)


def expect_line(data: bytes, hops: int) -> Expect:
    """The 4-node line: every hop routes next hop 2 out of port 3."""
    tail, ipv4 = _aged(data, hops)
    return Expect({_mac(NEXTHOP_MACS[2]): 3}, _mac(BD_SMACS[2]), tail, ipv4)


def expects_for(trace, expect: Callable[[bytes], Expect]) -> List[Expect]:
    """One expectation per offered packet.  Flows repeat, so each
    distinct packet is worked out once (set-up time is a metric too)."""
    known: Dict[bytes, Expect] = {}
    expects = []
    for data, _port in trace:
        hit = known.get(data)
        if hit is None:
            hit = known[data] = expect(data)
        expects.append(hit)
    return expects


# -- comparing a pass ---------------------------------------------------


def count_device_misses(outputs: Iterable, expects: Sequence[Expect]) -> int:
    """Outputs of ``inject_batch`` that are missing, punted or wrong."""
    misses = 0
    for out, expect in zip(outputs, expects):
        if out is None or out.to_cpu or not expect.matches(out.port, out.data):
            misses += 1
    return misses


def count_fabric_misses(deliveries: Iterable, expects: Sequence[Expect],
                        offered: Sequence[Tuple[bytes, int]],
                        path: Tuple[str, ...]) -> int:
    """Deliveries that are missing, left elsewhere than the far edge,
    took another path, or differ in length or bytes from the offer."""
    misses = 0
    for delivery, expect, (data, _port) in zip(deliveries, expects, offered):
        if (
            delivery is None
            or delivery.node != path[-1]
            or delivery.hops != len(path)
            or delivery.path != path
            or len(delivery.data) != len(data)
            or not expect.matches(delivery.port, delivery.data)
        ):
            misses += 1
    return misses


def count_changed(outputs: Iterable, reference: Sequence[Tuple[int, bytes]]) -> int:
    """Outputs of a later pass that differ from the verified first pass."""
    misses = 0
    for out, ref in zip(outputs, reference):
        if out is None or (out.port, out.data) != ref:
            misses += 1
    return misses


def reference_of(outputs: Iterable) -> List[Tuple[int, bytes]]:
    return [(-1, b"") if out is None else (out.port, out.data) for out in outputs]


def digest(reference: Iterable[Tuple[int, bytes]]) -> str:
    """SHA-256 over ``(port, bytes)`` of every output, in offer order."""
    sha = hashlib.sha256()
    for port, data in reference:
        sha.update(port.to_bytes(2, "big", signed=True))
        sha.update(len(data).to_bytes(4, "big"))
        sha.update(data)
    return sha.hexdigest()


# -- conservation -------------------------------------------------------


def device_conservation(name: str, switch) -> List[str]:
    """``in == forwarded + dropped`` on one device (unicast traffic)."""
    seen, out, dropped = switch.packets_in, switch.packets_out, switch.packets_dropped
    if seen != out + dropped:
        return [f"{name}: packets_in {seen} != out {out} + dropped {dropped}"]
    return []


def fabric_conservation(fabric) -> List[str]:
    stats = fabric.stats
    if stats.injected != stats.delivered + stats.dropped + stats.loops_cut:
        return [
            f"fabric: injected {stats.injected} != delivered {stats.delivered}"
            f" + dropped {stats.dropped} + loops_cut {stats.loops_cut}"
        ]
    return []


# -- golden -------------------------------------------------------------


def golden_key(seed: int, quick: bool) -> str:
    return f"seed{seed}-{'quick' if quick else 'full'}"


def load_golden(path: Path) -> Dict[str, Dict[str, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_golden(workload: str, seed: int, quick: bool, got: str) -> List[str]:
    """Empty when the digest matches or this seed has no golden."""
    want = load_golden(GOLDEN_PATH).get(golden_key(seed, quick), {}).get(workload)
    if want is None or want == got:
        return []
    return [f"golden digest mismatch: want {want[:16]}.. got {got[:16]}.."]
