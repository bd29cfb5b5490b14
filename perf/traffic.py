"""Seeded traffic: everything the program is offered comes from here.

Built from ``random.Random(seed)`` and the public packet builders only;
the program sees nothing but the bytes.  Mixes are exact by packet count
(then shuffled), so a different seed moves which flows are heavy, never
the share of traffic on each path.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.net.addresses import format_ipv4, parse_ipv4
from repro.programs.flowprobe import PROBED_FLOWS
from repro.programs.int_telemetry import WATCHED_FLOWS
from repro.programs.srv6 import LOCAL_SIDS
from repro.workloads.builders import ipv4_packet, ipv6_packet, srv6_packet

Trace = List[Tuple[bytes, int]]

V4_SHARE = 0.7
FLOWS = 1024
#: IPv6/UDP with no payload; IPv4 is padded up to the same frame.
MIN_FRAME = 62
ROUTED_NET = parse_ipv4("10.2.0.0")


def stream(seed: int, name: str) -> random.Random:
    """An independent generator per purpose, so adding a draw to one
    trace never shifts another."""
    return random.Random(f"{seed}/{name}")


def extra_routes(rng: random.Random, count: int) -> List[Tuple[int, int, int]]:
    """``count`` distinct random /18../30 prefixes under 10.2/16, each
    with a next hop: ``(value, prefix_len, nexthop)``."""
    routes = {}
    while len(routes) < count:
        plen = rng.randint(18, 30)
        host = rng.getrandbits(16) >> (32 - plen) << (32 - plen)
        routes.setdefault((ROUTED_NET | host, plen), rng.choice((1, 2, 3)))
    return [(value, plen, nh) for (value, plen), nh in routes.items()]


def _skewed(rng: random.Random, flows: list, count: int) -> list:
    """``count`` draws with the discrete Pareto (Zipf, s = 1) skew: flow
    ``r`` is 1/(r+1) as likely as flow 0, so the heaviest of 700 flows
    carries ~14% of the packets and no single flow decides a run."""
    weights = [1.0 / (rank + 1) for rank in range(len(flows))]
    return rng.choices(flows, weights=weights, k=count)


def l3_trace(rng: random.Random, packets: int, frame: int = MIN_FRAME,
             flows: int = FLOWS) -> Trace:
    """70/30 IPv4/IPv6 towards the routed networks, Pareto-skewed over
    ``flows`` flows; ingress port follows the flow."""
    n_v4_flows = round(flows * V4_SHARE)
    v4 = [
        (
            ipv4_packet(
                f"10.1.{1 + flow % 200}.{1 + flow // 200}",
                format_ipv4(ROUTED_NET + rng.getrandbits(16)),
                sport=1024 + flow,
                payload=bytes(frame - 42),
            ),
            flow % 2,
        )
        for flow in range(n_v4_flows)
    ]
    v6 = [
        (
            ipv6_packet(
                f"2001:db8:1::{0x100 + flow:x}",
                f"2001:db8:2::{rng.randrange(1, 0x10000):x}",
                sport=1024 + flow,
                payload=bytes(frame - 62),
            ),
            flow % 2,
        )
        for flow in range(flows - n_v4_flows)
    ]
    n_v4 = round(packets * V4_SHARE)
    trace = _skewed(rng, v4, n_v4) + _skewed(rng, v6, packets - n_v4)
    rng.shuffle(trace)
    return trace


def srv6_trace(rng: random.Random, packets: int) -> Trace:
    """Half End (the active SID is ours), half transit, shuffled."""
    trace = []
    for index in range(packets):
        sid = LOCAL_SIDS[0] if index % 2 == 0 else "2001:db8:1::77"
        data = srv6_packet(
            src=f"2001:db8:9::{1 + rng.randrange(64):x}",
            active_sid=sid,
            segments=["2001:db8:2::1", sid],
            segments_left=1,
        )
        trace.append((data, index % 4 // 2))
    rng.shuffle(trace)
    return trace


def line_trace(rng: random.Random, packets: int, sports: int = 256) -> Trace:
    """The INT-watched flow, spread over ``sports`` source ports."""
    src, dst = WATCHED_FLOWS[0]
    flows = [
        ipv4_packet(src, dst, sport=4096 + sport, payload=bytes(MIN_FRAME - 42))
        for sport in range(sports)
    ]
    return [(rng.choice(flows), 0) for _ in range(packets)]


def probe_trace(rng: random.Random, packets: int) -> Trace:
    """C3 traffic: 30% on the probed flow, the rest unprobed."""
    (src, dst), = [pair for pair, limit in PROBED_FLOWS.items() if limit == 5]
    n_probed = round(packets * 0.3)
    probed = ipv4_packet(src, dst, sport=5000, payload=bytes(MIN_FRAME - 42))
    trace = [(probed, 0)] * n_probed
    trace += l3_trace(rng, packets - n_probed, flows=128)
    rng.shuffle(trace)
    return trace


def chunks(trace: Trace, size: int) -> List[Trace]:
    return [trace[at:at + size] for at in range(0, len(trace), size)]
