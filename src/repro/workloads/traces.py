"""Trace generators over the reference topology.

Every generator returns a list of ``(packet_bytes, ingress_port)``
pairs ready for ``switch.inject``.  Flow populations follow a Zipf
distribution (numpy's sampler) to resemble real traffic skew.  Without
numpy the same draws come from :mod:`random`: the same shapes, other
streams, so the scalar dataplane stays testable on a numpy-less box.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on no-NumPy CI legs
    np = None

from repro.net.addresses import format_ipv4, parse_ipv4
from repro.programs.srv6 import LOCAL_SIDS
from repro.workloads.builders import ipv4_packet, ipv6_packet, srv6_packet

Trace = List[Tuple[bytes, int]]


class _PyRng:
    """The ``numpy.random.Generator`` draws used below, from
    :mod:`random` (``zipf``: Devroye's rejection method, as numpy's)."""

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed).random

    def random(self, size: int) -> List[float]:
        return [self._random() for _ in range(size)]

    def integers(self, low: int, high: int, size: int) -> List[int]:
        return [low + int(u * (high - low)) for u in self.random(size)]

    def zipf(self, a: float, size: int) -> List[int]:
        out: List[int] = []
        b = 2.0 ** (a - 1.0)
        while len(out) < size:
            x = math.floor((1.0 - self._random()) ** (-1.0 / (a - 1.0)))
            t = (1.0 + 1.0 / x) ** (a - 1.0)
            if self._random() * x * (t - 1.0) / (b - 1.0) <= t / b:
                out.append(x)
        return out


def _rng(seed: int):
    return _PyRng(seed) if np is None else np.random.default_rng(seed)


def _zipf_indices(rng, n: int, population: int, a: float) -> List[int]:
    return [(int(raw) - 1) % population for raw in rng.zipf(a, size=n)]


def mixed_l3_trace(
    n_packets: int = 1000,
    v4_ratio: float = 0.7,
    flows: int = 64,
    zipf_a: float = 1.3,
    seed: int = 7,
) -> Trace:
    """IPv4/IPv6 mix toward the two routed networks (the C1 workload
    shape: traffic that resolves through FIB -> nexthop/ECMP)."""
    if not 0.0 <= v4_ratio <= 1.0:
        raise ValueError("v4_ratio must be within [0, 1]")
    rng = _rng(seed)
    flow_ids = _zipf_indices(rng, n_packets, flows, zipf_a)
    v4_draws = rng.random(n_packets)
    base_v4 = parse_ipv4("10.2.0.0")
    trace: Trace = []
    for i in range(n_packets):
        flow = int(flow_ids[i])
        port = flow % 2  # hosts live on ports 0-1
        sport = 1024 + flow
        if v4_draws[i] < v4_ratio:
            dst = format_ipv4(base_v4 + 1 + flow)
            data = ipv4_packet("10.1.0.1", dst, sport=sport)
        else:
            dst = f"2001:db8:2::{flow + 1:x}"
            data = ipv6_packet("2001:db8:1::1", dst, sport=sport)
        trace.append((data, port))
    return trace


def ecmp_trace(
    n_packets: int = 1000, flows: int = 256, seed: int = 11
) -> Trace:
    """Many distinct flows to one network, to exercise ECMP spreading."""
    rng = _rng(seed)
    flow_ids = rng.integers(0, flows, size=n_packets)
    base = parse_ipv4("10.2.0.0")
    return [
        (
            ipv4_packet(
                "10.1.0.1",
                format_ipv4(base + 1 + int(flow)),
                sport=2048 + int(flow),
            ),
            0,
        )
        for flow in flow_ids
    ]


def srv6_trace(
    n_packets: int = 1000,
    endpoint_ratio: float = 0.5,
    seed: int = 13,
) -> Trace:
    """SRv6 traffic: a mix of packets visiting this node's SID
    (endpoint / End behavior) and SR transit traffic."""
    rng = _rng(seed)
    endpoint_draws = rng.random(n_packets)
    trace: Trace = []
    for i in range(n_packets):
        if endpoint_draws[i] < endpoint_ratio:
            # Active SID is ours; next segment routes to network 2.
            data = srv6_packet(
                src="2001:db8:9::1",
                active_sid=LOCAL_SIDS[0],
                segments=["2001:db8:2::1", LOCAL_SIDS[0]],
                segments_left=1,
            )
        else:
            # Transit: outer DA is a remote SID we only forward toward.
            data = srv6_packet(
                src="2001:db8:9::1",
                active_sid="2001:db8:1::77",
                segments=["2001:db8:2::1", "2001:db8:1::77"],
                segments_left=1,
            )
        trace.append((data, i % 2))
    return trace


def probe_trace(
    n_packets: int = 1000,
    probed_ratio: float = 0.3,
    seed: int = 17,
) -> Trace:
    """IPv4 traffic where a fraction belongs to the probed flow
    (10.1.0.1 -> 10.2.0.1), the rest to unprobed flows."""
    rng = _rng(seed)
    probed_draws = rng.random(n_packets)
    trace: Trace = []
    for i in range(n_packets):
        if probed_draws[i] < probed_ratio:
            data = ipv4_packet("10.1.0.1", "10.2.0.1", sport=5000)
        else:
            data = ipv4_packet("10.1.0.1", f"10.2.1.{(i % 250) + 1}", sport=6000 + (i % 100))
        trace.append((data, 0))
    return trace


def use_case_trace(case: str, n_packets: int = 1000, seed: int = 23) -> Trace:
    """The per-use-case workload used by the throughput benches."""
    if case == "C1":
        return ecmp_trace(n_packets, seed=seed)
    if case == "C2":
        return srv6_trace(n_packets, seed=seed)
    if case == "C3":
        return probe_trace(n_packets, seed=seed)
    raise ValueError(f"unknown use case {case!r} (expected C1/C2/C3)")
