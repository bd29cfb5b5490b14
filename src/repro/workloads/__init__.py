"""Workload generation: packet builders and trace generators.

The authors measured their FPGA prototype with a hardware traffic
generator; the behavioral reproduction replays synthetic traces built
here.  Addresses track the reference topology in
:mod:`repro.programs.base_l2l3` so every packet actually exercises the
FIB/nexthop/rewrite path rather than falling through to drops.
"""

from repro.workloads.builders import (
    ipv4_packet,
    ipv6_packet,
    l2_packet,
    srv6_packet,
)
from repro.workloads.traces import (
    ecmp_trace,
    mixed_l3_trace,
    probe_trace,
    srv6_trace,
    use_case_trace,
)


def replay(switch, trace, meter=None):
    """Replay a ``(data, port)`` trace through a switch's batch front
    door (:func:`repro.dp.frontdoor.inject_batch`).

    Returns the :class:`repro.dp.frontdoor.BatchResult`, one slot per
    packet -- equivalent to, but much cheaper than, N ``inject`` calls.
    """
    if meter is not None:
        return switch.inject_batch(trace, meter)
    return switch.inject_batch(trace)


__all__ = [
    "ecmp_trace",
    "ipv4_packet",
    "ipv6_packet",
    "l2_packet",
    "mixed_l3_trace",
    "probe_trace",
    "replay",
    "srv6_packet",
    "srv6_trace",
    "use_case_trace",
]
