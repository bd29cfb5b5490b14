"""The fabric walker: one hop-synchronous wavefront over a device set.

A multi-hop fabric is a pipeline over a packet *stream*, so the unit of
work is the batch at a node, not a per-packet call chain.  :func:`walk`
moves every in-flight packet one hop per **wave**: the wave is grouped
by node (groups in first-arrival order, rows in ascending original
index), each group is one ``switch.inject_batch`` call -- so multi-hop
traffic rides the columnar fast path -- and survivors are routed
through ``wires`` into the next wave.

Packets travel as :class:`Leg` s: a :class:`~repro.dp.batch.PacketBatch`
of the rows bound for one node that share one path so far.  A device
takes the merged legs at its node as one batch and hands back the
batch of survivors, which splits by egress port into the next wave's
legs with array selects -- no packet turns back into ``bytes`` between
hops.  ``bytes`` come back only for exits and, as :class:`InFlight` s,
at a shard's frame boundary.

A serial :class:`~repro.runtime.fabric.Fabric` walks every node in one
call; a :class:`~repro.runtime.workers.DeviceWorker` walks its shard,
and a packet whose next node it does not own comes back as a handoff.

**Ordering contract.**  A device sees the packets of one wave in
ascending original index.  That equals the order of a per-packet walk
whenever all packets reach the device at the same hop count; when path
lengths differ, hop-synchronous order *is* the defined semantics
(shorter paths arrive first, as on a real network).  Exits are reported
wave by wave, ascending index within a wave.  Exceptions raised by
``inject_batch`` propagate un-caught.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.dp.batch import PacketBatch
from repro.obs.metrics import MetricsRegistry

Wires = Mapping[Tuple[str, int], Tuple[str, int]]


class InFlight:
    """A packet crossing a shard's frame boundary mid-walk.

    ``index`` is the caller's slot for the result; ``node``/``port``
    name the device and ingress port it enters next -- or, once it has
    left the fabric, the device and egress port it left by.  ``path``
    lists the devices it has traversed, so its length is the hop count.
    """

    __slots__ = ("index", "node", "port", "data", "path")

    def __init__(
        self,
        index: int,
        node: str,
        data: bytes,
        port: int,
        path: Optional[List[str]] = None,
    ) -> None:
        self.index = index
        self.node = node
        self.port = port
        self.data = data
        self.path = [] if path is None else path


class Leg(NamedTuple):
    """Packets bound for ``node`` that have traversed ``path``, as one
    batch whose ``index`` column holds the caller's slots, ascending,
    and whose ``ports`` are the ingress ports at ``node``."""

    node: str
    path: Tuple[str, ...]
    packets: PacketBatch


#: An exit row: ``(index, node, egress port, path, data)``.
Exit = Tuple[int, str, int, Tuple[str, ...], bytes]


class WalkResult(NamedTuple):
    exits: List[Exit]  # left at an edge port, wave by wave
    handoffs: List[Leg]  # next node is not in ``devices``
    dropped: List[int]  # indices a device dropped
    loops: List[int]  # indices cut at ``max_hops``


_FIRST = itemgetter(0)


def legs_of(flights: Iterable[InFlight]) -> List[Leg]:
    """:class:`InFlight` s as legs: one per node and path, rows in
    ascending index."""
    groups: Dict[Tuple[str, Tuple[str, ...]], List[InFlight]] = {}
    for flight in sorted(flights, key=attrgetter("index")):
        groups.setdefault((flight.node, tuple(flight.path)), []).append(flight)
    return [
        Leg(node, path, PacketBatch.from_frames(
            [f.data for f in group], [f.port for f in group],
            [f.index for f in group],
        ))
        for (node, path), group in groups.items()
    ]


def flights_of(legs: Iterable[Leg]) -> List[InFlight]:
    """Legs as :class:`InFlight` s, each with a path list of its own."""
    return [
        InFlight(index, leg.node, data, port, list(leg.path))
        for leg in legs
        for index, data, port in zip(
            leg.packets.tolist(), leg.packets.frames(),
            leg.packets.tolist("ports"),
        )
    ]


def walk(
    legs: Iterable[Leg],
    devices: Mapping[str, object],
    wires: Wires,
    max_hops: int,
    metrics: MetricsRegistry,
) -> WalkResult:
    """Walk ``legs`` wave by wave until each packet exits at an edge,
    drops, exhausts ``max_hops``, or reaches a node outside ``devices``
    (name -> controller).  Per-hop accounting lands in ``metrics`` once
    per ``(node, port)`` group: ``fabric.hop_forwarded{node,port}``,
    ``fabric.hop_dropped{node}``, ``fabric.delivered{node,port}``,
    ``fabric.loops_cut{node}``."""
    result = WalkResult([], [], [], [])
    wave = list(legs)
    while wave:
        exits: List[Leg] = []
        arrivals: Dict[str, List[Leg]] = {}
        for leg in sorted(wave, key=_first_index):
            arrivals.setdefault(leg.node, []).append(leg)
        wave = []
        for node, here in arrivals.items():
            controller = devices.get(node)
            if controller is None:
                result.handoffs.extend(here)
                continue
            live = [leg for leg in here if len(leg.path) < max_hops]
            if len(live) < len(here):
                cut = [
                    index for leg in here if len(leg.path) >= max_hops
                    for index in leg.packets.tolist()
                ]
                result.loops.extend(cut)
                metrics.counter("fabric.loops_cut", node=node).inc(len(cut))
                if not live:
                    continue
            packets, origin = PacketBatch.merge([leg.packets for leg in live])
            out = controller.switch.inject_batch(packets)
            lost = len(packets) - len(out)
            if lost:
                kept = set(out.tolist())
                result.dropped.extend(
                    index for index in packets.tolist() if index not in kept
                )
                metrics.counter("fabric.hop_dropped", node=node).inc(lost)
            if origin is None:
                branches = [(live[0].path, out)]
            else:  # legs with different paths met here
                branches = [
                    (live[k].path, sub)
                    for k, sub in out.split([origin[i] for i in out.tolist()])
                ]
            for path, sub in branches:
                path += (node,)
                for port, sent in sub.split(sub.ports):
                    labels = {"node": node, "port": str(port)}
                    metrics.counter("fabric.hop_forwarded", **labels).inc(len(sent))
                    peer = wires.get((node, port))
                    if peer is None:
                        metrics.counter("fabric.delivered", **labels).inc(len(sent))
                        exits.append(Leg(node, path, sent))
                    else:
                        wave.append(Leg(peer[0], path, sent.at_port(peer[1])))
        landed = [
            row
            for leg in exits
            for row in zip(
                leg.packets.tolist(), repeat(leg.node),
                leg.packets.tolist("ports"), repeat(leg.path),
                leg.packets.frames(),
            )
        ]
        if len(exits) > 1:
            landed.sort(key=_FIRST)
        result.exits.extend(landed)
    return result


def _first_index(leg: Leg) -> int:
    return int(leg.packets.index[0])
