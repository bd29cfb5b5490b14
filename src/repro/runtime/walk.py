"""The fabric walker: one hop-synchronous wavefront over a device set.

A multi-hop fabric is a pipeline over a packet *stream*, so the unit of
work is the batch at a node, not a per-packet call chain.  :func:`walk`
moves every in-flight packet one hop per **wave**: the wave is grouped
by node (groups in first-arrival order, rows in ascending original
index), each group is one ``switch.inject_batch`` call -- so multi-hop
traffic rides the columnar fast path -- and survivors are routed
through ``wires`` into the next wave.

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

from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

Wires = Mapping[Tuple[str, int], Tuple[str, int]]


class InFlight:
    """A packet mid-walk: where it is and where it has been.

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


class WalkResult(NamedTuple):
    exits: List[InFlight]  # left at an edge port
    handoffs: List[InFlight]  # next node is not in ``devices``
    dropped: List[int]  # indices a device dropped
    loops: List[int]  # indices cut at ``max_hops``


_BY_INDEX = attrgetter("index")


def walk(
    flights: Iterable[InFlight],
    devices: Mapping[str, object],
    wires: Wires,
    max_hops: int,
    metrics: MetricsRegistry,
) -> WalkResult:
    """Walk ``flights`` wave by wave until each one exits at an edge,
    drops, exhausts ``max_hops``, or reaches a node outside ``devices``
    (name -> controller).  Per-hop accounting lands in ``metrics`` once
    per ``(node, port)`` group: ``fabric.hop_forwarded{node,port}``,
    ``fabric.hop_dropped{node}``, ``fabric.delivered{node,port}``,
    ``fabric.loops_cut{node}``."""
    result = WalkResult([], [], [], [])
    wave = list(flights)
    while wave:
        wave.sort(key=_BY_INDEX)
        groups: Dict[str, List[InFlight]] = {}
        for flight in wave:
            groups.setdefault(flight.node, []).append(flight)
        wave = []
        exits: List[InFlight] = []
        for node, group in groups.items():
            controller = devices.get(node)
            if controller is None:
                result.handoffs.extend(group)
                continue
            cut = [f.index for f in group if len(f.path) >= max_hops]
            if cut:
                result.loops.extend(cut)
                metrics.counter("fabric.loops_cut", node=node).inc(len(cut))
                group = [f for f in group if len(f.path) < max_hops]
                if not group:
                    continue
            outputs = controller.switch.inject_batch(
                [(f.data, f.port) for f in group]
            )
            by_port: Dict[int, List[InFlight]] = {}
            for flight, out in zip(group, outputs):
                flight.path.append(node)
                if out is None:
                    result.dropped.append(flight.index)
                else:
                    flight.data = out.data
                    by_port.setdefault(out.port, []).append(flight)
            lost = len(group) - sum(map(len, by_port.values()))
            if lost:
                metrics.counter("fabric.hop_dropped", node=node).inc(lost)
            for port, sent in by_port.items():
                labels = {"node": node, "port": str(port)}
                metrics.counter("fabric.hop_forwarded", **labels).inc(len(sent))
                peer = wires.get((node, port))
                if peer is None:
                    metrics.counter("fabric.delivered", **labels).inc(len(sent))
                    for flight in sent:
                        flight.port = port
                    exits += sent
                else:
                    for flight in sent:
                        flight.node, flight.port = peer
                    wave += sent
        exits.sort(key=_BY_INDEX)
        result.exits.extend(exits)
    return result
