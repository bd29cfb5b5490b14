"""A multi-switch fabric: wire ipbm instances into a topology.

Each switch port is either an edge port (packets exit the fabric) or
wired to a peer switch's port.  ``send_batch`` moves its packets as a
hop-synchronous wavefront (:mod:`repro.runtime.walk`) -- every hop is a
full pipeline traversal on that device, one ``inject_batch`` per node
per hop -- until each exits at an edge or is dropped.  With every node
independently runtime-programmable, this is the "autonomous networks"
setting the paper's introduction sketches: functions can be rolled out
node by node while traffic keeps flowing.

A fabric is **serial** (the default: one in-process owner holds every
node, and every hop runs inline in the calling thread) or **sharded**
(:meth:`Fabric.shard`: the nodes are cut along the wires across
:class:`~repro.runtime.workers.DeviceWorker` shards, each serving
framed byte envelopes on its own thread).  Traffic and staged
rollouts are mode-free: a batch walks in rounds, one walk per owner
(a hop onto another shard's node comes back as a handoff for the
next round), and each rollout step runs the same worker handlers as
one node batch per owner.  Each worker's metric shard snapshots
merge losslessly into :attr:`Fabric.metrics`, so stats, health
rules, and Prometheus export are shard-transparent.

Per-hop delivery accounting flows through :attr:`Fabric.metrics` in
both modes: ``fabric.injected{node}``, ``fabric.hop_forwarded{node,
port}``, ``fabric.hop_dropped{node}``, ``fabric.delivered{node,port}``,
``fabric.loops_cut{node}`` -- so a health rule can target a single
device's forwarding rate instead of only the aggregate
:class:`FabricStats`, and ``injected == delivered + hop_dropped +
loops_cut`` holds on the registry as it does on the stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dp.batch import PacketBatch
from repro.obs.metrics import MetricsRegistry
from repro.runtime.controller import Controller
from repro.runtime.walk import (
    Exit,
    InFlight,
    Leg,
    WalkResult,
    flights_of,
    legs_of,
    walk,
)
from repro.runtime.workers import (
    TRAFFIC_CHUNK,
    DeviceWorker,
    UpdatePlanCache,
    WorkerError,
    merge_shard_into,
    pack_flights,
    unpack_flights,
)


class FabricError(Exception):
    """Raised on malformed topologies."""


class RolloutError(FabricError):
    """A fleet-wide update failed part-way.

    Carries exactly what a production controller needs to reason about
    the blast radius: which nodes committed the new design
    (``updated``), which node failed and why (``failed``/``cause``),
    which committed nodes were automatically rolled back
    (``rolled_back``), and which were never touched (``pending``).
    """

    def __init__(
        self,
        message: str,
        updated: List[str],
        failed: str,
        cause: Exception,
        rolled_back: Optional[List[str]] = None,
        pending: Optional[List[str]] = None,
        report: Optional["RolloutReport"] = None,
    ) -> None:
        super().__init__(
            f"{message}: node {failed!r} failed "
            f"({type(cause).__name__}: {cause}); "
            f"updated={updated} rolled_back={rolled_back or []} "
            f"pending={pending or []}"
        )
        self.updated = list(updated)
        self.failed = failed
        self.cause = cause
        self.rolled_back = list(rolled_back or [])
        self.pending = list(pending or [])
        #: The partial rollout report -- alert transitions and the
        #: flight-recorder dump captured up to the abort live here.
        self.report = report


@dataclass(frozen=True)
class Delivery:
    """Where a packet left the fabric."""

    node: str
    port: int
    data: bytes
    hops: int
    path: Tuple[str, ...]


@dataclass
class FabricStats:
    injected: int = 0
    delivered: int = 0
    dropped: int = 0
    loops_cut: int = 0


class Fabric:
    """Named controllers plus a port-level wiring table."""

    def __init__(self, max_hops: int = 16) -> None:
        if max_hops <= 0:
            raise ValueError("max_hops must be positive")
        self.max_hops = max_hops
        self.nodes: Dict[str, Controller] = {}
        # (node, egress port) -> (peer node, peer ingress port)
        self._wires: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self.stats = FabricStats()
        #: Central registry: per-hop delivery counters plus (when
        #: sharded) every worker's merged metric shard.
        self.metrics = MetricsRegistry()
        # Sharded mode (see shard()): device workers, node -> owner.
        self.workers: List[DeviceWorker] = []
        self._owner: Dict[str, DeviceWorker] = {}
        self.plan_cache: Optional[UpdatePlanCache] = None
        # A serial fabric's one owner: its traffic walks and update
        # handlers run in-process (see _worker_of); never framed.
        self._local = DeviceWorker("local", self.nodes, self._wires, max_hops)
        # Edge-side INT collector (see attach_int_collector): None
        # keeps delivery untouched.
        self.int_collector = None
        self._int_strip = True
        # Streaming health engine (see attach_health): None keeps the
        # legacy one-shot probe gate in staged_rollout.
        self.health = None

    # -- topology -------------------------------------------------------

    def add_node(self, name: str, controller: Controller) -> Controller:
        if name in self.nodes:
            raise FabricError(f"node {name!r} already exists")
        self.nodes[name] = controller
        return controller

    def node(self, name: str) -> Controller:
        try:
            return self.nodes[name]
        except KeyError:
            raise FabricError(f"no node named {name!r}") from None

    def wire(self, a: str, port_a: int, b: str, port_b: int) -> None:
        """Connect two ports bidirectionally."""
        self.node(a)
        self.node(b)
        for end, peer in (
            ((a, port_a), (b, port_b)),
            ((b, port_b), (a, port_a)),
        ):
            if end in self._wires:
                raise FabricError(f"port {end} is already wired")
            self._wires[end] = peer

    def peer(self, node: str, port: int) -> Optional[Tuple[str, int]]:
        return self._wires.get((node, port))

    # -- sharding -------------------------------------------------------

    @property
    def sharded(self) -> bool:
        return bool(self.workers)

    def shard(
        self,
        n_workers: int = 4,
        plan_cache: Optional[UpdatePlanCache] = None,
        start: bool = True,
    ) -> List[DeviceWorker]:
        """Partition the nodes across ``n_workers`` device workers.

        Shards follow the wires: each connected component of the wire
        graph is cut, in BFS order, into ``min(n_workers, size)``
        contiguous near-equal blocks, each going to the least-loaded
        worker (lowest index on a tie) -- unwired nodes are dealt
        round-robin.

        Each worker owns a disjoint set of devices and serves framed
        commands on its own thread; traffic, staged updates, and
        metric snapshots all cross the byte transport.  One
        :class:`UpdatePlanCache` is shared fleet-wide so a rollout
        compiles/lints/verifies once per distinct content.  Pass
        ``start=False`` to drive the workers synchronously
        (deterministic tests).  Returns the workers.
        """
        if self.workers:
            raise FabricError("fabric is already sharded")
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if not self.nodes:
            raise FabricError("cannot shard an empty fabric")
        cache = plan_cache if plan_cache is not None else UpdatePlanCache()
        self.plan_cache = cache
        shards: List[Dict[str, Controller]] = [
            {} for _ in range(min(n_workers, len(self.nodes)))
        ]
        for block in self._blocks(len(shards)):
            target = min(shards, key=len)
            for name in block:
                target[name] = self.nodes[name]
        self.workers = [
            DeviceWorker(
                f"shard{index}",
                devices,
                wires=self._wires,
                max_hops=self.max_hops,
                plan_cache=cache,
            )
            for index, devices in enumerate(shards)
        ]
        self._owner = {
            name: worker
            for worker in self.workers
            for name in worker.devices
        }
        if start:
            for worker in self.workers:
                worker.start()
        return self.workers

    def _blocks(self, n_blocks: int):
        """Each wire-graph component's BFS order, cut into
        ``min(n_blocks, size)`` contiguous blocks, larger ones first."""
        peers: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for (node, _port), (peer, _peer_port) in self._wires.items():
            peers[node].append(peer)
        seen = set()
        for root in self.nodes:
            if root in seen:
                continue
            seen.add(root)
            order = [root]
            for node in order:  # grows while iterated: breadth first
                for peer in peers[node]:
                    if peer not in seen:
                        seen.add(peer)
                        order.append(peer)
            cuts = min(n_blocks, len(order))
            # Bound k is ceil(k * size / cuts): near-equal, larger first.
            bounds = [-(-k * len(order) // cuts) for k in range(cuts + 1)]
            for start, end in zip(bounds, bounds[1:]):
                yield order[start:end]

    def unshard(self) -> None:
        """Stop the workers and return to serial mode.

        Final metric shards are merged first, so nothing is lost; the
        per-controller plan caches are uninstalled to restore exact
        serial semantics.
        """
        if not self.workers:
            return
        self.sync_metrics()
        for worker in self.workers:
            worker.stop()
        self.workers = []
        self._owner = {}
        self.plan_cache = None
        for controller in self.nodes.values():
            controller.plan_cache = None

    def sync_metrics(self) -> int:
        """Pull one metric shard snapshot from every worker and merge
        the deltas into :attr:`metrics`.  Returns samples applied."""
        applied = 0
        for worker in self.workers:
            shard = worker.request("worker.metrics", {})["shard"]
            applied += merge_shard_into(self.metrics, shard)
        return applied

    def _worker_of(self, node: str) -> DeviceWorker:
        """``node``'s shard; on a serial fabric, the in-process owner."""
        if not self.workers:
            return self._local
        worker = self._owner.get(node)
        if worker is None:
            raise FabricError(f"no node named {node!r}")
        return worker

    def _scatter(self, calls):
        """Post every ``(worker, kind, payload)`` command, then gather
        the framed replies in the same order.

        The shards grind concurrently on their own serving threads
        while this (single) client thread pipelines the frames -- no
        fan-out thread pool.  A failed call leaves its exception in
        the corresponding slot instead of raising, so every posted
        command is still collected and the reply queues stay aligned.
        """
        for worker, kind, payload in calls:
            worker.post_request(kind, payload)
        replies: List[object] = []
        for worker, kind, _payload in calls:
            try:
                replies.append(worker.collect_reply(kind))
            except Exception as exc:
                replies.append(exc)
        return replies

    def _update(
        self, kind: str, nodes: List[str], payload: dict
    ) -> Dict[str, dict]:
        """Run one node-batch update command over ``nodes``.

        The only place that knows serial from sharded for updates.
        Sharded: one batch frame per owning worker, scattered
        concurrently.  Serial: the same :class:`DeviceWorker` handlers
        run in-process -- no frame, no JSON, no thread.  Returns the
        per-node entries keyed in listed order; a failed node carries
        its exception under ``"error"`` (the original object when
        serial, a :class:`WorkerError` naming the node when sharded)
        and nodes after it on the same worker are absent.  An unknown
        node raises :class:`FabricError` before any command runs.
        """
        if not self.workers:
            for name in nodes:
                self.node(name)
            entries = self._local.run_nodes(kind, {**payload, "nodes": nodes})
            return {entry["node"]: entry for entry in entries}
        grouped: Dict[DeviceWorker, List[str]] = {}
        for name in nodes:
            grouped.setdefault(self._worker_of(name), []).append(name)
        replies = self._scatter([
            (worker, kind, {**payload, "nodes": names})
            for worker, names in grouped.items()
        ])
        entries = {}
        for names, reply in zip(grouped.values(), replies):
            if isinstance(reply, Exception):
                entries[names[0]] = {"node": names[0], "error": reply}
                continue
            for entry in reply["results"]:
                detail = entry.get("error")
                if detail:
                    entry["error"] = WorkerError(
                        f"{detail['type']}: {detail['message']}",
                        kind=kind,
                        node=entry["node"],
                    )
                entries[entry["node"]] = entry
        return {name: entries[name] for name in nodes if name in entries}

    # -- telemetry ------------------------------------------------------

    def attach_int_collector(self, collector=None, strip: bool = True):
        """Feed every edge delivery through an INT collector.

        The collector (default: a fresh
        :class:`repro.obs.intcol.IntCollector`) sees each packet as it
        exits the fabric; with ``strip=True`` the delivered bytes have
        the INT shim removed and the original EtherType restored, so
        the edge observes un-instrumented traffic while the collector
        keeps the telemetry.  Returns the collector.
        """
        if collector is None:
            from repro.obs.intcol import IntCollector

            collector = IntCollector()
        self.int_collector = collector
        self._int_strip = strip
        return collector

    def attach_health(self, engine=None, rules=None, clock=None):
        """Attach a streaming health engine over every current node.

        The engine (default: a fresh :class:`repro.obs.health.
        HealthEngine` on ``clock``) gets one source per node -- the
        device registry plus the switch/controller timeline recorders
        -- and watches the INT collector when one is attached.  With
        an engine attached, :meth:`staged_rollout` gates on continuous
        health scores instead of the one-shot probe drop-rate check.
        ``rules`` defaults to :func:`repro.obs.health.default_rules`
        when the engine has none installed.  Returns the engine.
        """
        from repro.obs.health import HealthEngine, default_rules

        if engine is None:
            engine = HealthEngine(clock=clock)
        if rules is not None:
            engine.install(rules)
        elif not engine.rules:
            engine.install(default_rules())
        for name, controller in self.nodes.items():
            engine.add_source(
                name,
                controller.switch.metrics,
                switch=controller.switch,
                timelines=(controller.timelines, controller.switch.timelines),
            )
        # The fabric's own registry rides along as a source, so rules
        # can target a single device's forwarding rate via the per-hop
        # counters (fabric.hop_forwarded{node,port} and friends).
        engine.add_source("fabric", self.metrics)
        if self.int_collector is not None:
            engine.watch_int(self.int_collector)
        self.health = engine
        return engine

    def detach_health(self):
        """Drop the health engine; returns the detached engine."""
        engine, self.health = self.health, None
        if engine is not None:
            for name in list(self.nodes):
                engine.remove_source(name)
            engine.remove_source("fabric")
        return engine

    # -- traffic ------------------------------------------------------------

    def send(self, node: str, data: bytes, port: int = 0) -> Optional[Delivery]:
        """Walk a packet through the fabric; None if dropped."""
        return self.send_batch([(node, data, port)])[0]

    def send_many(
        self, node: str, trace: List[Tuple[bytes, int]]
    ) -> List[Optional[Delivery]]:
        """Inject a trace at one node; index-aligned deliveries (None =
        dropped)."""
        return self.send_batch([(node, data, port) for data, port in trace])

    def send_batch(
        self, items: List[Tuple[str, bytes, int]]
    ) -> List[Optional[Delivery]]:
        """Inject ``(node, data, port)`` items, index-aligned.

        The start node varies per item, so one batch can cover the
        whole fleet -- the soak harness's replay path.  Packets are
        grouped by owning worker and walked in **rounds**: each owner
        moves its group as a hop-synchronous wavefront
        (:func:`repro.runtime.walk.walk`, one ``inject_batch`` per node
        per hop), and a hop onto a node another worker owns comes back
        as a handoff for the next round.  A serial fabric's one owner
        holds every node, so it takes a single round; a sharded one
        takes one round more than the shard crossings on the longest
        path.
        """
        items = list(items)
        origins: Dict[str, List[int]] = {}
        for index, item in enumerate(items):
            origins.setdefault(item[0], []).append(index)
        for node in origins:
            self.node(node)  # an unknown origin fails before any hop runs
        for node, rows in origins.items():
            self.metrics.counter("fabric.injected", node=node).inc(len(rows))
        self.stats.injected += len(items)
        results: List[Optional[Delivery]] = [None] * len(items)
        legs = [
            Leg(node, (), PacketBatch.from_frames(
                [items[row][1] for row in rows], [items[row][2] for row in rows],
                rows if len(rows) < len(items) else None,
            ))
            for node, rows in origins.items()
        ]
        while legs:
            groups: Dict[DeviceWorker, List[Leg]] = {}
            for leg in legs:
                groups.setdefault(self._worker_of(leg.node), []).append(leg)
            legs = []
            for walked in self._walk_round(groups):
                self.stats.dropped += len(walked.dropped)
                self.stats.loops_cut += len(walked.loops)
                self._deliver(walked.exits, results)
                legs += walked.handoffs
        return results

    def _walk_round(
        self, groups: Dict[DeviceWorker, List[Leg]]
    ) -> List[WalkResult]:
        """One walk per owning worker.  The in-process worker's legs
        are walked right here, counting into :attr:`metrics`; a shard's
        are packed into ``worker.inject_batch`` frames of at most
        ``TRAFFIC_CHUNK`` packets, all posted before any reply is
        gathered."""
        local = groups.pop(self._local, None)
        calls = []
        for worker, legs in groups.items():
            flights = flights_of(legs)
            calls += [
                (worker, "worker.inject_batch",
                 {"items": pack_flights(flights[at:at + TRAFFIC_CHUNK])})
                for at in range(0, len(flights), TRAFFIC_CHUNK)
            ]
        replies = self._scatter(calls)
        walked = [
            walk(local, self.nodes, self._wires, self.max_hops, self.metrics)
        ] if local else []
        for reply in replies:
            if isinstance(reply, Exception):
                raise reply
            walked.append(WalkResult(
                [
                    (f.index, f.node, f.port, tuple(f.path), f.data)
                    for f in unpack_flights(reply["deliveries"])
                ],
                legs_of(unpack_flights(reply["handoffs"])),
                reply["dropped"], reply["loops"],
            ))
        return walked

    def _deliver(self, exits: List[Exit], results) -> None:
        """Packets leaving at an edge, in exit order: one collector
        ingest for all of them, then the :class:`Delivery` each caller
        slot sees."""
        self.stats.delivered += len(exits)
        if self.int_collector is not None:
            ingested = self.int_collector.ingest_batch([
                (data, node, port) for _i, node, port, _path, data in exits
            ])
            if self._int_strip:
                exits = [
                    exit[:4] + (ingest.stripped,)
                    for exit, ingest in zip(exits, ingested)
                ]
        for index, node, port, path, data in exits:
            results[index] = Delivery(node, port, data, len(path), path)

    # -- fleet-wide updates ----------------------------------------------------

    def rollback_all(self, nodes: Optional[List[str]] = None) -> List[str]:
        """Roll every (given) node back one update, in reverse order.

        The counterpart of a completed rollout -- an A/B soak cycle is
        ``staged_rollout`` forward, ``rollback_all`` back.  Returns
        the nodes in the order rolled back.
        """
        order = list(nodes) if nodes is not None else list(self.nodes)
        rolled: List[str] = []
        for name in reversed(order):
            self._rollback_node(name)
            rolled.append(name)
        return rolled

    def _rollback_node(self, name: str) -> None:
        entry = self._update("worker.rollback_batch", [name], {})[name]
        if "error" in entry:
            raise entry["error"]

    def rollout(
        self,
        script_text: str,
        sources: Optional[Dict[str, str]] = None,
        nodes: Optional[List[str]] = None,
    ) -> Dict[str, float]:
        """Apply one in-situ update script across (some) nodes.

        Returns per-node total stall+compile seconds.  Nodes are
        updated one at a time -- traffic through the others keeps
        flowing, which is the whole point of in-situ programmability.

        A mid-rollout failure raises :class:`RolloutError` naming the
        nodes that already committed, the failing node, and the nodes
        never reached -- already-updated nodes are *not* reverted (use
        :meth:`staged_rollout` for automatic rollback).
        """
        order = list(nodes) if nodes is not None else list(self.nodes)
        timings: Dict[str, float] = {}
        updated: List[str] = []
        for position, name in enumerate(order):
            controller = self.node(name)
            try:
                _plan, _stats, timing = controller.run_script(
                    script_text, sources
                )
            except Exception as exc:
                raise RolloutError(
                    "rollout aborted",
                    updated=updated,
                    failed=name,
                    cause=exc,
                    pending=order[position + 1:],
                ) from exc
            timings[name] = timing.total_seconds
            updated.append(name)
        return timings

    def staged_rollout(
        self,
        script_text: str,
        sources: Optional[Dict[str, str]] = None,
        nodes: Optional[List[str]] = None,
        canary: Optional[str] = None,
        wave_size: int = 2,
        probe_trace: Optional[List[Tuple[bytes, int]]] = None,
        max_drop_rate: float = 0.0,
        evidence_trace: Optional[List[Tuple[bytes, int]]] = None,
        evidence_node: Optional[str] = None,
        soak_ticks: int = 3,
        min_health: float = 1.0,
        verify: str = "error",
    ) -> "RolloutReport":
        """Canary -> health gate -> waves, with automatic rollback.

        **Verify-before-canary.**  The canary's controller runs its
        rp4verify staging gate in ``verify`` mode (default ``error``):
        a staged update whose differential verification finds a
        confirmed unintended divergence is aborted while still shadow
        -- the rollout fails before *any* node in the fabric flips an
        epoch.  Pass ``verify="inherit"`` to keep the node's own gate
        mode, or ``"strict"``/``"warn"``/``"off"`` to override.
        Non-canary waves always inherit their node's configuration
        (the canary already proved the update).

        1. The **canary** node (default: the first) stages and commits
           the update, then must pass the health gate.  A failing
           canary is rolled back and :class:`RolloutError` raised --
           every node is left on its old design/epoch.
        2. Remaining nodes are updated in **waves** of ``wave_size``,
           each node gated the same way.  Any failure (update error or
           gate breach) triggers reverse-order rollback of *every*
           committed node before :class:`RolloutError` propagates.

        **Every wave runs the same four steps**, the canary being a
        wave of one, on a serial and a sharded fabric alike: (1) stage
        every member; (2) if any member fails to stage, abort every
        staged member while all are still shadow -- nothing in the wave
        commits; (3) commit in listed order; (4) gate in listed order.
        Each step runs the wave as one node batch per device worker
        (:meth:`_update`), and a worker stops at its first failure:
        after a commit failure that worker's later members stay parked
        (aborted, reported as pending) while members owned by other
        workers may already have flipped (rolled back with the rest).
        The committed sequence, and therefore the reverse-order
        rollback, is deterministic regardless of thread timing.  An
        unknown node raises :class:`FabricError` before anything is
        staged.

        **The gate.**  Without a health engine attached the gate is the
        legacy one-shot check: ``probe_trace`` is injected through the
        node's front door and the observed drop rate must not exceed
        ``max_drop_rate``.  With :meth:`attach_health`, the gate is
        continuous: after each commit the node **soaks** for
        ``soak_ticks`` engine ticks (probe traffic re-injected each
        tick), its health score must stay at or above ``min_health``,
        and after every evidence checkpoint the whole committed fleet
        is re-checked -- a regression *between* waves aborts too.
        Every alert transition lands in :attr:`RolloutReport.alerts`;
        on abort the flight recorder freezes into
        :attr:`RolloutReport.flight_record` and the report rides the
        raised :class:`RolloutError` (``err.report``).

        With an INT collector attached and an ``evidence_trace``, the
        trace is sent end-to-end from ``evidence_node`` (default: the
        first rollout node) after the canary and after every wave;
        each checkpoint records the dataplane epochs the packets
        carried in-band in :attr:`RolloutReport.epoch_evidence` --
        mixed epochs are the packet's-eye view of the flip window.
        """
        if wave_size <= 0:
            raise ValueError("wave_size must be positive")
        order = list(nodes) if nodes is not None else list(self.nodes)
        if not order:
            return RolloutReport()
        for name in order:
            self.node(name)  # an unknown node fails before anything is staged
        canary = canary if canary is not None else order[0]
        if canary not in order:
            raise FabricError(f"canary {canary!r} is not in the rollout set")
        rest = [name for name in order if name != canary]
        waves = [
            rest[i:i + wave_size] for i in range(0, len(rest), wave_size)
        ]
        report = RolloutReport(canary=canary, waves=waves)
        committed: List[str] = []
        probe_items = pack_flights([  # a probe packet names no node
            InFlight(index, "", data, port)
            for index, (data, port) in enumerate(probe_trace or ())
        ])

        def evidence_checkpoint(after: str) -> None:
            collector = self.int_collector
            if collector is None or evidence_trace is None:
                return
            origin = evidence_node if evidence_node is not None else order[0]
            start = len(collector.records)
            self.send_many(origin, evidence_trace)
            fresh = collector.records[start:]
            epochs = sorted({e for r in fresh for e in r["epochs"]})
            report.epoch_evidence.append(
                {
                    "after": after,
                    "packets": len(fresh),
                    "epochs": epochs,
                    "mismatched_packets": sum(
                        1 for r in fresh if r["epoch_mismatch"]
                    ),
                }
            )

        def drop_rate(name: str, entry: dict) -> float:
            """One node's probe result as a drop rate; a probe that
            raised re-raises here."""
            if "error" in entry:
                raise entry["error"]
            total, dropped = entry["total"], entry["dropped"]
            rate = dropped / total if total else 0.0
            report.probes[name] = rate
            return rate

        def soak(name: str) -> None:
            """Continuous gate: probe + engine tick, ``soak_ticks``
            times; the node's score must hold ``min_health``."""
            engine = self.health
            for _ in range(max(1, soak_ticks)):
                if probe_trace is not None:
                    drop_rate(name, self._update(
                        "worker.probe_batch", [name], {"items": probe_items}
                    )[name])
                for transition in engine.tick():
                    report.alerts.append(transition.to_dict())
                score = engine.device_health(name)
                report.health[name] = score
                if score < min_health:
                    raise HealthGateError(
                        f"node {name!r} health {score:.2f} fell below "
                        f"gate {min_health:.2f} during soak: "
                        + ", ".join(
                            a.rule.name for a in engine.firing(name)
                        )
                    )

        def unwind(failed: str, cause: Exception, pending: List[str]) -> None:
            rolled_back: List[str] = []
            for name in reversed(committed):
                self._rollback_node(name)
                rolled_back.append(name)
            if self.health is not None:
                report.flight_record = self.health.recorder.dump(
                    reason="rollout_abort"
                )
            raise RolloutError(
                "staged rollout aborted",
                updated=list(committed),
                failed=failed,
                cause=cause,
                rolled_back=rolled_back,
                pending=pending,
                report=report,
            ) from cause

        def first_failure(wave: List[str], entries: Dict[str, dict]):
            return next(
                (name for name in wave if "error" in entries.get(name, {})),
                None,
            )

        def gate(wave: List[str], later: List[str]) -> None:
            """Step 4, in listed order: the health soak per node, or
            the drop rates of one probe batch over the whole wave."""
            probes: Dict[str, dict] = {}
            if self.health is None and probe_trace is not None:
                probes = self._update(
                    "worker.probe_batch", wave, {"items": probe_items}
                )
            for name in wave:
                try:
                    if self.health is not None:
                        soak(name)
                    elif probe_trace is not None:
                        rate = drop_rate(name, probes[name])
                        if rate > max_drop_rate:
                            raise HealthGateError(
                                f"node {name!r} drop rate {rate:.3f} "
                                f"exceeds gate {max_drop_rate:.3f}"
                            )
                except Exception as exc:
                    unwind(name, exc, later)

        def run_wave(wave: List[str], later: List[str]) -> None:
            """Stage all, abort all while shadow on a staging failure,
            commit in listed order, gate in listed order."""
            staged = self._update(
                "worker.stage_batch", wave,
                {"script": script_text, "sources": sources},
            )
            tokens = {
                name: entry["token"]
                for name, entry in staged.items()
                if "error" not in entry
            }

            def abort(names: List[str]) -> None:
                # One node at a time, errors ignored: best effort, the
                # triggering failure is the headline.
                for name in names:
                    self._update("worker.abort_batch", [name], {"tokens": tokens})

            failed = first_failure(wave, staged)
            if failed is not None:
                abort(list(tokens))
                unwind(
                    failed, staged[failed]["error"],
                    [n for n in wave if n != failed] + later,
                )
            commits = self._update(
                "worker.commit_batch", wave, {"tokens": tokens}
            )
            for name, entry in commits.items():
                if "error" not in entry:
                    committed.append(name)
                    report.timings[name] = entry["total_seconds"]
            failed = first_failure(wave, commits)
            if failed is not None:
                parked = [n for n in wave if n not in commits]
                abort(parked)
                unwind(failed, commits[failed]["error"], parked + later)
            gate(wave, later)

        def checkpoint(after: str, last: str, later: List[str]) -> None:
            """After the canary and every wave: epoch evidence, then one
            engine tick in which every committed node must still hold
            ``min_health``."""
            evidence_checkpoint(after)
            engine = self.health
            if engine is None:
                return
            for transition in engine.tick():
                report.alerts.append(transition.to_dict())
            for name in committed:
                score = engine.device_health(name)
                report.health[name] = score
                if score < min_health:
                    unwind(last, HealthGateError(
                        f"node {name!r} health {score:.2f} fell below "
                        f"gate {min_health:.2f} after {after}"
                    ), later)

        canary_controller = self.node(canary)
        previous_verify = canary_controller.verify_updates
        if verify != "inherit":
            canary_controller.verify_updates = verify
        try:
            run_wave([canary], rest)
        finally:
            canary_controller.verify_updates = previous_verify
        checkpoint(f"canary:{canary}", canary, rest)
        for wave_index, wave in enumerate(waves):
            later = [n for w in waves[wave_index + 1:] for n in w]
            run_wave(wave, later)
            checkpoint(f"wave:{wave_index}", wave[-1], later)
        if self.health is not None:
            for name in committed:
                report.health[name] = self.health.device_health(name)
        return report


class HealthGateError(FabricError):
    """A post-commit probe exceeded the allowed drop rate."""


@dataclass
class RolloutReport:
    """What a staged rollout did: per-node timings, probe drop rates,
    the canary, and the wave plan."""

    timings: Dict[str, float] = field(default_factory=dict)
    probes: Dict[str, float] = field(default_factory=dict)
    canary: Optional[str] = None
    waves: List[List[str]] = field(default_factory=list)
    #: In-band epoch observations, one dict per checkpoint (after the
    #: canary and after every wave): ``{"after", "packets", "epochs",
    #: "mismatched_packets"}`` -- see ``staged_rollout``.
    epoch_evidence: List[dict] = field(default_factory=list)
    #: With a health engine attached: every alert transition observed
    #: during soak and fleet checks (``AlertTransition.to_dict()``).
    alerts: List[dict] = field(default_factory=list)
    #: Last observed health score per gated node.
    health: Dict[str, float] = field(default_factory=dict)
    #: Flight-recorder post-mortem bundle, captured on abort (after
    #: the automatic rollbacks, so their events are included).
    flight_record: Optional[dict] = None
