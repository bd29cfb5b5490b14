"""Device workers: the sharded fabric runtime backend.

A :class:`DeviceWorker` owns a disjoint set of devices (name ->
:class:`~repro.runtime.controller.Controller`) and executes commands
that arrive as length-prefixed byte frames over a
:class:`~repro.runtime.channel.ControlChannel` pair (requests one
way, replies the other): ``worker.inject_batch`` walks traffic
through the shard's devices, the node-batch commands
(``worker.stage_batch`` / ``worker.commit_batch`` /
``worker.abort_batch`` / ``worker.rollback_batch`` /
``worker.probe_batch``) drive the transactional update engine over a
list of owned nodes, and ``worker.metrics`` ships a metric shard
snapshot -- per-device counter *deltas* and histogram bucket deltas
that merge losslessly into the fabric's central registry, so
fleet-wide stats, health rules, and Prometheus export look exactly the
same whether the fleet is sharded or not.  Traffic crosses as one
column set per frame (:func:`pack_flights`): a JSON list per packet
field plus all the packet bytes as one base64 blob -- for
``worker.inject_batch`` items, deliveries and handoffs alike, and for
``worker.probe_batch`` items.

Workers run their receive loop on a daemon thread
(:meth:`DeviceWorker.start`) with ``queue.Queue``-backed transports;
the same byte protocol runs unchanged over ``multiprocessing`` queues
for a true remote shard.  A worker can also be driven synchronously
(:meth:`DeviceWorker.serve_once`) for deterministic tests.  A serial
fabric frames nothing: it walks its traffic in-process and calls the
node-batch handlers (:meth:`DeviceWorker.run_nodes`) directly.

:class:`UpdatePlanCache` is the fleet-rollout fast path: every node
in a wave runs the same base design, so the snippet compile, the lint
gate, and a clean rp4verify report are computed once (on the canary)
and reused by every content-identical node -- the per-node work drops
to transfer + prepare/validate + the epoch flip.
"""

from __future__ import annotations

import hashlib
import json
import threading
from base64 import b64decode, b64encode
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.runtime.channel import ChannelError, ControlChannel, FrameError, QueueTransport
from repro.runtime.walk import InFlight, flights_of, legs_of, walk

#: Traffic items per ``worker.inject_batch`` frame: bounds frame size
#: (and peak memory) when a soak ships millions of packets.
TRAFFIC_CHUNK = 2048


class WorkerError(Exception):
    """A worker command failed on the device side."""

    def __init__(self, message: str, kind: str = "", node: str = "") -> None:
        super().__init__(message)
        self.kind = kind
        self.node = node


# -- update-plan cache ------------------------------------------------------


def design_fingerprint(design) -> str:
    """Content fingerprint of a compiled design (cached on the object).

    Two nodes that loaded the same base source and applied the same
    update history have content-identical configs, so their staged
    compiles are interchangeable even though the design *objects* are
    per-node.
    """
    cached = getattr(design, "_content_fingerprint", None)
    if cached is None:
        cached = hashlib.sha256(
            json.dumps(design.config, sort_keys=True).encode("utf-8")
        ).hexdigest()
        try:
            design._content_fingerprint = cached
        except AttributeError:
            pass  # slotted/frozen designs just pay the dump again
    return cached


@dataclass
class PlanCacheEntry:
    """One staged compile's reusable artifacts."""

    plan: object  # UpdatePlan
    message: dict  # plan.update_message(...) -- JSON-safe
    lint: Optional[list] = None  # diagnostics from a passing lint gate
    verify_report: Optional[object] = None  # a clean VerifyReport
    #: ``json.dumps(message, sort_keys=True)`` -- spliced into each
    #: peer's ``update.prepare`` frame so the fleet serializes the
    #: (identical, large) update exactly once.
    message_json: Optional[str] = None
    #: Verdict of ``plan.design.pool.verify()`` -- the pool object is
    #: shared with the cached plan, so peers reuse the walk.
    pool_findings: Optional[list] = None
    #: The canary transaction's parsed template list (read-only after
    #: parse); peers hand it to their transaction and skip re-parsing.
    templates_parsed: Optional[list] = None


class UpdatePlanCache:
    """Fingerprint-keyed cache of compiled update plans.

    The key covers the node's current design content plus the script
    and snippet sources, so a hit is only possible when the compile
    would be byte-identical.  Thread-safe: wave fan-out may consult it
    from several workers at once (a racing miss compiles twice and the
    first ``put`` wins -- correct, just not maximally lazy).
    """

    def __init__(self) -> None:
        self._entries: Dict[str, PlanCacheEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def fingerprint(
        design, script_text: str, sources: Optional[Dict[str, str]]
    ) -> str:
        digest = hashlib.sha256()
        digest.update(design_fingerprint(design).encode("ascii"))
        digest.update(script_text.encode("utf-8"))
        for name, source in sorted((sources or {}).items()):
            digest.update(name.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    def get(self, fingerprint: str) -> Optional[PlanCacheEntry]:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def put(self, fingerprint: str, entry: PlanCacheEntry) -> PlanCacheEntry:
        with self._lock:
            return self._entries.setdefault(fingerprint, entry)

    def __len__(self) -> int:
        return len(self._entries)


# -- metric shards ----------------------------------------------------------

#: Sample kinds accumulated as deltas; anything else (gauges) is
#: last-write-wins.
_ACCUMULATED = ("counter",)


def _sample_key(name: str, labels: Dict[str, str]) -> Tuple:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def merge_shard_into(registry: MetricsRegistry, shard: dict) -> int:
    """Fold one worker shard snapshot into a central registry.

    Counter deltas (including every histogram's ``_bucket`` /
    ``_count`` / ``_sum`` series, so bucket merges are exact) are added
    to the registry's *owned* instruments and gauges overwrite -- the
    merged registry is indistinguishable from one process having owned
    every device, and repeated merges accumulate losslessly.  Returns
    the number of samples applied.
    """
    applied = 0
    for name, labels, kind, value in shard.get("samples", []):
        if kind in _ACCUMULATED:
            registry.counter(name, **labels).inc(value)
        else:
            registry.gauge(name, **labels).set(value)
        applied += 1
    return applied


class ShardSnapshotter:
    """The worker half: turns registries into delta snapshots.

    Keeps the last-shipped value per sample so each ``snapshot`` emits
    only what changed since the previous one -- counters as deltas
    (clamped at zero across device restarts), gauges as their current
    value.  Lossless: summing every shipped delta reproduces the
    device-side counter exactly.
    """

    def __init__(self) -> None:
        self._last: Dict[Tuple, float] = {}

    def snapshot(
        self, registries: List[Tuple[Dict[str, str], MetricsRegistry]]
    ) -> List[list]:
        out: List[list] = []
        for extra_labels, registry in registries:
            for sample in registry.collect():
                labels = dict(sample.labels)
                labels.update(extra_labels)
                key = _sample_key(sample.name, labels)
                if sample.kind in _ACCUMULATED:
                    delta = sample.value - self._last.get(key, 0)
                    self._last[key] = sample.value
                    if delta <= 0:
                        continue
                    out.append([sample.name, labels, sample.kind, delta])
                else:
                    out.append([sample.name, labels, sample.kind, sample.value])
        return out


# -- the worker -------------------------------------------------------------


#: The traffic frame's per-packet columns; the bytes ride beside them.
_COLUMNS = ("i", "node", "port", "path", "len")


def pack_flights(flights: List[InFlight]) -> dict:
    """In-flight packets as the traffic frame the channel carries: one
    JSON list per column, plus every packet's bytes concatenated into a
    single base64 ``data`` blob that the ``len`` column splits again."""
    return {
        "i": [f.index for f in flights],
        "node": [f.node for f in flights],
        "port": [f.port for f in flights],
        "path": [f.path for f in flights],
        "len": [len(f.data) for f in flights],
        "data": b64encode(b"".join(f.data for f in flights)).decode("ascii"),
    }


def unpack_flights(frame: dict) -> List[InFlight]:
    """The packets of one traffic frame.  Missing or ragged columns,
    lengths that do not add up to the blob, and a blob that is not
    base64 raise :class:`FrameError`."""
    try:
        columns = [frame[key] for key in _COLUMNS]
        blob = b64decode(frame["data"], validate=True)
        if len(set(map(len, columns))) != 1:
            raise FrameError(f"ragged traffic columns: {list(map(len, columns))}")
        if sum(frame["len"]) != len(blob):
            raise FrameError(f"traffic lengths != {len(blob)}-byte blob")
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"malformed traffic frame: {exc}") from None
    flights: List[InFlight] = []
    end = 0
    for index, node, port, path, size in zip(*columns):
        start, end = end, end + size
        flights.append(InFlight(index, node, blob[start:end], port, path))
    return flights


def _error_detail(exc: Exception) -> dict:
    """A failure as the JSON-safe detail the channel carries."""
    return {"type": type(exc).__name__, "message": str(exc)}


class DeviceWorker:
    """One shard: a named set of devices plus a framed command loop."""

    def __init__(
        self,
        name: str,
        devices: Dict[str, object],
        wires: Dict[Tuple[str, int], Tuple[str, int]],
        max_hops: int = 16,
        plan_cache: Optional[UpdatePlanCache] = None,
    ) -> None:
        self.name = name
        # Held, not copied: a serial fabric's in-process worker sees
        # nodes added after it was built.
        self.devices = devices
        self.wires = wires
        self.max_hops = max_hops
        self.plan_cache = plan_cache
        self.requests = ControlChannel(QueueTransport())
        self.replies = ControlChannel(QueueTransport())
        self.metrics = MetricsRegistry()
        self._n_commands = self.metrics.counter("worker.commands")
        self._n_errors = self.metrics.counter("worker.command_errors")
        self._snapshotter = ShardSnapshotter()
        self._staged: Dict[str, object] = {}
        self._staged_seq = 0
        # Node-batch command kind -> its per-node body (see run_nodes).
        self._node_bodies = {
            "worker.stage_batch": self._stage,
            "worker.commit_batch": self._commit,
            "worker.abort_batch": self._abort,
            "worker.rollback_batch": self._rollback,
            "worker.probe_batch": self._probe,
        }
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._lock = threading.Lock()  # one in-flight request at a time
        if plan_cache is not None:
            for controller in self.devices.values():
                controller.plan_cache = plan_cache

    # -- client side -----------------------------------------------------

    def request(self, kind: str, payload: dict, timeout: float = 60.0) -> dict:
        """Send one framed command and wait for its framed reply.

        Runs the command inline when the worker has no serving thread
        (deterministic mode); otherwise blocks on the reply queue.
        Worker-side failures surface as :class:`WorkerError`.
        """
        with self._lock:
            self.requests.post(payload, kind=kind)
            if self._thread is None:
                self.serve_once(timeout=0.0)
            _kind, reply, _seq = self.replies.deliver(timeout=timeout)
        return self._check_reply(kind, reply)

    def post_request(self, kind: str, payload: dict) -> int:
        """Queue one framed command without waiting (scatter half).

        The fabric pipelines shards this way: post a batch command to
        every worker, let their serving threads grind concurrently,
        then :meth:`collect_reply` from each -- no extra thread pool,
        no per-command roundtrip serialization.  Replies come back in
        FIFO order per worker.
        """
        with self._lock:
            return self.requests.post(payload, kind=kind)

    def collect_reply(self, kind: str = "", timeout: float = 60.0) -> dict:
        """Wait for the oldest outstanding reply (gather half)."""
        with self._lock:
            if self._thread is None and self.replies.transport.pending() == 0:
                self.serve_once(timeout=0.0)
            _kind, reply, _seq = self.replies.deliver(timeout=timeout)
        return self._check_reply(kind, reply)

    def _check_reply(self, kind: str, reply: dict) -> dict:
        error = reply.get("error")
        if error:
            raise WorkerError(
                f"worker {self.name!r} {kind} failed: "
                f"{error['type']}: {error['message']}",
                kind=kind,
            )
        return reply

    # -- serve loop ------------------------------------------------------

    def start(self) -> "DeviceWorker":
        """Run the receive loop on a daemon thread."""
        if self._thread is not None:
            return self
        self._stopping = False
        self._thread = threading.Thread(
            target=self._serve_forever, name=f"device-worker-{self.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the serving thread (if any) and join it."""
        thread = self._thread
        if thread is None:
            return
        with self._lock:
            self.requests.post({}, kind="worker.stop")
            self.replies.deliver(timeout=10.0)
        thread.join(timeout=10.0)
        self._thread = None

    def _serve_forever(self) -> None:
        while not self._stopping:
            try:
                self.serve_once(timeout=1.0)
            except ChannelError:
                continue  # idle poll; check the stop flag again

    def serve_once(self, timeout: Optional[float] = 1.0) -> bool:
        """Receive, execute, and answer one framed command."""
        kind, payload, seq = self.requests.deliver(timeout=timeout)
        self._n_commands.inc()
        if kind == "worker.stop":
            self._stopping = True
            self.replies.post({"stopped": True}, kind="worker.stopped")
            return False
        try:
            reply = self.execute(kind, payload)
        except Exception as exc:  # ship the failure, keep serving
            self._n_errors.inc()
            reply = {"error": _error_detail(exc)}
        self.replies.post(reply, kind=f"{kind}.reply")
        return True

    # -- command execution ----------------------------------------------

    def execute(self, kind: str, payload: dict) -> dict:
        if kind == "worker.inject_batch":
            return self._cmd_inject_batch(payload)
        if kind == "worker.metrics":
            return self._cmd_metrics(payload)
        return {
            "results": [
                {**entry, "error": _error_detail(entry["error"])}
                if "error" in entry
                else entry
                for entry in self.run_nodes(kind, payload)
            ]
        }

    def run_nodes(self, kind: str, payload: dict) -> List[dict]:
        """Run one node-batch command over ``payload["nodes"]``.

        The one "run in order, stop at the first failure" loop every
        update command shares: each node gets ``{**body result,
        "node"}``; the first node whose body raises gets ``{"node",
        "error": <the exception object>}`` and the nodes after it are
        never attempted, so the caller sees exactly which were
        touched.  :meth:`execute` renders the exceptions for the wire;
        a serial fabric calls this directly and keeps them as raised.
        """
        body = self._node_bodies.get(kind)
        if body is None:
            raise WorkerError(f"unknown command kind {kind!r}", kind=kind)
        results: List[dict] = []
        for node in payload["nodes"]:
            try:
                results.append({**body(node, payload), "node": node})
            except Exception as exc:
                results.append({"node": node, "error": exc})
                break
        return results

    def _device(self, node: str):
        try:
            return self.devices[node]
        except KeyError:
            raise WorkerError(
                f"worker {self.name!r} does not own node {node!r}",
                node=node,
            ) from None

    # Traffic: the shared wavefront walker over the owned devices; a
    # hop landing on a foreign node comes back as a handoff for the owner.

    def _cmd_inject_batch(self, payload: dict) -> dict:
        legs = legs_of(unpack_flights(payload["items"]))
        walked = walk(legs, self.devices, self.wires, self.max_hops, self.metrics)
        return {
            "deliveries": pack_flights([
                InFlight(index, node, data, port, list(path))
                for index, node, port, path, data in walked.exits
            ]),
            "handoffs": pack_flights(flights_of(walked.handoffs)),
            "dropped": walked.dropped,
            "loops": walked.loops,
        }

    # Updates: the controller's transactional staging engine, one
    # per-node body per command, each run over a node list by
    # run_nodes.  Staged updates park in the worker under a token until
    # the coordinator decides to flip or abort them.

    def _stage(self, node: str, payload: dict) -> dict:
        """Stage ``payload["script"]`` on one owned node and park it.

        As ``worker.stage_batch`` this is the fleet-rollout amortizer:
        a wave's nodes on this shard cost a single command roundtrip
        instead of one each.
        """
        staged = self._device(node).stage_update(
            payload["script"], payload.get("sources") or None
        )
        self._staged_seq += 1
        token = f"{self.name}:{self._staged_seq}"
        self._staged[token] = staged
        return {
            "token": token,
            "txn": staged.txn.txn_id,
            "compile_seconds": staged.timing.compile_seconds,
        }

    def _unpark(self, node: str, payload: dict):
        """Take the node's parked update (``payload["tokens"][node]``):
        a commit or abort consumes its token whether or not it
        succeeds."""
        token = payload["tokens"][node]
        staged = self._staged.pop(token, None)
        if staged is None:
            raise WorkerError(f"no staged update under token {token!r}")
        return staged

    def _commit(self, node: str, payload: dict) -> dict:
        """Flip one parked update; in ``worker.commit_batch`` a failure
        stops the batch, so later tokens stay parked for the caller to
        abort."""
        staged = self._unpark(node, payload)
        _plan, stats, timing = staged.commit()
        return {
            "stall_seconds": stats.stall_seconds,
            "compile_seconds": timing.compile_seconds,
            "load_seconds": timing.load_seconds,
            "total_seconds": timing.total_seconds,
            "epoch": staged.controller.switch.dp.epoch,
        }

    def _abort(self, node: str, payload: dict) -> dict:
        self._unpark(node, payload).abort()
        return {"aborted": True}

    def _rollback(self, node: str, payload: dict) -> dict:
        return {"restored": self._device(node).rollback()}

    def _probe(self, node: str, payload: dict) -> dict:
        """One front-door probe batch on an owned device -- rollout
        gates use this so probe traffic runs on the device's owning
        thread, serialized with in-flight traffic; as
        ``worker.probe_batch`` a whole wave's shard costs one frame."""
        trace = [(f.data, f.port) for f in unpack_flights(payload["items"])]
        result = self._device(node).switch.inject_batch(trace)
        return {
            "total": len(result),
            "forwarded": result.forwarded,
            "dropped": result.dropped,
        }

    # Metrics: one delta snapshot covering every owned device's
    # registries plus the worker's own hop/delivery counters.

    def _cmd_metrics(self, payload: dict) -> dict:
        registries: List[Tuple[Dict[str, str], MetricsRegistry]] = [
            ({}, self.metrics)
        ]
        for node, controller in self.devices.items():
            registries.append(({"node": node}, controller.switch.metrics))
            registries.append(({"node": node}, controller.metrics))
        return {
            "shard": {
                "worker": self.name,
                "devices": sorted(self.devices),
                "samples": self._snapshotter.snapshot(registries),
            }
        }
