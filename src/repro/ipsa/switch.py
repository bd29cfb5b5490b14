"""IpsaSwitch: the complete ipbm behavioral device.

Consumes rp4bc's JSON outputs -- nothing else crosses the boundary:

* :meth:`load_config` performs the initial full load;
* :meth:`apply_update` performs an in-service update: drain the
  pipeline via back pressure, write the new TSP templates, patch the
  header linkage (``link_header``), create/recycle tables, and
  reconfigure the selector.  Existing table entries survive; only new
  tables need population -- the rP4 flow's key advantage in Table 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compiler.lowering import action_from_json, builtin_actions, lower_table
from repro.dp import frontdoor
from repro.dp.core import IpsaCore
from repro.dp.frontdoor import PACKET_BYTES_BOUNDS, PortOut
from repro.ipsa.pipeline import ElasticPipeline, SelectorConfig
from repro.net.headers import FieldDef, HeaderType
from repro.net.linkage import HeaderLinkageTable
from repro.obs.clock import Clock
from repro.obs.metrics import MetricsRegistry, Sample
from repro.obs.prof import Profiler
from repro.obs.timeline import TimelineRecorder
from repro.obs.trace import DropReason, PacketTracer
from repro.tables.actions import ActionDef
from repro.tables.meters import MeterBank
from repro.tables.registers import ExternStore
from repro.tables.table import Table


class SwitchError(Exception):
    """Raised on malformed configuration."""


@dataclass
class UpdateStats:
    """What an in-service update cost."""

    drained_packets: int = 0  # in-flight packets *discarded* at drain
    completed_packets: int = 0  # in-flight packets finished on the old plan
    held_packets: int = 0  # waiting upstream during the stall
    templates_written: int = 0
    template_words: int = 0
    links_added: int = 0
    links_removed: int = 0
    tables_created: List[str] = field(default_factory=list)
    tables_removed: List[str] = field(default_factory=list)
    stall_seconds: float = 0.0
    epoch: int = 0  # dp plan epoch after the update


# -- schema registration helpers ------------------------------------------
#
# Module-level so the transactional update path can build *shadow*
# header/linkage state from the same code the live load path uses.


def ensure_instance(header_types: Dict[str, HeaderType], linkage: HeaderLinkageTable, instance: str) -> None:
    """Resolve an instance name to a header type, aliasing
    ``inner_<type>`` instances onto their base type (the standard
    P4 idiom for encapsulated headers)."""
    if instance in header_types:
        return
    if instance.startswith("inner_"):
        base = instance[len("inner_") :]
        base_type = header_types.get(base)
        if base_type is not None:
            header_types[instance] = base_type
            selector = linkage.selector(base)
            if selector is not None:
                linkage.set_selector(instance, selector)
            return
    # Unknown instance: tolerated -- parsing simply stops there
    # until the type is loaded (matches the JIT parser contract).


def register_header(
    header_types: Dict[str, HeaderType],
    linkage: HeaderLinkageTable,
    name: str,
    spec: dict,
) -> None:
    """Install one header type (and its selector/links) into the given
    schema dictionaries -- live or shadow."""
    fields = [FieldDef(fname, width) for fname, width in spec["fields"]]
    varlen = spec.get("varlen")
    if varlen is not None:
        vname, count_field, unit = varlen
        header_types[name] = HeaderType(
            name, fields, varlen_field=vname, varlen_count=(count_field, unit)
        )
    else:
        header_types[name] = HeaderType(name, fields)
    selector = spec.get("selector")
    if selector is not None:
        linkage.set_selector(name, selector)
    for tag, nxt in spec.get("links", []):
        ensure_instance(header_types, linkage, nxt)
        linkage.add_link(name, nxt, tag)


def table_from_spec(name: str, spec: dict) -> Table:
    """Lower one table spec to a :class:`Table` (shared by live create
    and shadow staging)."""
    if "keys" not in spec:
        raise SwitchError(f"table {name!r} spec carries no key layout")
    return lower_table(
        name,
        [tuple(k) for k in spec["keys"]],
        int(spec.get("size", spec.get("depth", 1024))),
        default_action=spec.get("default_action", "NoAction"),
    )


class IpsaSwitch:
    """The ipbm reference software switch."""

    def __init__(self, n_tsps: int = 8) -> None:
        self.pipeline = ElasticPipeline(n_tsps)
        self.header_types: Dict[str, HeaderType] = {}
        self.linkage = HeaderLinkageTable()
        self.actions: Dict[str, ActionDef] = builtin_actions()
        self.tables: Dict[str, Table] = {}
        self.metadata_defaults: Dict[str, int] = {}
        self.first_header = "ethernet"
        self.packets_in = 0
        self.packets_out = 0
        self.packets_dropped = 0
        self.punted = 0
        # Back-pressure machinery: while an update is in progress the
        # intake is paused and arriving packets wait upstream.
        self.rx_queue: "deque[Tuple[bytes, int]]" = deque()
        self.paused = False
        self.externs = ExternStore()
        self.meters = MeterBank()
        self.clock = 0  # logical time: one tick per injected packet
        # Observability: the registry is the canonical export surface
        # (collectors read the live counters above at collect time);
        # the tracer is opt-in and None on the hot path by default.
        self.drop_reasons: Dict[str, int] = {}
        self.tracer: Optional[PacketTracer] = None
        self.profiler: Optional[Profiler] = None
        # INT instrumentation: both stay None on the untelemetered hot
        # path.  ``int_clock`` stamps ingress/egress timestamps for
        # push_int; ``int_collector`` (duck-typed: observe_strip) is
        # fed by pop_int at sink nodes.
        self.int_clock: Optional[Clock] = None
        self.int_collector = None
        self.int_node: Optional[str] = None
        # Flight recorder: a device-bound handle (duck-typed: record)
        # hung here by HealthEngine.add_source.  Only control-plane
        # paths (txn abort/commit, rollback) write to it -- the packet
        # hot path never reads it.
        self.flight_recorder = None
        self.timelines = TimelineRecorder()
        self.metrics = MetricsRegistry()
        self._packet_bytes = self.metrics.histogram(
            "device.packet_bytes", PACKET_BYTES_BOUNDS
        )
        # The shared dataplane execution core: compiled stage plans,
        # invalidated whenever the pipeline or table set changes.
        self.dp = IpsaCore(self)
        self.dp.register_metrics(self.metrics)
        self.pipeline.on_change = self.dp.invalidate
        self._register_metrics()

    # -- observability -----------------------------------------------------

    def _register_metrics(self) -> None:
        metrics = self.metrics
        metrics.add_collector("device", self._device_samples)
        metrics.add_collector(
            "tsps",
            lambda: (
                s for tsp in self.pipeline.tsps for s in tsp.metrics_samples()
            ),
        )
        metrics.add_collector("tm", lambda: self.pipeline.tm.metrics_samples())
        metrics.add_collector(
            "tables",
            lambda: (
                s
                for table in list(self.tables.values())
                for s in table.metrics_samples()
            ),
        )
        metrics.add_collector("sketches", self._sketch_samples)
        metrics.add_collector("meters", lambda: self.meters.metrics_samples())

    def _device_samples(self):
        yield Sample("device.packets_in", self.packets_in)
        yield Sample("device.packets_out", self.packets_out)
        yield Sample("device.packets_dropped", self.packets_dropped)
        yield Sample("device.punted", self.punted)
        yield Sample("device.rx_queue_depth", len(self.rx_queue), {}, "gauge")
        yield Sample("device.active_tsps", self.active_tsp_count(), {}, "gauge")
        for reason, count in self.drop_reasons.items():
            yield Sample("device.drops", count, {"reason": reason})

    def _sketch_samples(self):
        for name, sketch in self.externs.sketches.items():
            labels = {"sketch": name}
            yield Sample("sketch.updates", sketch.updates, dict(labels))
            yield Sample("sketch.columns", sketch.columns, dict(labels), "gauge")
            yield Sample("sketch.rows", len(sketch.rows), dict(labels), "gauge")

    def note_drop(self, reason: DropReason, count: int = 1) -> None:
        """Attribute ``count`` (copy-level) drops to a taxonomy reason."""
        key = reason.value
        self.drop_reasons[key] = self.drop_reasons.get(key, 0) + count

    def enable_tracing(self, capacity: int = 256) -> PacketTracer:
        """Attach (and return) a per-packet tracer; idempotent."""
        if self.tracer is None:
            self.tracer = PacketTracer(capacity=capacity)
        return self.tracer

    def disable_tracing(self) -> Optional[PacketTracer]:
        """Detach the tracer (hot path returns to the untraced fast
        path); returns it so captured traces stay readable."""
        tracer, self.tracer = self.tracer, None
        return tracer

    def enable_profiling(self, clock: Optional[Clock] = None) -> Profiler:
        """Attach (and return) the wall-time profiler; idempotent."""
        if self.profiler is None:
            self.profiler = Profiler(clock=clock)
        return self.profiler

    def disable_profiling(self) -> Optional[Profiler]:
        """Detach the profiler (hot path returns to the unprofiled
        fast path); returns it so accumulated records stay readable."""
        profiler, self.profiler = self.profiler, None
        return profiler

    def enable_int(self, clock: Optional[Clock] = None) -> Clock:
        """Turn on INT timestamping: the front door stamps
        ``ingress_ts_ns`` on arrivals and ``push_int`` reads this clock
        for egress timestamps.  Idempotent."""
        if self.int_clock is None:
            from repro.obs.clock import MONOTONIC

            self.int_clock = clock if clock is not None else MONOTONIC
        return self.int_clock

    def attach_int_collector(self, collector, node: Optional[str] = None) -> None:
        """Attach a sink-side INT collector; ``pop_int`` reports each
        stripped hop stack to it (duck-typed: ``observe_strip``).
        ``node`` labels this device in the collector's records."""
        self.int_collector = collector
        self.int_node = node

    # -- configuration (the Control Channel Module) -----------------------

    def _register_header(self, name: str, spec: dict) -> None:
        register_header(self.header_types, self.linkage, name, spec)

    def _ensure_instance(self, instance: str) -> None:
        ensure_instance(self.header_types, self.linkage, instance)

    def load_config(self, config: dict) -> None:
        """Initial full load of an rp4bc device configuration."""
        self.header_types.clear()
        self.linkage = HeaderLinkageTable()
        self.actions = builtin_actions()
        self.tables.clear()
        for name, spec in config.get("headers", {}).items():
            self._register_header(name, spec)
        # Re-run link resolution now every type exists.
        for name, spec in config.get("headers", {}).items():
            for tag, nxt in spec.get("links", []):
                self._ensure_instance(nxt)
        self.metadata_defaults = {
            name: 0 for name, _width in config.get("metadata", [])
        }
        for name, spec in config.get("actions", {}).items():
            self.actions[name] = action_from_json(spec)
        for name, spec in config.get("tables", {}).items():
            self._create_table(name, spec)
        self.pipeline.write_templates(config.get("templates", []))
        self.pipeline.configure_selector(
            SelectorConfig.from_json(config.get("selector", {}))
        )
        self.dp.invalidate("load_config")

    def _create_table(self, name: str, spec: dict) -> None:
        self.tables[name] = table_from_spec(name, spec)
        self.dp.invalidate("tables")

    def set_table(self, name: str, table: Table) -> None:
        """Repoint a table name at a different :class:`Table` object.

        The compiled stage plans hold direct table references, so a
        repoint must invalidate them (counted under ``table_repoint``).
        """
        self.tables[name] = table
        self.dp.invalidate("table_repoint")

    # -- traffic ------------------------------------------------------------

    def inject(self, data: bytes, port: int = 0, meter=None) -> Optional[PortOut]:
        """Push one packet through the device."""
        return frontdoor.inject(self.dp, data, port, meter)

    def inject_multi(self, data: bytes, port: int = 0) -> List[PortOut]:
        """Like :meth:`inject`, but returns every copy a multicast
        group produced (unicast packets return a one-element list)."""
        return frontdoor.inject_multi(self.dp, data, port)

    def inject_batch(self, trace, meter=None):
        """Push a :class:`~repro.dp.batch.PacketBatch` (answered by the
        batch of survivors) or a ``(data, port)`` trace (answered by a
        :class:`~repro.dp.frontdoor.BatchResult`) through, amortizing the front door (see
        :func:`repro.dp.frontdoor.inject_batch`)."""
        return frontdoor.inject_batch(self.dp, trace, meter)

    # -- queued intake (back-pressure semantics) -----------------------------

    def enqueue(self, data: bytes, port: int = 0) -> None:
        """Queue a packet at the intake (processed by :meth:`pump`)."""
        self.rx_queue.append((data, port))

    def pump(self, limit: Optional[int] = None) -> List[PortOut]:
        """Process queued packets; a paused intake processes nothing.

        Returns the forwarded outputs (drops are counted, not returned).
        """
        outputs: List[PortOut] = []
        processed = 0
        while self.rx_queue and not self.paused:
            if limit is not None and processed >= limit:
                break
            data, port = self.rx_queue.popleft()
            out = self.inject(data, port)
            processed += 1
            if out is not None:
                outputs.append(out)
        return outputs

    # -- in-service update ---------------------------------------------------

    def drain(self) -> int:
        """Back-pressure drain: flush the TM so no packet is in flight.

        Packets in the rx queue stay there (they are *upstream* of the
        pipeline; back pressure makes them wait out the update).
        """
        return len(self.pipeline.tm.drain())

    def quiesce(self, plan=None) -> List[PortOut]:
        """Complete every in-flight TM packet through ``plan``'s
        egress stages (default: the current plan) and emit it, instead
        of discarding it.

        The transactional commit passes the *pre-flip* plan: packets
        that entered under the old epoch finish under the old plan --
        after the pointer swap, outside the stall window -- so the
        update loses no traffic.  Returns the emitted outputs.
        """
        from repro.dp.exec import run_tsp_plan
        from repro.dp.frontdoor import _emit_one
        from repro.dp.hooks import resolve_hooks

        plan = plan if plan is not None else self.dp.plan()
        hooks = resolve_hooks(self)
        tm = self.pipeline.tm
        outputs: List[PortOut] = []
        while True:
            queued = tm.dequeue()
            if queued is None:
                return outputs
            dropped = False
            for tsp_plan in plan.egress:
                run_tsp_plan(tsp_plan, queued, self, hooks)
                if queued.metadata.get("drop"):
                    self.note_drop(DropReason.EGRESS_ACTION)
                    dropped = True
                    break
            if not dropped:
                outputs.append(_emit_one(self.dp, hooks, None, queued))

    def begin_update(self, update: dict) -> "IpsaUpdateTransaction":
        """Open a prepare/validate/commit/abort transaction for an
        rp4bc UpdatePlan JSON (see :mod:`repro.runtime.txn`)."""
        from repro.runtime.txn import IpsaUpdateTransaction

        return IpsaUpdateTransaction(self, update)

    def apply_update(self, update: dict) -> UpdateStats:
        """In-service update from an rp4bc UpdatePlan JSON.

        Expected keys: ``templates`` (for rewritten TSPs only),
        ``selector``, ``link_headers`` [[pre, tag, next]],
        ``unlink_headers`` [[pre, tag]], ``new_actions`` {name: spec},
        ``new_tables`` {name: {keys, size}}, ``freed_tables`` [name].

        This is the transactional one-shot: shadow state is prepared
        and validated while old plans keep serving, then committed with
        a stall window covering only the pointer flip.  Any pre-commit
        failure aborts with zero live-state mutation and re-raises the
        original exception.
        """
        txn = self.begin_update(update)
        txn.prepare()
        txn.validate()
        return txn.commit()

    # -- introspection ---------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"switch has no table {name!r}") from None

    def active_tsp_count(self) -> int:
        return len(self.pipeline.active_tsps())
