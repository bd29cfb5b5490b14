"""PisaSwitch: the bmv2-analog baseline device.

The crucial contrast with :class:`repro.ipsa.switch.IpsaSwitch` is
:meth:`reload`: PISA cannot patch a running pipeline, so *any* change
-- even one new table -- swaps the entire configuration and
repopulates **every** table.  Table 1's loading-time gap comes from
exactly this difference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.compiler.lowering import builtin_actions, lower_action, lower_table
from repro.dp import frontdoor
from repro.dp.core import PisaCore
from repro.dp.frontdoor import PACKET_BYTES_BOUNDS, BatchResult, PortOut
from repro.obs.clock import Clock
from repro.obs.metrics import MetricsRegistry, Sample
from repro.obs.prof import Profiler
from repro.obs.timeline import TimelineRecorder
from repro.obs.trace import DropReason, PacketTracer
from repro.p4.hlir import Hlir, build_hlir
from repro.p4.parser import parse_p4
from repro.pisa.deparser import Deparser
from repro.pisa.parser import FrontEndParser
from repro.pisa.pipeline import FixedPipeline
from repro.tables.actions import ActionDef
from repro.tables.meters import MeterBank
from repro.tables.registers import ExternStore
from repro.tables.table import Table, TableEntry


@dataclass
class PisaDesign:
    """Everything one P4 program configures on a PISA chip."""

    parser: FrontEndParser
    actions: Dict[str, ActionDef]
    tables: Dict[str, Table]
    metadata_defaults: Dict[str, int]
    pipeline: FixedPipeline


def build_design(
    program: Union[str, Hlir], n_stages: Optional[int] = None
) -> PisaDesign:
    """Parse (if source), lower and place one P4 program, touching no
    device: :meth:`PisaSwitch.load` and a transactional reload's shadow
    build both start here."""
    hlir = build_hlir(parse_p4(program)) if isinstance(program, str) else program
    actions = builtin_actions()
    for name, action in hlir.actions.items():
        actions[name] = lower_action(action)
    return PisaDesign(
        parser=FrontEndParser(hlir),
        actions=actions,
        tables={
            name: lower_table(
                name, list(table.keys), table.size,
                default_action=table.default_action,
            )
            for name, table in hlir.tables.items()
        },
        metadata_defaults={name: 0 for name, _ in hlir.metadata},
        pipeline=FixedPipeline(hlir, n_stages),
    )


@dataclass
class ReloadStats:
    """Cost of a full configuration swap."""

    tables_repopulated: int = 0
    entries_repopulated: int = 0
    seconds: float = 0.0
    #: Traffic-visible window: only the pointer flip, now that the
    #: rebuild happens against shadow state.
    stall_seconds: float = 0.0


class PisaSwitch:
    """A PISA behavioral switch configured from HLIR."""

    def __init__(self, n_stages: Optional[int] = None) -> None:
        self.n_stages = n_stages
        self.parser: Optional[FrontEndParser] = None
        self.pipeline: Optional[FixedPipeline] = None
        self.deparser = Deparser()
        self.tables: Dict[str, Table] = {}
        self.actions = builtin_actions()
        self.metadata_defaults: Dict[str, int] = {}
        self.packets_in = 0
        self.packets_out = 0
        self.packets_dropped = 0
        self.punted = 0
        self.externs = ExternStore()
        self.meters = MeterBank()
        self.clock = 0
        self.drop_reasons: Dict[str, int] = {}
        self.tracer: Optional[PacketTracer] = None
        self.profiler: Optional[Profiler] = None
        # INT instrumentation (see IpsaSwitch): None on the hot path.
        self.int_clock: Optional[Clock] = None
        self.int_collector = None
        self.int_node: Optional[str] = None
        self.timelines = TimelineRecorder()
        self.metrics = MetricsRegistry()
        self._packet_bytes = self.metrics.histogram(
            "device.packet_bytes", PACKET_BYTES_BOUNDS
        )
        # The shared dataplane execution core (compiled stage plans),
        # invalidated on every full (re)load.
        self.dp = PisaCore(self)
        self.dp.register_metrics(self.metrics)
        self._register_metrics()

    # -- observability -----------------------------------------------------

    def _register_metrics(self) -> None:
        metrics = self.metrics
        metrics.add_collector("device", self._device_samples)
        metrics.add_collector(
            "tables",
            lambda: (
                s
                for table in list(self.tables.values())
                for s in table.metrics_samples()
            ),
        )
        metrics.add_collector("meters", lambda: self.meters.metrics_samples())

    def _device_samples(self):
        yield Sample("device.packets_in", self.packets_in)
        yield Sample("device.packets_out", self.packets_out)
        yield Sample("device.packets_dropped", self.packets_dropped)
        yield Sample("device.punted", self.punted)
        for reason, count in self.drop_reasons.items():
            yield Sample("device.drops", count, {"reason": reason})
        if self.parser is not None:
            yield Sample("parser.packets", self.parser.stats.packets)
            yield Sample(
                "parser.headers_extracted", self.parser.stats.headers_extracted
            )
        if self.pipeline is not None:
            yield Sample("pipeline.packets", self.pipeline.stats.packets)
            yield Sample("pipeline.lookups", self.pipeline.stats.lookups)
            yield Sample("pipeline.actions_run", self.pipeline.stats.actions_run)
        for name, sketch in self.externs.sketches.items():
            yield Sample("sketch.updates", sketch.updates, {"sketch": name})

    def note_drop(self, reason: DropReason, count: int = 1) -> None:
        key = reason.value
        self.drop_reasons[key] = self.drop_reasons.get(key, 0) + count

    def enable_tracing(self, capacity: int = 256) -> PacketTracer:
        if self.tracer is None:
            self.tracer = PacketTracer(capacity=capacity)
        return self.tracer

    def disable_tracing(self) -> Optional[PacketTracer]:
        tracer, self.tracer = self.tracer, None
        return tracer

    def enable_profiling(self, clock: Optional[Clock] = None) -> Profiler:
        """Attach (and return) the wall-time profiler; idempotent."""
        if self.profiler is None:
            self.profiler = Profiler(clock=clock)
        return self.profiler

    def disable_profiling(self) -> Optional[Profiler]:
        profiler, self.profiler = self.profiler, None
        return profiler

    def enable_int(self, clock: Optional[Clock] = None) -> Clock:
        """Turn on INT timestamping (see IpsaSwitch); idempotent."""
        if self.int_clock is None:
            from repro.obs.clock import MONOTONIC

            self.int_clock = clock if clock is not None else MONOTONIC
        return self.int_clock

    def disable_int(self) -> Optional[Clock]:
        clock, self.int_clock = self.int_clock, None
        return clock

    def attach_int_collector(self, collector, node: Optional[str] = None) -> None:
        """Attach a sink-side INT collector fed by ``pop_int``."""
        self.int_collector = collector
        self.int_node = node

    # -- configuration ----------------------------------------------------

    def load(self, program: Union[str, Hlir]) -> None:
        """Full (re)load from P4 source or HLIR. Drops every table.

        The design is built whole before anything is swapped in, so a
        program that fails to parse, translate or fit leaves the old
        design serving."""
        self.install(build_design(program, self.n_stages))
        self.dp.invalidate("load")

    def install(self, design: PisaDesign) -> None:
        """Point the switch at a built design (a load, a reload commit)."""
        self.parser = design.parser
        self.actions = design.actions
        self.tables = design.tables
        self.metadata_defaults = design.metadata_defaults
        self.pipeline = design.pipeline

    def begin_reload(
        self,
        program: Union[str, Hlir],
        entries: Optional[Dict[str, List[TableEntry]]] = None,
    ):
        """Stage a full configuration swap as a transaction.

        The new design is parsed, lowered, repopulated, and compiled
        against shadow objects while the old pipeline keeps serving;
        ``commit()`` swaps the pointers.  See
        :class:`repro.runtime.txn.PisaReloadTransaction`.
        """
        from repro.runtime.txn import PisaReloadTransaction

        return PisaReloadTransaction(self, program, entries)

    def reload(
        self,
        program: Union[str, Hlir],
        entries: Dict[str, List[TableEntry]],
    ) -> ReloadStats:
        """Swap the whole design in and repopulate every table.

        ``entries`` is the controller's shadow copy of the desired
        table state -- PISA loses all entries on reload, so they must
        all be pushed again (the paper: "the P4 design flow also needs
        to populate all the tables after loading the design").  The
        rebuild is transactional: a parse or lowering failure leaves
        the old design serving, and the traffic-visible stall is only
        the pointer flip (``ReloadStats.stall_seconds``).
        """
        txn = self.begin_reload(program, entries)
        started = time.perf_counter()
        txn.prepare()
        txn.validate()
        stats = txn.commit()
        stats.seconds = time.perf_counter() - started
        return stats

    # -- traffic --------------------------------------------------------------

    def inject(self, data: bytes, port: int = 0) -> Optional[PortOut]:
        if self.parser is None or self.pipeline is None:
            raise RuntimeError("switch has no design loaded")
        return frontdoor.inject(self.dp, data, port)

    def inject_batch(self, trace) -> BatchResult:
        """Push a ``(data, port)`` trace through, amortizing the front
        door (see :func:`repro.dp.frontdoor.inject_batch`)."""
        if self.parser is None or self.pipeline is None:
            raise RuntimeError("switch has no design loaded")
        return frontdoor.inject_batch(self.dp, trace)

    def set_table(self, name: str, table: Table) -> None:
        """Repoint a table name at a different :class:`Table` object.

        The compiled stage plan holds direct table references, so a
        repoint must invalidate it (counted under ``table_repoint``).
        """
        self.tables[name] = table
        self.dp.invalidate("table_repoint")

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"switch has no table {name!r}") from None
