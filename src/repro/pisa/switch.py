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
from repro.dp.frontdoor import Device
from repro.dp.plan import compile_fixed_plan
from repro.obs.metrics import Sample
from repro.p4.hlir import Hlir, build_hlir
from repro.p4.parser import parse_p4
from repro.pisa.deparser import Deparser
from repro.pisa.parser import FrontEndParser
from repro.pisa.pipeline import FixedPipeline
from repro.tables.actions import ActionDef
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


class PisaSwitch(Device):
    """A PISA behavioral switch configured from HLIR."""

    def __init__(self, n_stages: Optional[int] = None) -> None:
        self.n_stages = n_stages
        self.parser: Optional[FrontEndParser] = None
        self.pipeline: Optional[FixedPipeline] = None
        self.deparser = Deparser()
        super().__init__(compile_fixed_plan)
        self.metrics.add_collector("pisa", self._pisa_samples)

    def _pisa_samples(self):
        if self.parser is not None:
            yield Sample("parser.packets", self.parser.stats.packets)
            yield Sample(
                "parser.headers_extracted", self.parser.stats.headers_extracted
            )
        if self.pipeline is not None:
            yield Sample("pipeline.packets", self.pipeline.stats.packets)
            yield Sample("pipeline.lookups", self.pipeline.stats.lookups)
            yield Sample("pipeline.actions_run", self.pipeline.stats.actions_run)

    # -- configuration ----------------------------------------------------

    def load(self, program: Union[str, Hlir]) -> None:
        """Full (re)load from P4 source or HLIR. Drops every table.

        The design is built whole before anything is swapped in, so a
        program that fails to parse, translate or fit leaves the old
        design serving."""
        self.install(build_design(program, self.n_stages))
        self.dp.invalidate("load")

    def install(self, design: PisaDesign) -> None:
        """Point the switch at a built design (a load, a reload commit).

        The front parser's graph is published as the device's own
        ``header_types`` / ``linkage`` / ``first_header``, so nothing
        downstream asks which family it holds."""
        parser = self.parser = design.parser
        self.header_types = parser.header_types
        self.linkage = parser.linkage
        self.first_header = parser.first_header
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
