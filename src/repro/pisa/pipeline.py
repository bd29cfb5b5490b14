"""The fixed PISA stage layout: placement, and nothing else.

Placement packs the program's tables into the fixed number of
physical stages (the PISA back-end compiler's job): rp4fc lowers the
P4 control flow into one rP4 stage per ``apply`` site, and
``plan_merge(MergeMode.FULL)`` packs those stages into physical
stages.  Unlike IPSA there is no elastic boundary: ingress and egress
stage budgets are silicon properties, and a design that needs more
stages than the chip has simply fails to fit (one of the two drawbacks
Sec. 2.3 lists).

Execution lives in :mod:`repro.dp`: each physical stage compiles to
one :class:`~repro.dp.plan.TspPlan` that the shared stage executor
(:func:`repro.dp.exec.run_tsp_plan`) runs, with PISA's shape -- front
parse, no TM, deparser, by-name dispatch -- carried as plan data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.compiler.dependency import analyze_dependencies
from repro.compiler.merge import MergeMode, plan_merge
from repro.compiler.rp4fc import rp4fc
from repro.ipsa.tsp import StageRuntime, TspStats
from repro.p4.hlir import Hlir


class FitError(Exception):
    """The design needs more physical stages than the chip has."""


@dataclass
class PisaStage:
    """One physical stage: the rp4fc stages (and tables) packed into it."""

    index: int
    side: str
    tables: List[str] = field(default_factory=list)
    stages: List[StageRuntime] = field(default_factory=list)
    stats: TspStats = field(default_factory=TspStats)


def place_stages(hlir: Hlir, n_stages: Optional[int] = None) -> List[PisaStage]:
    """Pack the design's rp4fc stages into physical stages via the same
    dependency machinery the rP4 flow uses (a stand-in for the
    proprietary PISA back-end compiler)."""
    program = rp4fc(hlir).program
    ingress = list(program.ingress_stages)
    egress = list(program.egress_stages)
    deps = analyze_dependencies(program, ingress + egress)
    plan = plan_merge(ingress, egress, deps, mode=MergeMode.FULL)
    if n_stages is not None and plan.tsp_count > n_stages:
        raise FitError(
            f"design needs {plan.tsp_count} stages but the chip has "
            f"{n_stages} (PISA cannot elastically rebalance)"
        )
    decls = program.all_stages()
    return [
        PisaStage(
            index=index,
            side=side,
            tables=[decls[name].matcher[0].table for name in group],
            stages=[StageRuntime.from_decl(decls[name]) for name in group],
        )
        for index, (side, group) in enumerate(plan.all_groups())
    ]


class FixedPipeline:
    """A placed design's physical stages and their counters."""

    def __init__(self, hlir: Hlir, n_stages: Optional[int] = None) -> None:
        self.hlir = hlir
        self.stages = place_stages(hlir, n_stages)

    @property
    def stats(self) -> TspStats:
        """Whole-pipeline counters: every packet enters stage 0, and
        lookups and actions sum over the stages."""
        stages = self.stages
        total = TspStats(packets=stages[0].stats.packets if stages else 0)
        for stage in stages:
            total.account_batch(
                lookups=stage.stats.lookups, actions_run=stage.stats.actions_run
            )
        return total

    def stage_count(self, side: Optional[str] = None) -> int:
        if side is None:
            return len(self.stages)
        return sum(1 for s in self.stages if s.side == side)
