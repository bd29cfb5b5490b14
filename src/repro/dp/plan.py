"""Compiled stage plans: specialize the dataplane at commit time.

The paper's runtime-programmability story is that a TSP is reprogrammed
by *writing template parameters*, not by recompiling -- which means
everything the per-packet loop needs can be resolved the moment a
template commits (or a PISA design loads) instead of once per packet:

* table names      -> :class:`~repro.tables.table.Table` object refs
* executor tags    -> ``(action name, ActionDef)`` pairs
* matcher arms     -> prebound predicate closures
* parser clauses   -> a precomputed parse list
* selector state   -> the ingress/egress TSP schedules themselves

Both architectures compile to the same :class:`DevicePlan` of
:class:`TspPlan` units.  PISA is a plan *shape*, not a second
dataplane: its units are the physical stages rp4fc's stages were
packed into, its stages parse nothing (the plan's front parser
extracted every header before stage 0), entries dispatch by action
name instead of executor tag, there is no TM between ingress and
egress, and a deparser serializes.

The compiled artifacts live in :class:`repro.dp.core.DataplaneCore`'s
plan cache and are invalidated -- cache-coherence style -- by exactly
the runtime events that can change them: template writes, selector
reconfiguration, table create/free/repoint, and full (re)loads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class CompiledArm:
    """One matcher arm, ready to fire: predicate + resolved table."""

    __slots__ = ("index", "predicate", "expr", "table_name", "table")

    def __init__(self, index, predicate, table_name, table, expr=None) -> None:
        self.index = index
        self.predicate = predicate
        #: Source predicate Expr (``None`` for an always-true arm);
        #: the columnar compiler re-lowers it to a vector kernel.
        self.expr = expr
        #: ``None`` marks an empty arm (explicit no-op on match).
        self.table_name: Optional[str] = table_name
        #: Resolved at compile time; ``None`` with a non-None name
        #: means the device has no such table -- the executor then
        #: raises the same ``KeyError`` the per-packet dict lookup did.
        self.table = table


class StagePlan:
    """One hosted stage: parse set, arms, dispatch key -> action map."""

    __slots__ = (
        "name", "parse_list", "arms", "tag_actions", "default_pair", "dispatch"
    )

    def __init__(self, name, parse_list, arms, tag_actions, default_pair,
                 dispatch="tag"):
        self.name = name
        self.parse_list: List[str] = parse_list
        self.arms: Tuple[CompiledArm, ...] = arms
        #: dispatch key -> (action name, ActionDef or None)
        self.tag_actions: Dict[object, tuple] = tag_actions
        #: The pair a key missing from ``tag_actions`` runs; ``None`` on
        #: a by-name stage, where a missing name is an unknown action.
        self.default_pair: Optional[tuple] = default_pair
        #: The lookup result's field that keys ``tag_actions``: the
        #: executor ``"tag"`` (IPSA) or the entry's ``"action"`` name
        #: (PISA; a miss carries the table's default action name).
        self.dispatch: str = dispatch


class TspPlan:
    """One TSP's (or PISA physical stage's) compiled stages plus its
    live stats sink.  ``kind`` is ``"tsp"`` or ``"stage"`` (PISA: no
    per-stage parser, the front parser already ran)."""

    __slots__ = ("index", "side", "label", "kind", "stats", "stages")

    def __init__(self, index, side, label, stats, stages, kind="tsp"):
        self.index = index
        self.side = side
        self.label = label
        self.kind = kind
        self.stats = stats
        self.stages: Tuple[StagePlan, ...] = stages


class DevicePlan:
    """The whole device schedule: ingress units, then egress units.

    ``parser`` is PISA's front parser (``None``: stages parse on
    demand), ``tm`` the traffic manager between the sides (``None``:
    PISA has none) and ``deparser`` PISA's egress serializer."""

    __slots__ = ("ingress", "egress", "parser", "tm", "deparser")

    def __init__(self, ingress, egress, parser=None, tm=None, deparser=None):
        self.ingress: Tuple[TspPlan, ...] = ingress
        self.egress: Tuple[TspPlan, ...] = egress
        self.parser = parser
        self.tm = tm
        self.deparser = deparser


def _resolve_pair(name: str, actions: dict) -> tuple:
    return (name, actions.get(name))


def compile_stage(stage, device, dispatch: str = "tag") -> StagePlan:
    """A :class:`~repro.ipsa.tsp.StageRuntime` -> executable plan.

    ``dispatch="action"`` compiles PISA's shape: no parse list, and
    every device action keyed by its own name."""
    arms = []
    for index, (predicate, expr, table_name) in enumerate(stage.arms):
        table = None if table_name is None else device.tables.get(table_name)
        arms.append(CompiledArm(index, predicate, table_name, table, expr))
    actions = device.actions
    if dispatch == "action":
        return StagePlan(
            stage.name, [], tuple(arms),
            {name: (name, action) for name, action in actions.items()},
            None, dispatch,
        )
    tag_actions = {
        tag: _resolve_pair(name, actions)
        for tag, name in stage.executor.items()
    }
    default_name = stage.executor.get("default", "NoAction")
    return StagePlan(
        name=stage.name,
        parse_list=list(stage.parser_headers),
        arms=tuple(arms),
        tag_actions=tag_actions,
        default_pair=_resolve_pair(default_name, actions),
    )


def compile_tsp(tsp, device, kind: str = "tsp", dispatch: str = "tag"):
    return TspPlan(
        index=tsp.index,
        side=tsp.side,
        label=f"{kind}{tsp.index}",
        stats=tsp.stats,
        stages=tuple(
            compile_stage(stage, device, dispatch) for stage in tsp.stages
        ),
        kind=kind,
    )


def compile_ipsa_plan(device) -> DevicePlan:
    """Compile the selector's current TSP schedule for an IpsaSwitch."""
    pipeline = device.pipeline
    return DevicePlan(
        ingress=tuple(compile_tsp(t, device) for t in pipeline.ingress_tsps()),
        egress=tuple(compile_tsp(t, device) for t in pipeline.egress_tsps()),
        tm=pipeline.tm,
    )


def compile_fixed_plan(device) -> DevicePlan:
    """Compile a PisaSwitch's placed stages: PISA's plan shape."""
    if device.pipeline is None:
        raise RuntimeError("switch has no design loaded")
    stages = device.pipeline.stages

    def side(name):
        return tuple(
            compile_tsp(s, device, "stage", "action")
            for s in stages
            if s.side == name
        )

    return DevicePlan(
        side("ingress"), side("egress"),
        parser=device.parser, deparser=device.deparser,
    )


# -- identity ------------------------------------------------------------


def describe_plan(plan) -> tuple:
    """A structural description of a compiled plan (nested tuples).

    Object identities (table/action refs) are reduced to ``id()`` so
    two descriptions compare equal exactly when the plans resolve the
    same stages against the same live objects -- which is what the
    transaction abort tests assert ("compiled plans unchanged").
    """
    if not isinstance(plan, DevicePlan):
        raise TypeError(f"not a compiled plan: {plan!r}")
    return (
        tuple(_describe_tsp(t) for t in plan.ingress),
        tuple(_describe_tsp(t) for t in plan.egress),
    )


def _describe_tsp(tsp: TspPlan) -> tuple:
    return (
        tsp.index,
        tsp.side,
        tuple(
            (
                stage.name,
                tuple(stage.parse_list),
                tuple(
                    (arm.index, arm.table_name, id(arm.table))
                    for arm in stage.arms
                ),
                tuple(
                    (tag, name, id(action))
                    for tag, (name, action) in sorted(
                        stage.tag_actions.items(), key=lambda kv: str(kv[0])
                    )
                ),
                stage.default_pair and (
                    stage.default_pair[0], id(stage.default_pair[1])
                ),
            )
            for stage in tsp.stages
        ),
    )
