"""The single dataplane execution loop.

Exactly one copy of the stage-loop semantics exists here, for both
architectures: :func:`run_tsp_plan` runs an IPSA TSP and a PISA
physical stage alike, and instrumentation is a hook parameter
(:mod:`repro.dp.hooks`).  The loops run over *compiled plans*
(:mod:`repro.dp.plan`): every table, action, and predicate reference
was resolved when the template committed (or the design loaded), so
the per-packet cost is the semantics and nothing else.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.obs.trace import DropReason


class PipelineOutcome:
    """What the pipeline did with one injected packet.

    ``outputs`` are the surviving packet copies (one for unicast, many
    for multicast).  ``drop_reason`` is set when NO copy survived;
    ``copy_drops`` carries one reason per individually dropped egress
    copy (a multicast packet can lose copies and still forward).  The
    front door turns these into device counters and trace annotations
    -- the pipeline itself no longer reaches into the device, which is
    what lets the switch record the *real* reason instead of the old
    ``DropReason.UNKNOWN`` fallback.
    """

    __slots__ = ("outputs", "drop_reason", "copy_drops")

    def __init__(
        self,
        outputs: Tuple,
        drop_reason: Optional[DropReason] = None,
        copy_drops: Tuple[DropReason, ...] = (),
    ) -> None:
        self.outputs = outputs
        self.drop_reason = drop_reason
        self.copy_drops = copy_drops


def run_tsp_plan(plan, packet, device, hooks, meter=None) -> None:
    """Run one compiled TSP's hosted stages against the packet.

    ``meter`` (if given) receives per-TSP parse/lookup events; the
    hardware throughput model uses it to price cycles without
    duplicating the execution semantics.
    """
    stats = plan.stats
    stats.packets += 1
    metadata = packet.metadata
    ctx = hooks.unit_begin(plan)
    try:
        for stage in plan.stages:
            if metadata.get("drop"):
                return
            parsed = hooks.parse(plan, stage, packet, device)
            if parsed:
                stats.headers_parsed += parsed
                if meter is not None:
                    meter.parsed(plan.index, parsed)
            for arm in stage.arms:
                if not arm.predicate(packet):
                    continue
                if arm.table_name is None:
                    hooks.empty_arm(plan, stage, arm)
                    break  # empty arm: explicit no-op
                table = arm.table
                if table is None:
                    # Unresolved at compile time: fail exactly like the
                    # old per-packet dict lookup did.
                    table = device.tables[arm.table_name]
                result = hooks.match(plan, stage, arm, table, packet)
                stats.lookups += 1
                if meter is not None:
                    meter.lookup(plan.index, arm.table_name)
                key = getattr(result, stage.dispatch)
                pair = stage.tag_actions.get(key)
                if pair is None:
                    # A by-name stage has no default: the name is unknown.
                    pair = stage.default_pair or (key, None)
                name, action = pair
                if action is None:
                    action = device.actions[name]
                hooks.execute(
                    plan, stage, name, action, packet, result, device
                )
                stats.actions_run += 1
                break  # first matching arm wins
    finally:
        hooks.unit_end(ctx, plan)


def run_egress(plan, packet, device, hooks, meter=None) -> bool:
    """Run one copy through the egress units; ``False`` if one dropped it."""
    for unit in plan.egress:
        run_tsp_plan(unit, packet, device, hooks, meter)
        if packet.metadata.get("drop"):
            return False
    return True


def run_pipeline(plan, packet, device, hooks, meter=None) -> PipelineOutcome:
    """Front parse (when the plan has a parser) -> ingress units ->
    traffic manager (when it has one) -> egress units, per copy.

    Without a TM the packet goes straight on as its own single egress
    copy."""
    if plan.parser is not None:
        hooks.front_parse(plan.parser, packet)
    metadata = packet.metadata
    for unit in plan.ingress:
        run_tsp_plan(unit, packet, device, hooks, meter)
        if metadata.get("drop"):
            return PipelineOutcome((), DropReason.INGRESS_ACTION)
    tm = plan.tm
    copies = 1
    if tm is not None:
        copies = hooks.tm_enqueue(tm, packet)
        if copies == 0:
            group_id = int(metadata.get("mcast_grp", 0))  # type: ignore[arg-type]
            if group_id and not tm.group(group_id):
                return PipelineOutcome((), DropReason.MCAST_UNKNOWN_GROUP)
            return PipelineOutcome((), DropReason.TM_TAIL_DROP)
    outputs: List = []
    copy_drops: List[DropReason] = []
    for _ in range(copies):
        copy = packet if tm is None else hooks.tm_dequeue(tm)
        if run_egress(plan, copy, device, hooks, meter):
            outputs.append(copy)
        else:
            copy_drops.append(DropReason.EGRESS_ACTION)
    reason = DropReason.EGRESS_ACTION if copy_drops and not outputs else None
    return PipelineOutcome(tuple(outputs), reason, tuple(copy_drops))
