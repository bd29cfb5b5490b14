"""rp4fc: the rP4 front-end compiler (paper Sec. 3.2).

"rp4fc takes the HLIR, the target-independent output of p4c, as
input, and outputs the semantically equivalent rP4 code.  rp4fc also
outputs the APIs for controller to access the tables at runtime."

The transformation is structural:

* each P4 ``table.apply()`` site becomes one rP4 *stage* (named after
  the table; a second site of one table gets a ``_2`` suffix) whose matcher
  predicate is the conjunction of the enclosing ``if`` conditions --
  so a guard is evaluated again at every stage under it, and a program
  in which a table changes what its enclosing ``if`` reads before
  another table under that ``if`` runs is rejected (P4 evaluates the
  ``if`` once);
* the P4 parser state machine becomes per-header ``implicit parser``
  clauses (the header linkage);
* actions and tables carry over unchanged (mini-P4 reuses the rP4
  declaration AST).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.compiler.api_gen import generate_api_source
from repro.compiler.dependency import STAR, expr_reads, guard_headers, stage_effects
from repro.lang.expr import EBin, EUnary, EValid, Expr, SApply, SAssign, SCall, SIf, Stmt
from repro.p4.hlir import Hlir, HlirTable
from repro.rp4.ast import (
    HeaderDecl,
    MatcherArm,
    Rp4Program,
    Rp4Table,
    StageDecl,
    StructDecl,
    UserFunc,
)
from repro.rp4.printer import print_rp4


class Rp4fcError(Exception):
    """Raised when HLIR has no rP4 equivalent."""


@dataclass
class Rp4fcResult:
    """Front-end outputs: the rP4 program, its text, and the table APIs."""

    program: Rp4Program
    rp4_source: str
    api_source: str


def _conjoin(conds: List[Expr]) -> Optional[Expr]:
    if not conds:
        return None
    combined = conds[0]
    for cond in conds[1:]:
        combined = EBin("&&", combined, cond)
    return combined


def _referenced_headers(hlir: Hlir, table: HlirTable, cond: Optional[Expr]) -> List[str]:
    """Header instances the stage's parser sub-module must provide."""
    names: List[str] = []

    def note(scope: str) -> None:
        if scope in hlir.headers and scope not in names:
            names.append(scope)

    for header in guard_headers(cond):
        note(header)
    for ref in sorted(expr_reads(cond)):
        note(ref.partition(".")[0])
    for ref, _, _ in table.keys:
        note(ref.partition(".")[0])
    if not names and hlir.first_header:
        names.append(hlir.first_header)
    return names


def _executor_for(table: HlirTable) -> Dict[object, str]:
    executor: Dict[object, str] = {}
    tag = 1
    for action in table.actions:
        if action == table.default_action and action == "NoAction":
            continue
        executor[tag] = action
        tag += 1
    if not executor:
        executor[1] = "NoAction"
    executor["default"] = table.default_action
    return executor


def rp4fc(hlir: Hlir) -> Rp4fcResult:
    """Transform HLIR into semantically equivalent rP4 plus table APIs."""
    program = Rp4Program()

    # Headers: fields plus the implicit-parser linkage from parse edges.
    for instance, fields in hlir.headers.items():
        decl = HeaderDecl(name=instance, fields=list(fields))
        edges = [e for e in hlir.parse_edges if e.instance == instance]
        real = [e for e in edges if e.tag >= 0]
        if real:
            selectors = {e.selector for e in real}
            if len(selectors) > 1:
                raise Rp4fcError(
                    f"header {instance!r} selects on multiple fields "
                    f"{sorted(selectors)}; rP4 allows one selector"
                )
            decl.selector = real[0].selector
            decl.links = sorted((e.tag, e.next_instance) for e in real)
        program.headers[instance] = decl

    if hlir.metadata:
        program.structs["metadata"] = StructDecl(
            name="metadata", members=list(hlir.metadata), alias="meta"
        )

    program.actions = dict(hlir.actions)
    for table in hlir.tables.values():
        program.tables[table.name] = Rp4Table(
            name=table.name,
            keys=[(ref, kind) for ref, kind, _ in table.keys],
            size=table.size,
            actions=list(table.actions),
            default_action=table.default_action,
        )

    ingress = _stages_from_flow(hlir, program, hlir.ingress_flow, "ingress")
    egress = _stages_from_flow(hlir, program, hlir.egress_flow, "egress")
    for stage in ingress:
        program.ingress_stages[stage.name] = stage
    for stage in egress:
        program.egress_stages[stage.name] = stage

    if ingress:
        program.user_funcs["ingress"] = UserFunc(
            "ingress", [s.name for s in ingress]
        )
        program.ingress_entry = ingress[0].name
    if egress:
        program.user_funcs["egress"] = UserFunc(
            "egress", [s.name for s in egress]
        )
        program.egress_entry = egress[0].name

    return Rp4fcResult(
        program=program,
        rp4_source=print_rp4(program),
        api_source=generate_api_source(program),
    )


#: Primitives that add or remove a header, i.e. change its validity.
_VALIDITY_PRIMITIVES = {
    "push_srh": "srh", "pop_srh": "srh", "push_int": "int_shim", "pop_int": "int_shim"
}


def _valid_reads(expr: Optional[Expr]) -> Set[str]:
    """``<header>.isValid()`` for every validity bit ``expr`` reads."""
    if isinstance(expr, EValid):
        return {f"{expr.header}.isValid()"}
    if isinstance(expr, EUnary):
        return _valid_reads(expr.operand)
    if isinstance(expr, EBin):
        return _valid_reads(expr.left) | _valid_reads(expr.right)
    return set()


def _check_guard(program, cond: Expr, stages: List[StageDecl], side: str):
    """Refuse an ``if`` whose tables change what it reads mid-branch.

    Each stage re-evaluates the guard, so once a table under the ``if``
    writes a field (or a header's validity) the condition reads, every
    later table under it -- either branch -- could see the other
    outcome than P4's single evaluation gave."""
    reads = expr_reads(cond) | _valid_reads(cond)
    for stage in stages[:-1]:
        writes = stage_effects(stage, program).writes | {
            f"{_VALIDITY_PRIMITIVES[stmt.name]}.isValid()"
            for action in stage.executor.values()
            for stmt in getattr(program.actions.get(action), "body", ())
            if isinstance(stmt, SCall) and stmt.name in _VALIDITY_PRIMITIVES
        }
        clash = sorted(reads if STAR in writes else reads & writes)
        if clash:
            raise Rp4fcError(
                f"{side}: table {stage.name!r} writes {clash[0]!r}, which "
                "its enclosing if reads; the rP4 stages after it would "
                "evaluate that if again and could take the other branch"
            )


def _stages_from_flow(
    hlir: Hlir, program: Rp4Program, flow: List[Stmt], side: str
) -> List[StageDecl]:
    stages: List[StageDecl] = []

    def walk(stmts: List[Stmt], conds: List[Expr]) -> None:
        for stmt in stmts:
            if isinstance(stmt, SApply):
                table = hlir.tables.get(stmt.table)
                if table is None:
                    raise Rp4fcError(f"{side}: applies unknown table {stmt.table!r}")
                cond = _conjoin(conds)
                arms = [MatcherArm(cond, stmt.table)]
                if cond is not None:
                    arms.append(MatcherArm(None, None))
                # A table applied twice gets one stage per apply site.
                taken = {s.name for s in stages} | set(program.ingress_stages)
                name, count = stmt.table, 1
                while name in taken:
                    count += 1
                    name = f"{stmt.table}_{count}"
                stages.append(
                    StageDecl(
                        name=name,
                        parser=_referenced_headers(hlir, table, cond),
                        matcher=arms,
                        executor=_executor_for(table),
                    )
                )
            elif isinstance(stmt, SIf):
                first = len(stages)
                walk(stmt.then_body, conds + [stmt.cond])
                walk(stmt.else_body, conds + [EUnary("!", stmt.cond)])
                _check_guard(program, stmt.cond, stages[first:], side)
            elif isinstance(stmt, (SAssign, SCall)):
                raise Rp4fcError(
                    f"{side}: bare statement {stmt!r} outside an action has "
                    "no rP4 stage equivalent; move it into an action"
                )
            else:
                raise Rp4fcError(f"{side}: unsupported statement {stmt!r}")

    walk(flow, [])
    return stages
