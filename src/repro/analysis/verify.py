"""rp4verify: symbolic differential verification of staged updates.

The paper's runtime-programmability pitch means every update lands on
a *live* pipeline, so "is this update safe?" must be answered before
the txn engine flips an epoch.  rp4lint answers it with syntactic
heuristics; this module answers it semantically, by symbolically
executing the **live device** and the **txn shadow view** side by side
over one shared symbolic input packet and comparing what each would do
to every feasible flow class.

Architecture (two tiers):

1. **Structural tier** (always on, cheap): diff the staged device view
   against the live one -- stage content, table identity, extern
   access patterns -- and subtract what the
   :class:`~repro.compiler.rp4bc.UpdatePlan` *claims* to change.  Any
   unclaimed drift (a tampered update message, a corrupted channel, a
   compiler bug) is RP4L503; extern hazards are RP4L504/RP4L505.

2. **Symbolic tier** (runs when drift exists, or on demand): enumerate
   feasible parse/match/execute paths with interval domains over
   header fields (widths from :mod:`repro.net.headers` layouts),
   coupling the two sides through shared input constraints and shared
   table-outcome picks.  Every divergent flow class is classified
   *intended* (explained by claimed plan elements) or *unintended*
   (touches unclaimed drift, RP4L501), and gets a concrete **witness
   packet** synthesized from its domain constraints.  Witnesses are
   confirmed by a side-effect-free replay interpreter over both views
   -- only a confirmed witness earns error severity, so every reported
   divergence is backed by a packet that observably reproduces it.

The symbolic evaluator mirrors :func:`repro.dp.exec.run_tsp_plan`
semantics exactly: drop check before every stage, JIT parsing with
reachability pruning, first-matching-arm-wins, executor tag maps with
default fallback, and break-after-action.

Soundness notes (documented, test-pinned):

* Table outcomes branch over the tags of *currently installed*
  entries plus miss; a table populated only after commit contributes
  just its miss/default behavior.
* Multicast replication and TM tail drop are not modeled; the
  ``mcast_grp`` intrinsic is compared as an observable instead.
* Stateful externs (sketches, meters, entry counters) are havocked
  with side-symmetric terms -- identical programs stay provably
  equivalent, and real state races surface through the hazard tier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.diag import Diagnostic, Severity, Span, make
from repro.compiler.dependency import PRIMITIVE_EFFECTS, STAR
from repro.lang.expr import EBin, ECall, EConst, ERef, EUnary, EValid
from repro.net.headers import srh_capacity
from repro.net.packet import INTRINSIC_METADATA
from repro.tables import actions as vm

__all__ = [
    "VerifyConfig",
    "VerifyReport",
    "FlowClass",
    "Witness",
    "DeviceView",
    "verify_views",
    "verify_txn",
    "claimed_entities",
]

#: Fallback width for metadata fields (rP4 metadata is declared with a
#: width, but the device view only keeps defaults; 64 bits is a safe
#: over-approximation for interval reasoning).
_META_WIDTH = 64

#: Extern primitives that pop a header instance (the symbolic action
#: interpreter mirrors their validity effect).
_PRIM_REMOVES: Dict[str, Tuple[str, ...]] = {
    "pop_srh": ("srh",),
    "pop_int": ("int_shim",),
}


# --------------------------------------------------------------------------
# Device views
# --------------------------------------------------------------------------


class DeviceView:
    """A uniform, read-only view of one side of the differential.

    Wraps either a live :class:`~repro.ipsa.switch.IpsaSwitch` or a
    prepared :class:`~repro.runtime.txn.IpsaUpdateTransaction` shadow;
    both expose the same schedule/table/action/schema surface to the
    symbolic evaluator and the replay interpreter.
    """

    def __init__(self, label, schedule, tables, actions, metadata_defaults,
                 header_types, linkage, first_header) -> None:
        self.label = label
        #: ``[("ingress"|"egress", StageRuntime), ...]`` in pipeline order.
        self.schedule = schedule
        self.tables = tables
        self.actions = actions
        self.metadata_defaults = metadata_defaults
        self.header_types = header_types
        self.linkage = linkage
        self.first_header = first_header

    @classmethod
    def from_switch(cls, switch) -> "DeviceView":
        pipeline = switch.pipeline
        schedule = [
            ("ingress", stage)
            for tsp in pipeline.ingress_tsps()
            for stage in tsp.stages
        ] + [
            ("egress", stage)
            for tsp in pipeline.egress_tsps()
            for stage in tsp.stages
        ]
        return cls(
            "live", schedule, switch.tables, switch.actions,
            switch.metadata_defaults, switch.header_types, switch.linkage,
            switch.first_header,
        )

    @classmethod
    def from_txn(cls, txn) -> "DeviceView":
        view = txn._view
        if view is None:
            raise ValueError("transaction has no prepared shadow state")
        pipeline = view.pipeline
        schedule = [
            ("ingress", stage)
            for tsp in pipeline.ingress_tsps()
            for stage in tsp.stages
        ] + [
            ("egress", stage)
            for tsp in pipeline.egress_tsps()
            for stage in tsp.stages
        ]
        return cls(
            "shadow", schedule, view.tables, view.actions,
            view.metadata_defaults, txn._header_types, txn._linkage,
            view.first_header,
        )

    def merged_metadata(self) -> Dict[str, object]:
        merged = dict(INTRINSIC_METADATA)
        merged.update(self.metadata_defaults)
        return merged


# --------------------------------------------------------------------------
# Interval domains over input fields
# --------------------------------------------------------------------------


class Domain:
    """A union of closed integer intervals over a fixed-width field."""

    __slots__ = ("width", "ivs")

    def __init__(self, width: int, ivs: Optional[Tuple[Tuple[int, int], ...]] = None):
        self.width = width
        if ivs is None:
            ivs = ((0, (1 << width) - 1),)
        self.ivs = ivs

    @property
    def empty(self) -> bool:
        return not self.ivs

    def constrain(self, op: str, value: int) -> "Domain":
        """Refine by ``field <op> value``; may produce an empty domain."""
        if op == "==":
            keep = tuple(
                (value, value) for lo, hi in self.ivs if lo <= value <= hi
            )[:1]
            return Domain(self.width, keep)
        if op == "!=":
            out: List[Tuple[int, int]] = []
            for lo, hi in self.ivs:
                if lo <= value <= hi:
                    if lo < value:
                        out.append((lo, value - 1))
                    if value < hi:
                        out.append((value + 1, hi))
                else:
                    out.append((lo, hi))
            return Domain(self.width, tuple(out))
        if op == "<":
            return self._clip(None, value - 1)
        if op == "<=":
            return self._clip(None, value)
        if op == ">":
            return self._clip(value + 1, None)
        if op == ">=":
            return self._clip(value, None)
        raise ValueError(f"unsupported domain op {op!r}")

    def _clip(self, lo_bound: Optional[int], hi_bound: Optional[int]) -> "Domain":
        out: List[Tuple[int, int]] = []
        for lo, hi in self.ivs:
            if lo_bound is not None:
                lo = max(lo, lo_bound)
            if hi_bound is not None:
                hi = min(hi, hi_bound)
            if lo <= hi:
                out.append((lo, hi))
        return Domain(self.width, tuple(out))

    def contains(self, value: int) -> bool:
        return any(lo <= value <= hi for lo, hi in self.ivs)

    def pick(self) -> int:
        """A concrete representative (smallest feasible value)."""
        return self.ivs[0][0] if self.ivs else 0

    def __repr__(self) -> str:
        return f"Domain(w={self.width}, {list(self.ivs)!r})"


# Symbolic values are hashable nested tuples:
#   ("const", v)        -- a known integer
#   ("in", ref)         -- the pristine wire/input value of a field
#   ("d", tag, ...)     -- a derived term with deterministic,
#                          side-symmetric provenance
def _const(v: int) -> tuple:
    return ("const", v)


def _is_const(t: tuple) -> bool:
    return t[0] == "const"


def _cval(t: tuple) -> int:
    return t[1]


class _PathError(Exception):
    """The modeled program would raise on this path (e.g. a read of an
    unparsed header); the path becomes an error leaf."""

    def __init__(self, kind: str) -> None:
        super().__init__(kind)
        self.kind = kind


class PathState:
    """Constraints shared between the live and shadow executions of
    one symbolic packet: input-field domains, opaque-term truth
    assignments, and coupled table-outcome picks."""

    __slots__ = ("doms", "atoms", "picks", "obligations")

    def __init__(self) -> None:
        self.doms: Dict[str, Domain] = {}
        self.atoms: Dict[tuple, bool] = {}
        self.picks: Dict[tuple, int] = {}
        #: ``(table_name, side_label, key_terms, tag)`` -- what the
        #: witness synthesizer must try to realize concretely.
        self.obligations: List[tuple] = []

    def clone(self) -> "PathState":
        twin = PathState.__new__(PathState)
        twin.doms = dict(self.doms)
        twin.atoms = dict(self.atoms)
        twin.picks = dict(self.picks)
        twin.obligations = list(self.obligations)
        return twin


class SideState:
    """One side's mutable execution state along a path."""

    __slots__ = ("view", "cur", "valid", "parsed", "next_header", "removed",
                 "inserted", "trace", "error")

    def __init__(self, view: DeviceView) -> None:
        self.view = view
        self.cur: Dict[str, tuple] = {}
        self.valid: Set[str] = set()
        self.parsed: List[str] = []
        self.next_header: Optional[str] = view.first_header
        self.removed: Set[str] = set()
        self.inserted: Set[str] = set()
        self.trace: List[tuple] = []
        self.error: Optional[str] = None

    def clone(self) -> "SideState":
        twin = SideState.__new__(SideState)
        twin.view = self.view
        twin.cur = dict(self.cur)
        twin.valid = set(self.valid)
        twin.parsed = list(self.parsed)
        twin.next_header = self.next_header
        twin.removed = set(self.removed)
        twin.inserted = set(self.inserted)
        twin.trace = list(self.trace)
        twin.error = self.error
        return twin


class _Budget:
    __slots__ = ("limit", "leaves", "truncated")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.leaves = 0
        self.truncated = False

    def spend(self) -> bool:
        """Account one leaf; False once the budget is gone."""
        if self.leaves >= self.limit:
            self.truncated = True
            return False
        self.leaves += 1
        return True


def _field_width(view: DeviceView, ref: str) -> int:
    scope, _, fname = ref.partition(".")
    if scope == "meta":
        return _META_WIDTH
    htype = view.header_types.get(scope)
    if htype is None:
        return _META_WIDTH
    try:
        return htype.field_width(fname)
    except KeyError:
        return _META_WIDTH


def _constrain(ps: PathState, view: DeviceView, ref: str, op: str,
               value: int) -> bool:
    """Refine the input domain of ``ref``; False when infeasible."""
    dom = ps.doms.get(ref)
    if dom is None:
        dom = Domain(_field_width(view, ref))
    dom = dom.constrain(op, value)
    if dom.empty:
        return False
    ps.doms[ref] = dom
    return True


def _read(ps: PathState, side: SideState, ref: str) -> tuple:
    """Symbolic :meth:`Packet.read` (raises :class:`_PathError` where
    the real read would raise)."""
    scope, _, fname = ref.partition(".")
    if not fname:
        raise _PathError(f"malformed ref {ref!r}")
    cached = side.cur.get(ref)
    if cached is not None:
        return cached
    if scope == "meta":
        if fname in ("ingress_port", "packet_length"):
            return ("in", ref)
        merged = side.view.merged_metadata()
        if fname not in merged:
            raise _PathError(f"unknown metadata field {fname!r}")
        default = merged[fname]
        return _const(default if isinstance(default, int) else 0)
    if scope not in side.valid:
        raise _PathError(f"read of unparsed header {scope!r}")
    return ("in", ref)


# --------------------------------------------------------------------------
# Symbolic JIT parsing
# --------------------------------------------------------------------------


def _sym_ensure_parsed(ps: PathState, side: SideState, names: Sequence[str],
                       out: List[Tuple[PathState, SideState]]) -> None:
    """Mirror :meth:`Packet.ensure_parsed`, branching over the header
    linkage at each selector read.  Selector values are always pristine
    wire bytes (``parse_one`` reads them eagerly at parse time, before
    any executor can mutate the instance), so every branch refines the
    *shared* input domains -- which is exactly what couples the two
    sides' parse behavior through one symbolic packet."""
    view = side.view
    remaining = {n for n in names if n not in side.valid}
    while True:
        if not remaining or side.next_header is None:
            out.append((ps, side))
            return
        frontier = side.next_header
        if frontier not in remaining and remaining.isdisjoint(
            view.linkage.reachable_set(frontier)
        ):
            out.append((ps, side))
            return
        htype = view.header_types.get(frontier)
        if htype is None:
            side.next_header = None
            out.append((ps, side))
            return
        side.valid.add(frontier)
        side.parsed.append(frontier)
        remaining.discard(frontier)
        selector = view.linkage.selector(frontier)
        if selector is None:
            side.next_header = None
            continue
        ref = f"{frontier}.{selector}"
        links = view.linkage.links_from(frontier)
        for link in links:
            ps2, side2 = ps.clone(), side.clone()
            if _constrain(ps2, view, ref, "==", link.tag):
                side2.next_header = link.next
                _sym_ensure_parsed(ps2, side2, remaining, out)
        # The no-match continuation: the selector matches none of the
        # linkage tags, so the parse frontier is exhausted.
        feasible = True
        for link in links:
            if not _constrain(ps, view, ref, "!=", link.tag):
                feasible = False
                break
        if not feasible:
            return
        side.next_header = None
        # loop continues with the same remaining set


# --------------------------------------------------------------------------
# Predicate branching
# --------------------------------------------------------------------------

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_NEGATE = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
}
_CMP_FNS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _eval_lang(ps: PathState, side: SideState, expr) -> tuple:
    """Evaluate a matcher (lang) expression to a symbolic term."""
    if isinstance(expr, EConst):
        return _const(expr.value)
    if isinstance(expr, ERef):
        if not expr.is_dotted:
            raise _PathError(f"unbound bare reference {expr.ref!r}")
        return _read(ps, side, expr.ref)
    if isinstance(expr, EValid):
        return _const(1 if expr.header in side.valid else 0)
    if isinstance(expr, EUnary):
        inner = _eval_lang(ps, side, expr.operand)
        if _is_const(inner):
            if expr.op == "!":
                return _const(0 if _cval(inner) else 1)
            return _const(-_cval(inner))
        return ("d", expr.op, inner)
    if isinstance(expr, EBin):
        left = _eval_lang(ps, side, expr.left)
        right = _eval_lang(ps, side, expr.right)
        if _is_const(left) and _is_const(right):
            if expr.op in _ARITH:
                return _const(_ARITH[expr.op](_cval(left), _cval(right)))
            if expr.op in _CMP_FNS:
                return _const(1 if _CMP_FNS[expr.op](_cval(left), _cval(right)) else 0)
            if expr.op == "&&":
                return _const(1 if (_cval(left) and _cval(right)) else 0)
            if expr.op == "||":
                return _const(1 if (_cval(left) or _cval(right)) else 0)
        return ("d", expr.op, left, right)
    if isinstance(expr, ECall):
        args = tuple(_eval_lang(ps, side, a) for a in expr.args)
        return ("d", "call", expr.name, args)
    raise _PathError(f"unsupported expression {expr!r}")


def _atom_key(op: str, left: tuple, right: tuple) -> Tuple[tuple, bool]:
    """Canonical (atom, polarity) for an opaque comparison."""
    if op in ("==", "!="):
        a, b = sorted((left, right))
        return ("cmp", "==", a, b), op == "=="
    if op == "<":
        return ("cmp", "<", left, right), True
    if op == "<=":
        return ("cmp", "<", right, left), False  # a<=b  <=>  not (b<a)
    if op == ">":
        return ("cmp", "<", right, left), True
    if op == ">=":
        return ("cmp", "<", left, right), False
    return ("truthy", op, left, right), True


def _assume_atom(ps: PathState, key: tuple, want: bool,
                 out: List[Tuple[PathState, SideState]], side: SideState) -> None:
    have = ps.atoms.get(key)
    if have is None:
        ps.atoms[key] = want
        out.append((ps, side))
    elif have == want:
        out.append((ps, side))
    # else: contradiction -- infeasible, drop the branch


def _assume(ps: PathState, side: SideState, expr, want: bool,
            out: List[Tuple[PathState, SideState]]) -> None:
    """Split (ps, side) into feasible refinements where ``expr`` is
    truthy (``want=True``) or falsy."""
    if expr is None:  # unconditional arm
        if want:
            out.append((ps, side))
        return
    try:
        if isinstance(expr, EUnary) and expr.op == "!":
            _assume(ps, side, expr.operand, not want, out)
            return
        if isinstance(expr, EBin) and expr.op in ("&&", "||"):
            is_and = expr.op == "&&"
            if want == is_and:
                # both must hold (AND-true) / both must fail (OR-false)
                mids: List[Tuple[PathState, SideState]] = []
                _assume(ps, side, expr.left, want, mids)
                for ps2, side2 in mids:
                    _assume(ps2, side2, expr.right, want, out)
            else:
                # short-circuit split on the left operand
                _assume(ps.clone(), side.clone(), expr.left, not is_and, out)
                mids = []
                _assume(ps, side, expr.left, is_and, mids)
                for ps2, side2 in mids:
                    _assume(ps2, side2, expr.right, want, out)
            return
        if isinstance(expr, EBin) and expr.op in _CMP_OPS:
            left = _eval_lang(ps, side, expr.left)
            right = _eval_lang(ps, side, expr.right)
            op = expr.op if want else _NEGATE[expr.op]
            if _is_const(left) and _is_const(right):
                if _CMP_FNS[op](_cval(left), _cval(right)):
                    out.append((ps, side))
                return
            # Interval refinement when one operand is a pristine input.
            if left[0] == "in" and _is_const(right):
                if _constrain(ps, side.view, left[1], op, _cval(right)):
                    out.append((ps, side))
                return
            if right[0] == "in" and _is_const(left):
                flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
                if _constrain(ps, side.view, right[1], flip, _cval(left)):
                    out.append((ps, side))
                return
            key, polarity = _atom_key(op, left, right)
            _assume_atom(ps, key, polarity, out, side)
            return
        # Everything else: evaluate to a term and branch on truthiness.
        term = _eval_lang(ps, side, expr)
        if _is_const(term):
            if bool(_cval(term)) == want:
                out.append((ps, side))
            return
        if term[0] == "in":
            op = "!=" if want else "=="
            if _constrain(ps, side.view, term[1], op, 0):
                out.append((ps, side))
            return
        _assume_atom(ps, ("truthy", term), want, out, side)
    except _PathError as exc:
        side.error = exc.kind
        side.trace.append(("error", exc.kind))
        out.append((ps, side))


def _branch_truthy(ps: PathState, side: SideState, term: tuple
                   ) -> List[Tuple[PathState, SideState, bool]]:
    """Branch on the truthiness of an arbitrary term (drop checks)."""
    if _is_const(term):
        return [(ps, side, bool(_cval(term)))]
    if term[0] == "in":
        results = []
        ps_t, side_t = ps.clone(), side.clone()
        if _constrain(ps_t, side.view, term[1], "!=", 0):
            results.append((ps_t, side_t, True))
        if _constrain(ps, side.view, term[1], "==", 0):
            results.append((ps, side, False))
        return results
    key = ("truthy", term)
    have = ps.atoms.get(key)
    if have is not None:
        return [(ps, side, have)]
    ps_t, side_t = ps.clone(), side.clone()
    ps_t.atoms[key] = True
    ps.atoms[key] = False
    return [(ps_t, side_t, True), (ps, side, False)]


# --------------------------------------------------------------------------
# Symbolic action execution
# --------------------------------------------------------------------------


def _write(side: SideState, ref: str, term: tuple) -> None:
    scope, _, fname = ref.partition(".")
    if not fname:
        raise _PathError(f"malformed ref {ref!r}")
    if scope != "meta" and scope not in side.valid:
        raise _PathError(f"write to unparsed header {scope!r}")
    side.cur[ref] = term


def _eval_vm(ps: PathState, side: SideState, expr,
             params: Dict[str, tuple]) -> tuple:
    """Evaluate an action-VM expression to a symbolic term."""
    if isinstance(expr, vm.Const):
        return _const(expr.value)
    if isinstance(expr, vm.Param):
        term = params.get(expr.name)
        if term is None:
            raise _PathError(f"unbound action parameter {expr.name!r}")
        return term
    if isinstance(expr, vm.FieldRef):
        return _read(ps, side, expr.ref)
    if isinstance(expr, vm.BinOp):
        left = _eval_vm(ps, side, expr.left, params)
        right = _eval_vm(ps, side, expr.right, params)
        if _is_const(left) and _is_const(right):
            fn = _ARITH.get(expr.op)
            if fn is not None:
                return _const(fn(_cval(left), _cval(right)))
        return ("d", expr.op, left, right)
    if isinstance(expr, vm.HashExpr):
        terms = tuple(_read(ps, side, ref) for ref in expr.fields)
        if all(_is_const(t) for t in terms):
            from repro.net.fields import mask_to_width
            return _const(
                mask_to_width(vm.flow_hash([_cval(t) for t in terms]), expr.width)
            )
        return ("d", "hash", expr.fields, terms, expr.width)
    raise _PathError(f"unsupported VM expression {expr!r}")


def _exec_action(ps: PathState, side: SideState, stage_name: str,
                 action_name: str, action, params: Dict[str, tuple],
                 entry_present: bool, pick_key: tuple
                 ) -> List[Tuple[PathState, SideState]]:
    """Run an action's ops symbolically.  Stateful externs produce
    deterministic, side-symmetric havoc terms keyed by their site, so
    identical programs evaluate to identical terms.  Primitives with
    data-dependent outcomes (TTL expiry) fork the path, so the result
    is a list of refined states."""
    states: List[Tuple[PathState, SideState]] = [(ps, side)]
    for op_index, op in enumerate(action.ops):
        site = (stage_name, action_name, op_index)
        nxt: List[Tuple[PathState, SideState]] = []
        for ps_i, side_i in states:
            if side_i.error is not None:
                nxt.append((ps_i, side_i))
                continue
            try:
                nxt.extend(_exec_op(
                    ps_i, side_i, op, site, params, entry_present, pick_key
                ))
            except _PathError as exc:
                side_i.error = exc.kind
                side_i.trace.append(("error", exc.kind))
                nxt.append((ps_i, side_i))
        states = nxt
    return states


def _exec_op(ps: PathState, side: SideState, op, site: tuple,
             params: Dict[str, tuple], entry_present: bool,
             pick_key: tuple) -> List[Tuple[PathState, SideState]]:
    if isinstance(op, vm.SetField):
        _write(side, op.dest, _eval_vm(ps, side, op.expr, params))
    elif isinstance(op, vm.RemoveHeaderOp):
        if op.header not in side.valid:
            raise _PathError(f"remove of unparsed header {op.header!r}")
        _remove_sym(side, op.header)
    elif isinstance(op, vm.CountAndMark):
        if not entry_present:
            raise _PathError("count_and_mark without a matched entry")
        threshold = params.get(op.threshold_param)
        if threshold is None:
            raise _PathError(f"unbound parameter {op.threshold_param!r}")
        old = _read(ps, side, op.dest)
        _write(side, op.dest, ("d", "count_mark", site, pick_key, threshold, old))
    elif isinstance(op, vm.SketchUpdate):
        keys = tuple(_read(ps, side, ref) for ref in op.fields)
        _write(side, op.dest, ("d", "sketch", op.sketch, site, keys))
    elif isinstance(op, vm.MarkAbove):
        threshold = params.get(op.threshold_param)
        if threshold is None:
            raise _PathError(f"unbound parameter {op.threshold_param!r}")
        src = _read(ps, side, op.src)
        old = _read(ps, side, op.dest)
        if _is_const(src) and _is_const(threshold):
            if _cval(src) > _cval(threshold):
                _write(side, op.dest, _const(1))
        else:
            _write(side, op.dest, ("d", "mark_above", site, src, threshold, old))
    elif isinstance(op, vm.Police):
        old = _read(ps, side, op.dest)
        _write(side, op.dest, ("d", "police", op.meter, site, old))
    elif isinstance(op, vm.PyPrimitive):
        return _exec_primitive(ps, side, op.name, site)
    else:
        raise _PathError(f"unknown op {type(op).__name__}")
    return [(ps, side)]


def _remove_sym(side: SideState, header: str) -> None:
    side.valid.discard(header)
    side.removed.add(header)
    side.cur = {
        ref: t for ref, t in side.cur.items()
        if ref.partition(".")[0] != header
    }


def _insert_sym(side: SideState, header: str) -> None:
    side.valid.add(header)
    side.inserted.add(header)


def _exec_primitive(ps: PathState, side: SideState, name: str,
                    site: tuple) -> List[Tuple[PathState, SideState]]:
    """Symbolic models for the named extern library.

    Every library primitive guards itself with ``packet.is_valid``
    checks (see :mod:`repro.tables.primitives`), and validity is fully
    concrete along a symbolic path -- so each model is deterministic
    and, crucially, *side-symmetric*: identical programs produce
    identical terms, keeping equivalent flow classes provably equal.
    Data-dependent outcomes (TTL expiry, segments-left exhaustion)
    fork the path when the operand is a pristine input -- refining the
    *shared* domains so each resulting flow class gets a realizable
    witness -- and havoc symmetrically otherwise."""
    keep = [(ps, side)]
    if name in ("no_op", "srv6_transit"):
        return keep
    if name == "drop":
        side.cur["meta.drop"] = _const(1)
        return keep
    if name == "mark_to_cpu":
        side.cur["meta.to_cpu"] = _const(1)
        return keep
    if name == "decrement_ttl":
        ref = (
            "ipv4.ttl" if "ipv4" in side.valid
            else "ipv6.hop_limit" if "ipv6" in side.valid
            else None
        )
        if ref is None:
            return keep
        ttl = _read(ps, side, ref)
        if _is_const(ttl):
            if _cval(ttl) <= 1:
                side.cur["meta.drop"] = _const(1)
                side.cur[ref] = _const(0)
            else:
                side.cur[ref] = _const(_cval(ttl) - 1)
            return keep
        if ttl[0] == "in":
            forks: List[Tuple[PathState, SideState]] = []
            ps_live, side_live = ps.clone(), side.clone()
            if _constrain(ps_live, side.view, ttl[1], ">=", 2):
                side_live.cur[ref] = ("d", "dec_ttl", ttl)
                forks.append((ps_live, side_live))
            if _constrain(ps, side.view, ttl[1], "<=", 1):
                side.cur["meta.drop"] = _const(1)
                side.cur[ref] = _const(0)
                forks.append((ps, side))
            return forks
        old_drop = _read(ps, side, "meta.drop")
        side.cur[ref] = ("d", "dec_ttl", ttl)
        side.cur["meta.drop"] = ("d", "ttl_expired", ttl, old_drop)
        return keep
    if name == "srv6_end":
        if "srh" not in side.valid or "ipv6" not in side.valid:
            side.cur["meta.drop"] = _const(1)
            return keep
        n_segs = srh_capacity(side.view.header_types["srh"])
        left = _read(ps, side, "srh.segments_left")
        if _is_const(left):
            if 1 <= _cval(left) <= n_segs:
                side.cur["srh.segments_left"] = _const(_cval(left) - 1)
                side.cur["ipv6.dst_addr"] = ("d", "srv6_segment", site, left)
            else:
                side.cur["meta.drop"] = _const(1)
            return keep
        if left[0] == "in":
            forks = []
            ps_fwd, side_fwd = ps.clone(), side.clone()
            if _constrain(ps_fwd, side_fwd.view, left[1], ">=", 1) and (
                _constrain(ps_fwd, side_fwd.view, left[1], "<=", n_segs)
            ):
                side_fwd.cur["srh.segments_left"] = ("d", "srv6_dec", left)
                side_fwd.cur["ipv6.dst_addr"] = ("d", "srv6_segment", site, left)
                forks.append((ps_fwd, side_fwd))
            # Exhausted, or past the list (RFC 8754 Sec. 4.3.1.1): drop.
            for op, bound in (("==", 0), (">", n_segs)):
                ps_drop, side_drop = ps.clone(), side.clone()
                if _constrain(ps_drop, side.view, left[1], op, bound):
                    side_drop.cur["meta.drop"] = _const(1)
                    forks.append((ps_drop, side_drop))
            return forks
        old_drop = _read(ps, side, "meta.drop")
        side.cur["srh.segments_left"] = ("d", "srv6_dec", left)
        side.cur["meta.drop"] = ("d", "srv6_exhausted", left, n_segs, old_drop)
        side.cur["ipv6.dst_addr"] = ("d", "srv6_segment", site, left)
        return keep
    if name == "pop_srh":
        if "srh" not in side.valid:
            return keep
        next_hdr = _read(ps, side, "srh.next_hdr")
        _remove_sym(side, "srh")
        if "ipv6" in side.valid:
            plen = _read(ps, side, "ipv6.payload_len")
            side.cur["ipv6.next_hdr"] = next_hdr
            side.cur["ipv6.payload_len"] = ("d", "shrink", plen, site)
        return keep
    if name == "push_srh":
        if "ipv6" not in side.valid or "srh" in side.valid:
            return keep
        old_next = _read(ps, side, "ipv6.next_hdr")
        plen = _read(ps, side, "ipv6.payload_len")
        _insert_sym(side, "srh")
        side.cur["srh.next_hdr"] = old_next
        side.cur["srh.hdr_ext_len"] = _const(0)
        side.cur["srh.routing_type"] = _const(4)
        side.cur["srh.segments_left"] = _const(0)
        side.cur["srh.last_entry"] = _const(0)
        side.cur["ipv6.next_hdr"] = _const(43)
        if _is_const(plen):
            side.cur["ipv6.payload_len"] = _const(_cval(plen) + 8)
        else:
            side.cur["ipv6.payload_len"] = ("d", "+", plen, _const(8))
        return keep
    if name == "push_int":
        if "ethernet" not in side.valid:
            side.cur["meta.drop"] = _const(1)
            return keep
        from repro.net.headers import INT_ETHERTYPE
        if "int_shim" not in side.valid:
            orig = _read(ps, side, "ethernet.ethertype")
            _insert_sym(side, "int_shim")
            side.cur["int_shim.orig_ethertype"] = orig
            side.cur["int_shim.hop_count"] = _const(0)
            side.cur["ethernet.ethertype"] = _const(INT_ETHERTYPE)
        hops = _read(ps, side, "int_shim.hop_count")
        if _is_const(hops):
            side.cur["int_shim.hop_count"] = _const(_cval(hops) + 1)
        else:
            side.cur["int_shim.hop_count"] = ("d", "+", hops, _const(1))
        return keep
    if name == "pop_int":
        if "int_shim" not in side.valid:
            return keep
        orig = _read(ps, side, "int_shim.orig_ethertype")
        _remove_sym(side, "int_shim")
        if "ethernet" in side.valid:
            side.cur["ethernet.ethertype"] = orig
        return keep
    # Unknown primitive: conservative read-write-all havoc, applied
    # symmetrically so only genuinely divergent programs differ.
    reads, writes = PRIMITIVE_EFFECTS.get(name, ({STAR}, {STAR}))
    read_terms = tuple(
        (ref, _read(ps, side, ref))
        for ref in sorted(r for r in reads if r != STAR)
        if ref.partition(".")[0] == "meta"
        or ref.partition(".")[0] in side.valid
    )
    for header in _PRIM_REMOVES.get(name, ()):
        if header in side.valid:
            _remove_sym(side, header)
    if STAR in writes:
        for ref in list(side.cur):
            side.cur[ref] = ("d", "prim*", name, site, ref, read_terms)
        side.cur["meta._havoc"] = ("d", "prim*", name, site, read_terms)
        return keep
    for ref in sorted(writes):
        scope = ref.partition(".")[0]
        if scope != "meta" and scope not in side.valid:
            _insert_sym(side, scope)
        side.cur[ref] = ("d", "prim", name, site, ref, read_terms)
    return keep


# --------------------------------------------------------------------------
# Symbolic stage/pipeline execution
# --------------------------------------------------------------------------


def _executor_action(stage, tag: int) -> str:
    name = stage.executor.get(tag)
    if name is None:
        name = stage.executor.get("default", "NoAction")
    return name


def _apply_table(ps: PathState, side: SideState, stage, table_name: str,
                 shared_tables: FrozenSet[str],
                 out: List[Tuple[PathState, SideState]]) -> None:
    view = side.view
    table = view.tables.get(table_name)
    if table is None:
        side.error = f"unknown table {table_name!r}"
        side.trace.append(("error", side.error))
        out.append((ps, side))
        return
    try:
        keys = tuple(_read(ps, side, kf.ref) for kf in table.key)
    except _PathError as exc:
        side.error = exc.kind
        side.trace.append(("error", exc.kind))
        out.append((ps, side))
        return
    namespace = "shared" if table_name in shared_tables else view.label
    pick_key = ("pick", namespace, table_name, keys)
    installed_tags = sorted({e.tag for e in table.entries()} - {0})
    chosen = ps.picks.get(pick_key)
    outcomes = [chosen] if chosen is not None else installed_tags + [0]
    for tag in outcomes:
        ps2 = ps if len(outcomes) == 1 else ps.clone()
        side2 = side if len(outcomes) == 1 else side.clone()
        ps2.picks[pick_key] = tag
        if chosen is None:
            ps2.obligations.append((table_name, view.label, keys, tag))
        action_name = _executor_action(stage, tag)
        action = view.actions.get(action_name)
        if action is None:
            side2.error = f"unknown action {action_name!r}"
            side2.trace.append(("error", side2.error))
            out.append((ps2, side2))
            continue
        params: Dict[str, tuple] = {}
        broken = False
        for pname, pwidth in action.params:
            if tag == 0:
                if pname not in table.default_data:
                    side2.error = f"missing default parameter {pname!r}"
                    side2.trace.append(("error", side2.error))
                    out.append((ps2, side2))
                    broken = True
                    break
                from repro.net.fields import mask_to_width
                params[pname] = _const(
                    mask_to_width(table.default_data[pname], pwidth)
                )
            else:
                params[pname] = ("d", "entrydata", pick_key, tag, pname)
        if broken:
            continue
        side2.trace.append(
            ("apply", stage.name, table_name, tag, action_name)
        )
        out.extend(_exec_action(
            ps2, side2, stage.name, action_name, action, params,
            entry_present=(tag != 0), pick_key=pick_key,
        ))


def _exec_stage(ps: PathState, side: SideState, stage,
                shared_tables: FrozenSet[str],
                out: List[Tuple[PathState, SideState]]) -> None:
    parsed: List[Tuple[PathState, SideState]] = []
    _sym_ensure_parsed(ps, side, stage.parser_headers, parsed)

    def run_arms(ps2: PathState, side2: SideState, index: int) -> None:
        if index >= len(stage.arms):
            out.append((ps2, side2))  # no arm matched: stage is a no-op
            return
        _compiled, expr, table_name = stage.arms[index]
        fires: List[Tuple[PathState, SideState]] = []
        _assume(ps2.clone(), side2.clone(), expr, True, fires)
        for ps3, side3 in fires:
            if side3.error is not None:
                out.append((ps3, side3))
                continue
            if table_name is None:
                side3.trace.append(("arm", stage.name, index, None))
                out.append((ps3, side3))  # empty arm: explicit no-op
            else:
                _apply_table(ps3, side3, stage, table_name, shared_tables, out)
        skips: List[Tuple[PathState, SideState]] = []
        _assume(ps2, side2, expr, False, skips)
        for ps3, side3 in skips:
            if side3.error is not None:
                out.append((ps3, side3))
            else:
                run_arms(ps3, side3, index + 1)

    for ps2, side2 in parsed:
        run_arms(ps2, side2, 0)


def _run_side(ps: PathState, side: SideState,
              shared_tables: FrozenSet[str],
              budget: _Budget) -> List[Tuple[PathState, SideState]]:
    """Run one side's full schedule; returns the feasible leaves."""
    leaves: List[Tuple[PathState, SideState]] = []
    schedule = side.view.schedule

    def at_stage(index: int, ps2: PathState, side2: SideState) -> None:
        if side2.error is not None or index >= len(schedule):
            if budget.spend():
                leaves.append((ps2, side2))
            return
        try:
            drop = _read(ps2, side2, "meta.drop")
        except _PathError as exc:
            side2.error = exc.kind
            if budget.spend():
                leaves.append((ps2, side2))
            return
        for ps3, side3, dropped in _branch_truthy(ps2, side2, drop):
            if dropped:
                if budget.spend():
                    leaves.append((ps3, side3))
                continue
            if budget.truncated:
                return
            nxt: List[Tuple[PathState, SideState]] = []
            _exec_stage(ps3, side3, schedule[index][1], shared_tables, nxt)
            for ps4, side4 in nxt:
                at_stage(index + 1, ps4, side4)

    at_stage(0, ps, side)
    return leaves


# --------------------------------------------------------------------------
# Observables and classification
# --------------------------------------------------------------------------

_OBS_META = ("meta.egress_spec", "meta.to_cpu", "meta.mcast_grp")


def _observe(ps: PathState, side: SideState) -> tuple:
    """The externally observable outcome of one side along a path."""
    if side.error is not None:
        return ("error", side.error)
    drop = side.cur.get("meta.drop", _const(0))
    if _is_const(drop) and _cval(drop):
        return ("drop",)
    meta = tuple(side.cur.get(ref, _const(0)) for ref in _OBS_META)
    fields = frozenset(
        (ref, term)
        for ref, term in side.cur.items()
        if ref.partition(".")[0] != "meta"
        and ref.partition(".")[0] in side.valid
    )
    return (
        "out", drop, meta, fields,
        frozenset(side.removed), frozenset(side.inserted),
    )


def _trace_entities(events: Sequence[tuple]) -> Set[str]:
    entities: Set[str] = set()
    for event in events:
        if event[0] == "apply":
            entities.add(f"stage:{event[1]}")
            entities.add(f"table:{event[2]}")
        elif event[0] == "arm":
            entities.add(f"stage:{event[1]}")
    return entities


def _diff_entities(live_events: Sequence[tuple],
                   shadow_events: Sequence[tuple]) -> Set[str]:
    """Entities named by events present on one side but not the other."""
    from collections import Counter
    lc, sc = Counter(live_events), Counter(shadow_events)
    differing = [e for e in (lc - sc) | (sc - lc)]
    return _trace_entities(differing)


# --------------------------------------------------------------------------
# Structural diff and claims
# --------------------------------------------------------------------------


def _stage_canon(stage) -> tuple:
    return (
        stage.name,
        tuple(stage.parser_headers),
        tuple((repr(expr), table) for _fn, expr, table in stage.arms),
        tuple(sorted((str(k), v) for k, v in stage.executor.items())),
    )


def structural_diff(live: DeviceView, shadow: DeviceView) -> Set[str]:
    """Entities (``stage:<name>`` / ``table:<name>``) whose staged
    reality differs from the live device."""
    live_stages = {s.name: _stage_canon(s) for _phase, s in live.schedule}
    shadow_stages = {s.name: _stage_canon(s) for _phase, s in shadow.schedule}
    diff: Set[str] = set()
    for name in set(live_stages) | set(shadow_stages):
        if live_stages.get(name) != shadow_stages.get(name):
            diff.add(f"stage:{name}")
    for name in set(live.tables) | set(shadow.tables):
        if live.tables.get(name) is not shadow.tables.get(name):
            diff.add(f"table:{name}")
    return diff


def claimed_entities(plan) -> Set[str]:
    """What the update plan says it touches."""
    if plan is None:
        return set()
    claimed: Set[str] = set()
    for name in list(plan.added_stages) + list(plan.removed_stages):
        claimed.add(f"stage:{name}")
    for name in (
        list(plan.new_tables) + list(plan.freed_tables)
        + list(plan.migrated_tables)
    ):
        claimed.add(f"table:{name}")
    return claimed


def _shared_table_names(live: DeviceView, shadow: DeviceView) -> FrozenSet[str]:
    return frozenset(
        name
        for name, table in live.tables.items()
        if shadow.tables.get(name) is table
    )


# --------------------------------------------------------------------------
# Extern hazards
# --------------------------------------------------------------------------


def _extern_accesses(view: DeviceView) -> Dict[Tuple[str, str], Set[tuple]]:
    accesses: Dict[Tuple[str, str], Set[tuple]] = {}
    for _phase, stage in view.schedule:
        names = {
            v for k, v in stage.executor.items() if isinstance(v, str)
        }
        names.add(stage.executor.get("default", "NoAction"))
        for action_name in sorted(names):
            action = view.actions.get(action_name)
            if action is None:
                continue
            for op in action.ops:
                if isinstance(op, vm.SketchUpdate):
                    key = ("sketch", op.sketch)
                    sig = (stage.name, action_name, tuple(op.fields), op.dest)
                elif isinstance(op, vm.Police):
                    key = ("meter", op.meter)
                    sig = (stage.name, action_name, op.dest)
                else:
                    continue
                accesses.setdefault(key, set()).add(sig)
    return accesses


def _hazard_diagnostics(live: DeviceView, shadow: DeviceView,
                        diff: Set[str], span: Span) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    live_acc = _extern_accesses(live)
    shadow_acc = _extern_accesses(shadow)
    for key in sorted(set(live_acc) & set(shadow_acc)):
        if live_acc[key] != shadow_acc[key]:
            kind, name = key
            diags.append(make(
                "RP4L504",
                f"{kind} {name!r} survives the epoch flip but its access "
                f"pattern changes (old: {sorted(s[0] for s in live_acc[key])}, "
                f"new: {sorted(s[0] for s in shadow_acc[key])}); in-flight "
                "old-epoch packets race new-epoch reads/writes",
                span,
            ))
    for key, sigs in sorted(shadow_acc.items()):
        stages = {sig[0] for sig in sigs}
        if len(stages) >= 2 and any(f"stage:{s}" in diff for s in stages):
            kind, name = key
            diags.append(make(
                "RP4L505",
                f"{kind} {name!r} is touched by stages "
                f"{sorted(stages)} after the update and the update changed "
                "at least one of them, altering the read/write order on "
                "shared state",
                span,
            ))
    return diags


# --------------------------------------------------------------------------
# Witness synthesis and replay confirmation
# --------------------------------------------------------------------------


@dataclass
class Witness:
    """A concrete packet realizing one symbolic flow class."""

    data: bytes
    port: int = 0
    chain: Tuple[str, ...] = ()
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "hex": self.data.hex(),
            "port": self.port,
            "chain": list(self.chain),
            "note": self.note,
        }


def _solve_obligations(ps: PathState, live: DeviceView,
                       shadow: DeviceView) -> PathState:
    """Greedily refine input domains so symbolic table picks become
    concretely realizable (hit picks steer key fields toward an
    installed entry's match values; misses are left to the domains)."""
    ps = ps.clone()
    views = {"live": live, "shadow": shadow}
    for table_name, label, keys, tag in ps.obligations:
        if tag == 0:
            continue
        table = views[label].tables.get(table_name)
        if table is None:
            continue
        for entry in table.entries():
            if entry.tag != tag:
                continue
            trial = ps.clone()
            feasible = True
            for term, part in zip(keys, entry.key):
                if term[0] != "in":
                    continue
                value = part[0] if isinstance(part, tuple) else part
                if not _constrain(trial, views[label], term[1], "==", value):
                    feasible = False
                    break
            if feasible:
                ps = trial
                break
    return ps


def synthesize_witness(ps: PathState, live_side: SideState,
                       shadow_side: SideState, live: DeviceView,
                       shadow: DeviceView) -> Optional[Witness]:
    """Lay out concrete wire bytes satisfying the path's domains."""
    ps = _solve_obligations(ps, live, shadow)
    chain = (
        shadow_side.parsed
        if len(shadow_side.parsed) >= len(live_side.parsed)
        else live_side.parsed
    )
    view = shadow if chain is shadow_side.parsed else live
    blob = b""
    for header in chain:
        htype = view.header_types.get(header)
        if htype is None:
            return None
        values: Dict[str, object] = {}
        for fname in htype.field_names():
            if fname == htype.varlen_field:
                values[fname] = b""
                continue
            dom = ps.doms.get(f"{header}.{fname}")
            values[fname] = dom.pick() if dom is not None else 0
        blob += htype.pack(values)
    port_dom = ps.doms.get("meta.ingress_port")
    port = port_dom.pick() if port_dom is not None else 0
    return Witness(
        data=blob + b"\x00" * 8, port=port, chain=tuple(chain),
        note="fields not constrained by the flow class default to 0",
    )


def _pure_lookup(table, packet):
    """Side-effect-free table lookup (no hit/miss counters, no entry
    counters) -- the replay interpreter must leave the device
    byte-identical."""
    key = tuple(read(packet) for read in table._key_readers)
    entry = table._engine.lookup(key)
    if entry is None:
        return (0, None, dict(table.default_data))
    return (entry.tag, entry, dict(entry.action_data))


class _ReplayDevice:
    """The minimal device surface the extern library touches, with all
    state knobs pinned (clock None, no TM, no collector) so a replay
    is deterministic and identical for live and shadow."""

    def __init__(self, header_types) -> None:
        self.header_types = header_types
        self.int_clock = None
        self.int_collector = None
        self.int_node = None
        self.pipeline = None
        self.dp = None


def _pure_execute(view: DeviceView, action, packet, action_data,
                  entry_present: bool) -> None:
    """Run an action with stateful externs stubbed symmetrically."""
    from repro.net.fields import mask_to_width
    bound: Dict[str, int] = {}
    for name, width in action.params:
        if name not in action_data:
            raise KeyError(f"action {action.name!r} missing parameter {name!r}")
        bound[name] = mask_to_width(action_data[name], width)
    ctx = vm.ActionContext(
        packet=packet, params=bound, entry=None,
        device=_ReplayDevice(view.header_types),
    )
    for op in action.ops:
        if isinstance(op, (vm.SetField, vm.RemoveHeaderOp, vm.MarkAbove)):
            op.execute(ctx)
        elif isinstance(op, vm.CountAndMark):
            if not entry_present:
                raise RuntimeError("count_and_mark without a matched entry")
            # Stub: fresh-counter semantics (no mark on the first packet).
        elif isinstance(op, vm.SketchUpdate):
            packet.write(op.dest, 1)  # fresh-sketch estimate, both sides
        elif isinstance(op, vm.Police):
            packet.write(op.dest, 0)  # green, both sides
        elif isinstance(op, vm.PyPrimitive):
            op.execute(ctx)  # stateless, or pinned by _ReplayDevice
        else:
            raise RuntimeError(f"unknown op {type(op).__name__}")


def replay(view: DeviceView, data: bytes, port: int = 0) -> dict:
    """Pure replay of one packet through a device view.

    Mirrors :func:`repro.dp.exec.run_tsp_plan` semantics but never
    mutates device state (table counters, externs, TSP stats), so it
    is safe to run against a *live* switch and a *prepared txn shadow*
    from inside the controller's staging gate.
    """
    from repro.net.packet import Packet
    metadata = view.merged_metadata()
    metadata["ingress_port"] = port
    metadata["packet_length"] = len(data)
    packet = Packet(data, first_header=view.first_header, metadata=metadata)
    trace: List[tuple] = []
    try:
        for phase, stage in view.schedule:
            if packet.metadata.get("drop"):
                break
            packet.ensure_parsed(
                stage.parser_headers, view.header_types, view.linkage
            )
            for index, (predicate, _expr, table_name) in enumerate(stage.arms):
                if not predicate(packet):
                    continue
                if table_name is None:
                    trace.append(("arm", stage.name, index, None))
                    break
                table = view.tables.get(table_name)
                if table is None:
                    raise KeyError(f"unknown table {table_name!r}")
                tag, entry, action_data = _pure_lookup(table, packet)
                action_name = _executor_action(stage, tag)
                action = view.actions.get(action_name)
                if action is None:
                    raise KeyError(f"unknown action {action_name!r}")
                trace.append(("apply", stage.name, table_name, tag, action_name))
                _pure_execute(view, action, packet, action_data, entry is not None)
                break
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}", "trace": trace}
    dropped = bool(packet.metadata.get("drop"))
    return {
        "drop": dropped,
        "egress_spec": packet.metadata.get("egress_spec", 0),
        "to_cpu": packet.metadata.get("to_cpu", 0),
        "mcast_grp": packet.metadata.get("mcast_grp", 0),
        "data": None if dropped else packet.emit().hex(),
        "trace": trace,
    }


def _replay_outcomes_differ(live_out: dict, shadow_out: dict) -> bool:
    def norm(out: dict) -> tuple:
        if "error" in out:
            return ("error", out["error"])
        if out["drop"]:
            return ("drop",)
        return (
            out["egress_spec"], out["to_cpu"], out["mcast_grp"], out["data"]
        )
    return norm(live_out) != norm(shadow_out)


# --------------------------------------------------------------------------
# Report and driver
# --------------------------------------------------------------------------


@dataclass
class VerifyConfig:
    """Gate/CLI knobs for rp4verify."""

    #: Budget on differential flow classes (live x shadow product
    #: leaves) per verification run; side-local path enumeration gets
    #: a proportional internal budget.
    max_classes: int = 4096
    #: Enumerate flow classes even when the structural tier finds no
    #: unclaimed drift (the gate's fast path skips enumeration; the
    #: CLI and tests run exhaustively).
    exhaustive: bool = False
    #: Synthesize witness packets for divergent classes.
    witnesses: bool = True
    #: Confirm unintended witnesses by pure replay; unconfirmed
    #: findings are downgraded from error to warning severity.
    confirm: bool = True
    #: Cap on RP4L502 (intended-divergence) diagnostics emitted.
    max_intended_reports: int = 3


@dataclass
class FlowClass:
    """One symbolic flow class of the differential product."""

    index: int
    classification: str  # equivalent | intended | unintended
    live_obs: tuple
    shadow_obs: tuple
    live_events: Tuple[tuple, ...]
    shadow_events: Tuple[tuple, ...]
    tainted: Tuple[str, ...] = ()
    witness: Optional[Witness] = None
    confirmed: Optional[bool] = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "classification": self.classification,
            "live_events": [list(e) for e in self.live_events],
            "shadow_events": [list(e) for e in self.shadow_events],
            "tainted": list(self.tainted),
            "witness": self.witness.to_dict() if self.witness else None,
            "confirmed": self.confirmed,
        }


@dataclass
class VerifyReport:
    """Everything one rp4verify run produced."""

    diagnostics: List[Diagnostic] = dc_field(default_factory=list)
    classes: List[FlowClass] = dc_field(default_factory=list)
    drift: List[str] = dc_field(default_factory=list)
    claimed: List[str] = dc_field(default_factory=list)
    enumerated: bool = False
    truncated: bool = False
    seconds: float = 0.0

    @property
    def unintended(self) -> List[FlowClass]:
        return [c for c in self.classes if c.classification == "unintended"]

    @property
    def intended(self) -> List[FlowClass]:
        return [c for c in self.classes if c.classification == "intended"]

    @property
    def equivalent(self) -> List[FlowClass]:
        return [c for c in self.classes if c.classification == "equivalent"]

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "tool": "rp4verify",
            "drift": list(self.drift),
            "claimed": list(self.claimed),
            "enumerated": self.enumerated,
            "truncated": self.truncated,
            "seconds": self.seconds,
            "counts": {
                "classes": len(self.classes),
                "equivalent": len(self.equivalent),
                "intended": len(self.intended),
                "unintended": len(self.unintended),
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "classes": [c.to_dict() for c in self.classes],
        }


def _classify(live_obs, shadow_obs, live_events, shadow_events,
              diff: Set[str], unclaimed: Set[str]) -> Tuple[str, Tuple[str, ...]]:
    if live_obs == shadow_obs:
        return "equivalent", ()
    tainted = _diff_entities(live_events, shadow_events)
    if not tainted:
        tainted = (
            _trace_entities(live_events) | _trace_entities(shadow_events)
        ) & diff
    unintended = tainted & unclaimed
    if unintended:
        return "unintended", tuple(sorted(unintended))
    return "intended", tuple(sorted(tainted))


def verify_views(live: DeviceView, shadow: DeviceView,
                 claimed: Optional[Set[str]] = None,
                 config: Optional[VerifyConfig] = None,
                 path: str = "<update>") -> VerifyReport:
    """The rp4verify core: structural tier always, symbolic tier when
    drift exists or ``config.exhaustive`` asks for it."""
    config = config or VerifyConfig()
    claimed = claimed or set()
    span = Span(file=path)
    started = time.perf_counter()
    report = VerifyReport(claimed=sorted(claimed))

    diff = structural_diff(live, shadow)
    unclaimed = diff - claimed
    report.drift = sorted(unclaimed)
    for entity in report.drift:
        report.diagnostics.append(make(
            "RP4L503",
            f"staged device diverges from the live device in {entity} "
            "which the update plan does not claim to touch",
            span,
        ))
    report.diagnostics.extend(_hazard_diagnostics(live, shadow, diff, span))

    if unclaimed or config.exhaustive:
        report.enumerated = True
        _enumerate(live, shadow, diff, unclaimed, config, span, report)

    report.seconds = time.perf_counter() - started
    return report


def _enumerate(live: DeviceView, shadow: DeviceView, diff: Set[str],
               unclaimed: Set[str], config: VerifyConfig, span: Span,
               report: VerifyReport) -> None:
    shared_tables = _shared_table_names(live, shadow)
    side_budget = _Budget(max(config.max_classes * 4, 2048))
    live_leaves = _run_side(
        PathState(), SideState(live), shared_tables, side_budget
    )
    truncated = side_budget.truncated
    index = 0
    intended_reported = 0
    for ps, live_side in live_leaves:
        if index >= config.max_classes:
            truncated = True
            break
        shadow_budget = _Budget(config.max_classes - index)
        shadow_leaves = _run_side(
            ps, SideState(shadow), shared_tables, shadow_budget
        )
        truncated = truncated or shadow_budget.truncated
        for ps2, shadow_side in shadow_leaves:
            live_obs = _observe(ps2, live_side)
            shadow_obs = _observe(ps2, shadow_side)
            classification, tainted = _classify(
                live_obs, shadow_obs, live_side.trace, shadow_side.trace,
                diff, unclaimed,
            )
            cls = FlowClass(
                index=index,
                classification=classification,
                live_obs=live_obs,
                shadow_obs=shadow_obs,
                live_events=tuple(live_side.trace),
                shadow_events=tuple(shadow_side.trace),
                tainted=tainted,
            )
            index += 1
            if classification != "equivalent" and config.witnesses:
                cls.witness = synthesize_witness(
                    ps2, live_side, shadow_side, live, shadow
                )
            if classification == "unintended":
                severity = None
                note = ""
                if cls.witness is not None and config.confirm:
                    live_out = replay(live, cls.witness.data, cls.witness.port)
                    shadow_out = replay(shadow, cls.witness.data, cls.witness.port)
                    cls.confirmed = _replay_outcomes_differ(live_out, shadow_out)
                    if not cls.confirmed:
                        severity = Severity.WARNING
                        note = " (witness replay did not reproduce it)"
                else:
                    severity = Severity.WARNING
                    note = " (no witness synthesized)"
                witness_hex = (
                    cls.witness.data.hex() if cls.witness is not None else "-"
                )
                report.diagnostics.append(make(
                    "RP4L501",
                    f"flow class #{cls.index} diverges through unclaimed "
                    f"{', '.join(cls.tainted)}{note}; witness packet "
                    f"port={cls.witness.port if cls.witness else 0} "
                    f"hex={witness_hex}",
                    span,
                    severity=severity,
                ))
            elif classification == "intended":
                if intended_reported < config.max_intended_reports:
                    intended_reported += 1
                    report.diagnostics.append(make(
                        "RP4L502",
                        f"flow class #{cls.index} intentionally changes "
                        f"through {', '.join(cls.tainted) or 'claimed plan elements'}",
                        span,
                    ))
            report.classes.append(cls)
    if truncated:
        report.truncated = True
        report.diagnostics.append(make(
            "RP4L506",
            f"symbolic enumeration truncated at {config.max_classes} flow "
            "classes; equivalence holds only for the enumerated prefix",
            span,
        ))


def verify_txn(switch, txn, plan=None,
               config: Optional[VerifyConfig] = None,
               path: str = "<update>") -> VerifyReport:
    """Verify a prepared (not yet committed) update transaction against
    the live switch it will land on."""
    live = DeviceView.from_switch(switch)
    shadow = DeviceView.from_txn(txn)
    return verify_views(
        live, shadow, claimed=claimed_entities(plan), config=config, path=path
    )
