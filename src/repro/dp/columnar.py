"""Columnar batch dataplane: the vectorized parse/match/execute path.

The scalar loop pays Python dispatch per packet per stage; a trace of
mostly-identical packets repeats the same parse decisions, predicate
evaluations, and table probes thousands of times.  This module runs
:meth:`repro.dp.frontdoor.Device.inject_batch` input -- one
:class:`~repro.dp.batch.PacketBatch` -- column-wise instead:

1. **Classify** -- partition rows by *parse-set signature*, the exact
   header chain a packet would parse: learned probes claim the rows
   whose selectors and varbit counts match a chain seen before, and the
   rest walk the parse graph over the whole batch at once.  Every field
   reads and writes as one byte window (:func:`_make_recipe`).
2. **Compile** -- per signature, lower the device's compiled scalar
   plan into vector kernels: predicates and action expressions become
   uint64 broadcast ops, table lookups become batched probes against
   the engines' range indexes, one ``searchsorted`` per lookup however
   many prefix lengths a table holds
   (:meth:`repro.tables.table.Table.lookup_batch`).
3. **Execute** -- run every stage once per batch with row masks for
   drop/divergence, scatter dirty fields back into the byte matrix,
   and hand the survivors' rows on as the output batch: the next hop
   reads the matrix this one wrote.

A table-firing site (a stage's matcher arm: IPSA and PISA compile to
the same stage plans) compiles its action kernels lazily, on the first
batch whose table entries or default name them, so it holds only the
actions it can really run.  Each
primitive has one vector meaning in :data:`_KERNELS` -- SRv6 End
gathers the next segment out of the SRH's fixed ``seg0..segN``
columns and drops rows whose ``segments_left`` is 0 or past the list.
C3's ``count_and_mark`` counts each matched entry's rows in batch
order, which is the scalar order only while one site in one group
counts a table: a signature that counts a table in two sites is
ineligible, and a batch where two groups, or a group and a peeled row,
could reach it runs scalar whole.

A varbit header whose length is one fixed count field times a unit
(the INT hop stack, the SRH segment list) is fixed-width *per
signature*: classification splits its rows by the count, which joins
the signature key.  Anything the kernels cannot express -- other
variable-length headers, sketches, meters, ternary/range engines,
arithmetic that could overflow 64 bits, an entry whose action has no
kernel -- *peels*: those rows fall back to the scalar per-packet loop,
at their original batch positions, so a mixed batch is byte-for-byte
identical to N ``inject`` calls.

Cache coherence rides on the scalar plan cache: the compiled columnar
program is keyed on the scalar plan **object** (see
``DataplaneCore._columnar``), so every invalidate/flip retires it
with the plan it lowered -- batches are therefore plan-atomic, and a
transactional epoch flip lands exactly at a batch boundary.

NumPy is optional: without it (or with ``REPRO_FORCE_NO_NUMPY=1``)
the front door silently keeps the scalar loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dp.batch import PacketBatch, _distinct, _numpy
from repro.lang import expr as lang
from repro.net.fields import mask_to_width
from repro.net.headers import (
    INT_ETHERTYPE,
    INT_HOP_BYTES,
    INT_HOP_FIELDS,
    srh_capacity,
)
from repro.obs.trace import DropReason
from repro.tables import actions as act

NUMPY_HINT = (
    "the columnar batch dataplane requires numpy>=1.24 (declared in "
    "pyproject.toml); it is not importable here, so inject_batch "
    "automatically falls back to the scalar per-packet loop. Install "
    "numpy to enable the vectorized fast path."
)

_MISSING = object()
_NEVER = object()  # arm predicate that is constant-false for the signature
_MASK64 = (1 << 64) - 1


def require_numpy():
    """Raise a descriptive ImportError when the columnar path is
    requested explicitly but NumPy is unavailable."""
    np = _numpy()
    if np is None:
        raise ImportError(NUMPY_HINT)
    return np


class _Ineligible(Exception):
    """Internal: this signature cannot run columnar (peel to scalar)."""


# --------------------------------------------------------------------------
# Field recipes: (extract, scatter, width) per header field
# --------------------------------------------------------------------------


#: ``rows`` of a whole-column read or write.
_ALL = slice(None)


def _make_recipe(np, start_bit: int, width: int):
    """One byte-window codec ``(extract, scatter, width)`` for one
    fixed-offset field.

    A field of up to 64 bits lies in a window of at most 8 bytes, read
    as one big-endian ``uint64`` and shifted and masked only when the
    field is not byte aligned; it writes back through the same window,
    and only an unaligned field reads before it writes.  A byte-aligned
    128-bit field is two 8-byte windows, a ``(hi, lo)`` pair.  ``None``
    for anything else -- users of such fields peel.  ``rows`` is
    ``_ALL`` or an index array; ``scatter`` masks to the field width.
    """
    b0 = start_bit // 8
    if width == 128 and start_bit % 8 == 0:

        def extract128(mat, rows=_ALL):
            pair = np.ascontiguousarray(mat[rows, b0:b0 + 16]).view(">u8")
            return pair[:, 0].astype(np.uint64), pair[:, 1].astype(np.uint64)

        def scatter128(mat, values, rows):
            pair = np.stack(values, axis=1).astype(">u8")
            mat[rows, b0:b0 + 16] = pair.view(np.uint8)

        return (extract128, scatter128, width)
    b1 = (start_bit + width - 1) // 8
    nbytes = b1 - b0 + 1
    if width > 64 or nbytes > 8:
        return None
    shift = (b1 + 1) * 8 - (start_bit + width)
    sr = np.uint64(shift)
    mask = np.uint64((1 << width) - 1)
    clear = np.uint64(_MASK64 ^ (((1 << width) - 1) << shift))
    aligned = shift == 0 and start_bit % 8 == 0

    def window(mat, rows):
        if nbytes == 1:
            return mat[rows, b0].astype(np.uint64)
        block = mat[rows, b0:b1 + 1]
        buf = np.zeros((block.shape[0], 8), np.uint8)
        buf[:, 8 - nbytes:] = block
        return buf.view(">u8")[:, 0].astype(np.uint64)

    def extract(mat, rows=_ALL):
        value = window(mat, rows)
        if shift:
            value >>= sr
        if start_bit % 8:
            value &= mask
        return value

    def scatter(mat, values, rows):
        if not aligned:
            values = (window(mat, rows) & clear) | ((values & mask) << sr)
        image = values.astype(">u8")[:, None].view(np.uint8)
        mat[rows, b0:b1 + 1] = image[:, 8 - nbytes:]

    return (extract, scatter, width)


def _chain_recipes(np, chain):
    """Recipes for every field of every header in a parse chain.

    Layout math mirrors :meth:`repro.net.headers.HeaderType.unpack`:
    a field's start bit is ``fixed_bits - shift - width`` into the
    header, at byte offset ``off`` in the packet.  A varbit part has no
    recipe: nothing reads it column-wise.
    """
    recipes: Dict[str, Optional[tuple]] = {}
    for name, htype, off, _vbytes in chain:
        for fname, shift, mask, width in htype._layout:
            start_bit = off * 8 + (htype.fixed_bits - shift - width)
            recipes[f"{name}.{fname}"] = _make_recipe(np, start_bit, width)
    return recipes


# --------------------------------------------------------------------------
# PacketColumns: struct-of-arrays view of one homogeneous group
# --------------------------------------------------------------------------


class PacketColumns:
    """Column store for one signature group: lazily materialized
    uint64 columns over a shared ``[m, maxlen]`` byte matrix.

    Header fields extract on first read and scatter back at emit when
    dirty; metadata fields broadcast from the device template (with
    ``ingress_port`` / ``packet_length`` taken per row).  128-bit
    fields are ``(hi, lo)`` uint64 pairs.  On an INT device ``stamps``
    is the rows' ``meta.ingress_ts_ns`` column, and ``pushes`` collects the
    ``(rows, bytes)`` blocks :func:`_compile_push_int` kernels splice
    in at emit.  :meth:`set_meta` is the only writer of metadata
    columns, and ``drop_writes`` counts its writes to ``meta.drop``.
    """

    __slots__ = (
        "np", "m", "mat", "lengths", "ports", "stamps", "recipes",
        "template", "cols", "dirty", "pushes", "drop_writes",
    )

    def __init__(self, np, mat, lengths, ports, recipes, template,
                 stamps=None):
        self.np = np
        self.mat = mat
        self.lengths = lengths
        self.ports = ports
        self.stamps = stamps
        self.m = mat.shape[0]
        self.recipes = recipes
        self.template = template
        self.cols: Dict[str, object] = {}
        self.dirty: Dict[str, bool] = {}
        self.pushes: List[tuple] = []
        self.drop_writes = 0

    def get(self, ref: str):
        col = self.cols.get(ref)
        if col is None:
            col = self._materialize(ref)
            self.cols[ref] = col
        return col

    def _materialize(self, ref: str):
        np = self.np
        if ref.startswith("meta."):
            name = ref[5:]
            if name == "ingress_port":
                return self.ports.astype(np.uint64)
            if name == "packet_length":
                return self.lengths.astype(np.uint64)
            if name == "ingress_ts_ns" and self.stamps is not None:
                return self.stamps
            return np.full(
                self.m, int(self.template.get(name, 0)), np.uint64
            )
        extract = self.recipes[ref][0]
        return extract(self.mat)

    def set_field(self, ref: str, values, rows) -> None:
        """Write a header field column (masked to the field width)."""
        np = self.np
        col = self.get(ref)
        width = self.recipes[ref][2]
        if width > 64:
            hi, lo = col
            if isinstance(values, tuple):
                vhi, vlo = values
            else:
                vhi, vlo = np.uint64(0), values
            hi[rows] = vhi
            lo[rows] = vlo
        else:
            col[rows] = values & np.uint64((1 << width) - 1)
        self.dirty[ref] = True

    def set_meta(self, name: str, values, rows) -> None:
        col = self.get("meta." + name)
        col[rows] = values
        if name == "drop":
            self.drop_writes += 1


# --------------------------------------------------------------------------
# Classification: partition the batch by parse-set signature
# --------------------------------------------------------------------------


def _field_extractor(np, htype, off, field):
    """Column extractor for one fixed field of a header at ``off``
    (``None``: unknown field, or wider than one uint64 column)."""
    for fname, shift, mask, width in htype._layout:
        if fname == field:
            if width > 64:
                return None
            start_bit = off * 8 + (htype.fixed_bits - shift - width)
            recipe = _make_recipe(np, start_bit, width)
            return recipe[0] if recipe else None
    return None


def _batch_of(items) -> PacketBatch:
    """``(data, port)`` pairs as a batch."""
    return PacketBatch.from_frames(
        [data for data, _p in items], [port for _d, port in items]
    )


def classify(np, items, header_types, linkage, first_header, probes=None):
    """Batch-wide parse walk over a :class:`PacketBatch` (or a list of
    ``(data, port)`` pairs, made into one).

    Returns ``(mat, lengths, ports, groups, peel)`` where ``groups``
    maps a signature key to ``(chain, terminal, row index arrays)``;
    ``chain`` holds one ``(name, htype, byte offset, varbit bytes)``
    entry per header.  A varbit header with a count field splits its
    rows by the count, so inside one signature it is fixed-width and
    every later offset is a constant.  ``peel`` collects rows that
    diverge: other variable-length headers, rows too short for a header
    (the scalar parser raises), duplicate instance names, or selectors
    the recipes cannot extract.  The edge INT collector shares it
    (:meth:`repro.obs.intcol.IntCollector.ingest_batch`).

    ``probes`` (optional) are parse paths learned by earlier walks: the
    walk records each leaf it closes, with the checks that led there
    (each selector and the tag it matched, each varbit count and its
    value) and the chain's byte extent.  A row at least that long that
    passes every check walks exactly that path, so probes claim their
    rows first and only the rest walk.  Up to :data:`MAX_PROBES` are
    kept; once the list is full, a new leaf replaces a probe that
    claimed no row of this batch, so traffic that arrives late still
    learns its path.  Probe paths are disjoint and leaves merge in the
    walk's depth-first order, so the result is the one the walk alone
    returns.
    """
    if not isinstance(items, PacketBatch):
        items = _batch_of(items)
    mat, lengths, ports = items.mat, items.lengths, items.ports
    n, maxlen = mat.shape
    # Depth-first path of decisions -> (group key, chain, terminal, rows).
    # The walk pops children in descending (vbytes, tag) order and closes
    # a selector-less header's count splits in ascending order: sorted
    # paths are the walk's leaf order.
    leaves: Dict[tuple, tuple] = {}
    peel: List = []
    extractors: Dict[tuple, object] = {}

    def extractor(htype, off, field):
        key = (htype.name, off, field)
        extract = extractors.get(key, _MISSING)
        if extract is _MISSING:
            extract = extractors[key] = _field_extractor(np, htype, off, field)
        return key, extract

    idle: List[int] = []  # probes that claimed no row of this batch

    def close(path, checks, extent, chain, terminal, rows):
        leaf = ((tuple((c[0], c[3]) for c in chain), terminal), chain, terminal)
        leaves[path] = leaf + (rows,)
        if probes is None:
            return
        if len(probes) < MAX_PROBES:
            probes.append((path, checks, extent, leaf))
        elif idle:
            probes[idle.pop(0)] = (path, checks, extent, leaf)

    rows = np.arange(n, dtype=np.int64)
    if probes:
        columns: Dict[tuple, object] = {}
        free = np.ones(n, bool)
        for slot, (path, checks, extent, leaf) in enumerate(probes):
            if extent > maxlen:
                idle.append(slot)
                continue
            hit = lengths >= extent
            for fkey, extract, value in checks:
                col = columns.get(fkey)
                if col is None:
                    col = columns[fkey] = extract(mat)
                hit &= col == value
            claimed = np.flatnonzero(hit)
            if claimed.size:
                leaves[path] = leaf + (claimed,)
                free &= ~hit
            else:
                idle.append(slot)
        rows = np.flatnonzero(free)
    pending = [(first_header, 0, (), rows, (), ())]
    while pending:
        expected, off, chain, rows, path, checks = pending.pop()
        if rows.size == 0:
            continue
        if expected is None or expected not in header_types:
            close(path, checks, off, chain, expected, rows)
            continue
        htype = header_types[expected]
        if any(c[0] == expected for c in chain):
            peel.append(rows)
            continue
        need = off + htype._fixed_bytes
        ok = lengths[rows] >= need
        short = rows[~ok]
        if short.size:
            peel.append(short)
        rows = rows[ok]
        if rows.size == 0:
            continue
        if htype.varlen_field is None:
            splits = [(0, rows, checks)]
        else:
            count = htype.varlen_count
            ckey, extract = (
                (None, None) if count is None
                else extractor(htype, off, count[0])
            )
            if extract is None:
                peel.append(rows)
                continue
            counts = extract(mat, rows)
            splits = []
            for value in _distinct(np, counts).tolist():
                sub = rows[counts == value]
                vbytes = value * count[1]
                fits = lengths[sub] >= need + vbytes
                if not fits.all():
                    peel.append(sub[~fits])
                    sub = sub[fits]
                splits.append((vbytes, sub, checks + ((ckey, extract, value),)))
        selector = linkage.selector(expected)
        if selector is not None:
            skey, extract = extractor(htype, off, selector)
        for vbytes, sub, sub_checks in splits:
            if sub.size == 0:
                continue
            new_chain = chain + ((expected, htype, off, vbytes),)
            if selector is None:
                close(path + ((vbytes,),), sub_checks, need + vbytes,
                      new_chain, None, sub)
                continue
            if extract is None:
                peel.append(sub)
                continue
            tags = extract(mat, sub)
            for tag in _distinct(np, tags).tolist():
                pending.append((
                    linkage.next_header(expected, tag), need + vbytes,
                    new_chain, sub[tags == tag], path + ((-vbytes, -tag),),
                    sub_checks + ((skey, extract, tag),),
                ))
    groups: Dict[tuple, tuple] = {}
    for path in sorted(leaves):
        key, chain, terminal, rows = leaves[path]
        entry = groups.get(key)
        if entry is None:
            groups[key] = (chain, terminal, [rows])
        else:
            entry[2].append(rows)
    return mat, lengths, ports, groups, peel


# --------------------------------------------------------------------------
# Demand-parse simulation (JIT parsing over a known chain; a PISA plan's
# front parser extracts the whole chain before stage 0)
# --------------------------------------------------------------------------


class _ParseSim:
    """Replays :meth:`Packet.ensure_parsed` against a fixed chain.

    Because every row of a group follows the same chain, the per-stage
    newly-parsed counts (and the validity set each stage sees) are
    signature constants computed once at compile time.
    """

    __slots__ = ("chain", "terminal", "linkage", "pos", "parsed")

    def __init__(self, chain, terminal, linkage):
        self.chain = chain
        self.terminal = terminal
        self.linkage = linkage
        self.pos = 0
        self.parsed: set = set()

    def _frontier(self):
        if self.pos < len(self.chain):
            return self.chain[self.pos][0]
        return self.terminal

    def ensure(self, names) -> int:
        count = 0
        remaining = {n for n in names if n not in self.parsed}
        while remaining:
            frontier = self._frontier()
            if frontier is None:
                break
            if frontier not in remaining and remaining.isdisjoint(
                self.linkage.reachable_set(frontier)
            ):
                break
            if self.pos >= len(self.chain):
                break  # unknown header type: parse_one yields nothing
            self.parsed.add(frontier)
            self.pos += 1
            count += 1
            remaining.discard(frontier)
        return count


# --------------------------------------------------------------------------
# Expression compilers (vector value functions)
# --------------------------------------------------------------------------
#
# Both compilers return either ("const", int) or (fn, max_bits) where
# fn(pc, rows, bound) yields a uint64 column (full-length when rows is
# None).  max_bits is a static bound on the result's bit length; any
# subexpression that could exceed 64 bits is ineligible, which is what
# makes uint64 arithmetic exactly equal to Python's bignums here.


class _Ctx:
    """What one signature's kernels compile against.  ``tm`` is the
    plan's traffic manager (``None`` on PISA, where ``push_int`` stays
    scalar).  ``step`` counts stages in
    program order; ``push_at`` is the splice offset once a ``push_int``
    compiled, at stage ``push_step``; ``shim_read`` is the last stage
    that reads what a push rewrites.  ``site`` is the firing site whose
    kernels compile now; ``sites`` counts the signature's sites per
    table id."""

    __slots__ = ("np", "validity", "template", "recipes", "chain", "device",
                 "tm", "step", "push_at", "push_step", "shim_read", "site",
                 "sites")

    def __init__(self, np, validity, template, recipes, chain, device, tm):
        self.np = np
        self.validity = validity
        self.template = template
        self.recipes = recipes
        self.chain = chain
        self.device = device
        self.tm = tm
        self.step = self.shim_read = 0
        self.push_at = self.push_step = self.site = None
        self.sites: Dict[int, int] = {}


def _check_unshifted(ref: str, ctx: _Ctx) -> None:
    """A read of the shim, or of the EtherType ``push_int`` rewrote, at
    or after the push's stage would see the pre-push matrix: such
    signatures peel.  Earlier reads are noted, so that a push compiled
    later (kernels resolve lazily) refuses to land ahead of them."""
    if ref.startswith("int_shim.") or ref == "ethernet.ethertype":
        if ctx.push_at is not None and ctx.step >= ctx.push_step:
            raise _Ineligible(ref)
        ctx.shim_read = max(ctx.shim_read, ctx.step)


def _sel(col, rows):
    return col if rows is None else col[rows]


def _compile_ref(ref: str, ctx: _Ctx):
    if "." not in ref:
        raise _Ineligible(ref)
    scope, _field = ref.split(".", 1)
    if scope == "meta":
        name = ref[5:]
        if name not in ("ingress_port", "packet_length"):
            value = ctx.template.get(name, _MISSING)
            if (
                value is _MISSING
                or isinstance(value, bool)
                or not isinstance(value, int)
                or not 0 <= value < (1 << 64)
            ):
                raise _Ineligible(ref)
        return (lambda pc, rows, bound: _sel(pc.get(ref), rows)), 64
    _check_unshifted(ref, ctx)
    recipe = ctx.recipes.get(ref)
    if recipe is None or scope not in ctx.validity:
        raise _Ineligible(ref)
    width = recipe[2]
    if width > 64:
        raise _Ineligible(ref)
    return (lambda pc, rows, bound: _sel(pc.get(ref), rows)), width


def _as_fn(np, compiled):
    """Normalize a compiled value to a callable (consts broadcast)."""
    if compiled[0] == "const":
        value = np.uint64(compiled[1])
        return lambda pc, rows, bound: value
    return compiled[0]


def _check_const(value):
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < 0
        or value.bit_length() > 64
    ):
        raise _Ineligible(value)


def _combine_bits(op, lbits, rbits, rconst):
    if op == "&":
        return min(lbits, rbits)
    if op in ("|", "^"):
        return max(lbits, rbits)
    if op == "+":
        return max(lbits, rbits) + 1
    if op == "*":
        return lbits + rbits
    if op == "<<":
        if rconst is None or rconst >= 64:
            raise _Ineligible(op)
        return lbits + rconst
    if op == ">>":
        if rconst is None or rconst >= 64:
            raise _Ineligible(op)
        return lbits
    raise _Ineligible(op)


_ARITH = {
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
}

_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def _compile_binary(np, op, left, right):
    """Shared EBin/BinOp lowering over two compiled operands."""
    lconst = left[0] == "const"
    rconst = right[0] == "const"
    if op in _CMP:
        if lconst and rconst:
            return ("const", 1 if _CMP[op](left[1], right[1]) else 0)
        lf, rf = _as_fn(np, left), _as_fn(np, right)
        cmp = _CMP[op]
        return (
            lambda pc, rows, bound: cmp(
                lf(pc, rows, bound), rf(pc, rows, bound)
            ).astype(np.uint64),
            1,
        )
    if op in _ARITH:
        if lconst and rconst:
            value = _ARITH[op](left[1], right[1])
            _check_const(value)
            return ("const", value)
        lbits = left[1].bit_length() if lconst else left[2]
        rbits = right[1].bit_length() if rconst else right[2]
        bits = _combine_bits(op, lbits, rbits, right[1] if rconst else None)
        if bits > 64:
            raise _Ineligible(op)
        lf, rf = _as_fn(np, left), _as_fn(np, right)
        fn = _ARITH[op]
        return (
            lambda pc, rows, bound: fn(
                lf(pc, rows, bound), rf(pc, rows, bound)
            ),
            bits,
        )
    raise _Ineligible(op)


def _norm(compiled):
    """(tag/fn, value/bits) -> ("const", v) or (fn, None, bits) triple."""
    if compiled[0] == "const":
        return compiled
    return (compiled[0], None, compiled[1])


def _compile_pred_value(expr, ctx: _Ctx):
    """rP4 predicate Expr -> compiled vector value.

    Mirrors :func:`repro.compiler.lowering.eval_predicate`, with
    ``valid()`` folded per signature (header validity is a signature
    constant) -- which also keeps the non-short-circuit vector
    ``&&``/``||`` faithful: a side that only runs under a validity
    guard folds away instead of evaluating eagerly.
    """
    np = ctx.np
    if isinstance(expr, lang.EConst):
        _check_const(expr.value)
        return ("const", expr.value)
    if isinstance(expr, lang.EValid):
        _check_unshifted(expr.header + ".", ctx)
        return ("const", 1 if expr.header in ctx.validity else 0)
    if isinstance(expr, lang.ERef):
        fn, bits = _compile_ref(expr.ref, ctx)
        return (fn, None, bits)
    if isinstance(expr, lang.EUnary):
        if expr.op != "!":
            raise _Ineligible(expr.op)
        inner = _compile_pred_value(expr.operand, ctx)
        if inner[0] == "const":
            return ("const", 0 if inner[1] else 1)
        inner_fn = inner[0]
        return (
            lambda pc, rows, bound: (
                inner_fn(pc, rows, bound) == 0
            ).astype(np.uint64),
            None,
            1,
        )
    if isinstance(expr, lang.EBin):
        op = expr.op
        if op == "&&":
            left = _compile_pred_value(expr.left, ctx)
            if left[0] == "const" and left[1] == 0:
                return ("const", 0)  # scalar never evaluates the right
            right = _compile_pred_value(expr.right, ctx)
            if left[0] == "const":
                if right[0] == "const":
                    return ("const", 1 if right[1] else 0)
                rfn = right[0]
                return (
                    lambda pc, rows, bound: (
                        rfn(pc, rows, bound) != 0
                    ).astype(np.uint64),
                    None,
                    1,
                )
            if right[0] == "const":
                if right[1] == 0:
                    return ("const", 0)
                lfn = left[0]
                return (
                    lambda pc, rows, bound: (
                        lfn(pc, rows, bound) != 0
                    ).astype(np.uint64),
                    None,
                    1,
                )
            lfn, rfn = left[0], right[0]
            return (
                lambda pc, rows, bound: (
                    (lfn(pc, rows, bound) != 0)
                    & (rfn(pc, rows, bound) != 0)
                ).astype(np.uint64),
                None,
                1,
            )
        if op == "||":
            left = _compile_pred_value(expr.left, ctx)
            if left[0] == "const" and left[1] != 0:
                return ("const", 1)  # scalar never evaluates the right
            right = _compile_pred_value(expr.right, ctx)
            if left[0] == "const":  # constant zero
                if right[0] == "const":
                    return ("const", 1 if right[1] else 0)
                rfn = right[0]
                return (
                    lambda pc, rows, bound: (
                        rfn(pc, rows, bound) != 0
                    ).astype(np.uint64),
                    None,
                    1,
                )
            if right[0] == "const" and right[1] != 0:
                return ("const", 1)
            lfn = left[0]
            if right[0] == "const":  # constant zero
                return (
                    lambda pc, rows, bound: (
                        lfn(pc, rows, bound) != 0
                    ).astype(np.uint64),
                    None,
                    1,
                )
            rfn = right[0]
            return (
                lambda pc, rows, bound: (
                    (lfn(pc, rows, bound) != 0)
                    | (rfn(pc, rows, bound) != 0)
                ).astype(np.uint64),
                None,
                1,
            )
        left = _to_pair(_compile_pred_value(expr.left, ctx))
        right = _to_pair(_compile_pred_value(expr.right, ctx))
        return _norm(_compile_binary(np, op, left, right))
    raise _Ineligible(expr)


def _to_pair(triple):
    """Internal triple -> the 2/3-tuple shape _compile_binary expects."""
    if triple[0] == "const":
        return triple
    return (triple[0], None, triple[2])


def _compile_action_value(expr, ctx: _Ctx, params: Dict[str, int]):
    """Action-VM expression -> compiled vector value."""
    np = ctx.np
    if isinstance(expr, act.Const):
        _check_const(expr.value)
        return ("const", expr.value)
    if isinstance(expr, act.Param):
        width = params.get(expr.name)
        if width is None or width > 64:
            raise _Ineligible(expr.name)
        name = expr.name

        def param_fn(pc, rows, bound):
            return bound[name]  # the rows' slice of the parameter column

        return (param_fn, None, width)
    if isinstance(expr, act.FieldRef):
        fn, bits = _compile_ref(expr.ref, ctx)
        return (fn, None, bits)
    if isinstance(expr, act.BinOp):
        left = _to_pair(_compile_action_value(expr.left, ctx, params))
        right = _to_pair(_compile_action_value(expr.right, ctx, params))
        return _norm(_compile_binary(np, expr.op, left, right))
    raise _Ineligible(expr)  # HashExpr and anything unknown


# --------------------------------------------------------------------------
# Action kernels
# --------------------------------------------------------------------------


def _compile_action(adef, ctx: _Ctx):
    """ActionDef -> kernel(pc, rows, bound) running every op masked.

    Eligible ops: :class:`SetField` (except to ``meta.mcast_grp``,
    which would route into the TM's multicast path), one
    :class:`CountAndMark` per action, and the primitives with a kernel
    in :data:`_KERNELS`.  Everything else (SRH and INT pop, sketches,
    meters, other externs) peels.
    """
    params = dict(adef.params)
    if sum(isinstance(op, act.CountAndMark) for op in adef.ops) > 1:
        raise _Ineligible("count_and_mark")  # per packet: count, mark, count
    kernels = []
    for op in adef.ops:
        if isinstance(op, act.SetField):
            value = _compile_action_value(op.expr, ctx, params)
            kernels.append(_compile_store(op.dest, ctx, _as_fn(ctx.np, value)))
        elif isinstance(op, act.CountAndMark):
            kernels.append(_compile_count_and_mark(op, ctx, params))
        elif isinstance(op, act.PyPrimitive):
            kernel = _compile_primitive(op.name, ctx, params)
            if kernel is not None:
                kernels.append(kernel)
        else:
            raise _Ineligible(type(op).__name__)

    def run(pc, rows, bound):
        for kernel in kernels:
            kernel(pc, rows, bound)

    return run


def _compile_store(dest: str, ctx: _Ctx, value):
    """Kernel writing ``value(pc, rows, bound)`` to ``dest`` as
    :class:`SetField` does: a template-int metadata field other than
    ``mcast_grp``, or a field with a recipe of a header valid in this
    signature."""
    scope, dot, field = dest.partition(".")
    if not dot:
        raise _Ineligible(dest)
    if scope == "meta":
        tmpl = ctx.template.get(field, 0)
        if field == "mcast_grp" or isinstance(tmpl, bool) or not isinstance(
            tmpl, int
        ):
            raise _Ineligible(dest)

        def meta_kernel(pc, rows, bound):
            pc.set_meta(field, value(pc, rows, bound), rows)

        return meta_kernel
    if ctx.recipes.get(dest) is None or scope not in ctx.validity:
        raise _Ineligible(dest)

    def field_kernel(pc, rows, bound):
        pc.set_field(dest, value(pc, rows, bound), rows)

    return field_kernel


#: ``bound`` key of a hit slot's ``(ranks, entries)``: the matched entry
#: rank of each row and the batch index's entry list the ranks index.
_MATCHED = object()


def _compile_count_and_mark(op, ctx: _Ctx, params: Dict[str, int]):
    """:meth:`repro.tables.actions.CountAndMark.execute` over one slot's
    rows, exact to the per-packet order.  The rows come in batch order;
    a stable sort by entry rank gives each row its 1-based ordinal in
    its entry's run, so its counter after the increment is ``counter +
    ordinal`` and it marks when that passes its threshold.  Each touched
    entry's counter then moves once, by its run length.  That order is
    only the scalar loop's when one site per signature counts a table
    (a second site would interleave increments per packet) and one
    group per batch does (:func:`try_run_batch`)."""
    np = ctx.np
    site = ctx.site
    width = params.get(op.threshold_param)
    if width is None or width > 64 or ctx.sites[id(site.table)] > 1:
        raise _Ineligible("count_and_mark")
    one = np.uint64(1)
    mark = _compile_store(op.dest, ctx, lambda pc, rows, bound: one)
    site.counts = True

    def count_kernel(pc, rows, bound):
        ranks, entries = bound[_MATCHED]
        order = np.argsort(ranks, kind="stable")
        ranked = ranks[order]
        opens = np.ones(ranked.size, bool)
        np.not_equal(ranked[1:], ranked[:-1], out=opens[1:])
        run = np.cumsum(opens) - 1  # each sorted row's run number
        starts = np.flatnonzero(opens)
        ordinal = np.arange(1, ranked.size + 1) - starts[run]
        limits = []  # a run's rows mark once their ordinal passes it
        for rank, threshold, count in zip(
            ranked[starts].tolist(),
            bound[op.threshold_param][order[starts]].tolist(),
            np.diff(np.append(starts, ranked.size)).tolist(),
        ):
            entry = entries[rank]
            limits.append(min(max(threshold - entry.counter, 0), count))
            entry.counter += count
        marked = ordinal > np.array(limits)[run]
        if marked.any():
            mark(pc, rows[order[marked]], bound)

    return count_kernel


def _compile_primitive(name: str, ctx: _Ctx, params: Dict[str, int]):
    """The vector kernel of one primitive call (``None``: a no-op)."""
    build = _KERNELS.get(name)
    if build is None:
        raise _Ineligible(name)
    return build(ctx, params)


def _flag_kernel(field: str):
    """Kernel factory: set ``meta.<field>`` on every firing row."""

    def build(ctx: _Ctx, params):
        one = ctx.np.uint64(1)

        def flag_kernel(pc, rows, bound):
            pc.set_meta(field, one, rows)

        return flag_kernel

    return build


def _compile_decrement_ttl(ctx: _Ctx, params):
    # Validity is a signature constant, so the ipv4/ipv6 branch of
    # prim_decrement_ttl resolves at compile time.
    np = ctx.np
    if "ipv4" in ctx.validity:
        ref = "ipv4.ttl"
    elif "ipv6" in ctx.validity:
        ref = "ipv6.hop_limit"
    else:
        return None
    if ctx.recipes.get(ref) is None:
        raise _Ineligible(ref)

    def ttl_kernel(pc, rows, bound):
        values = pc.get(ref)[rows]
        expired = values <= 1
        pc.set_field(
            ref, np.where(expired, np.uint64(0), values - np.uint64(1)), rows
        )
        if expired.any():
            pc.set_meta("drop", np.uint64(1), rows[expired])

    return ttl_kernel


def _compile_srv6_end(ctx: _Ctx, params):
    """:func:`repro.tables.primitives.prim_srv6_end` on the fixed
    ``seg0..segN`` SRH layout: rows whose ``segments_left`` is 0 or
    past the list drop; the rest decrement it and take ``ipv6.dst_addr``
    from that segment's ``(hi, lo)`` columns.  The varbit
    ``segment_list`` layout peels."""
    np = ctx.np
    if not {"srh", "ipv6"} <= ctx.validity:
        return _KERNELS["drop"](ctx, params)  # as prim_srv6_end does
    srh = next(c[1] for c in ctx.chain if c[0] == "srh")
    segs = [f"srh.seg{k}" for k in range(srh_capacity(srh))]
    recipes = ctx.recipes
    if srh.varlen_field == "segment_list" or any(
        (recipes.get(ref) or (0, 0, 0))[2] != 128
        for ref in segs + ["ipv6.dst_addr"]
    ) or recipes.get("srh.segments_left") is None:
        raise _Ineligible("srv6_end")

    def srv6_end_kernel(pc, rows, bound):
        left = pc.get("srh.segments_left")[rows]
        live = (left >= 1) & (left <= len(segs))
        if not live.all():
            pc.set_meta("drop", np.uint64(1), rows[~live])
            rows, left = rows[live], left[live]
            if rows.size == 0:
                return
        index = left - np.uint64(1)
        pc.set_field("srh.segments_left", index, rows)
        pick = index.astype(np.intp)
        pairs = [pc.get(ref) for ref in segs]
        pc.set_field("ipv6.dst_addr", (
            np.choose(pick, [hi[rows] for hi, _lo in pairs]),
            np.choose(pick, [lo[rows] for _hi, lo in pairs]),
        ), rows)

    return srv6_end_kernel


#: The ``int_shim`` fixed part ``push_int`` writes (the rP4 INT programs
#: and :data:`repro.net.headers.INT_SHIM` declare exactly this).
_INT_SHIM_FIELDS = [("orig_ethertype", 16), ("hop_count", 8)]


def _compile_push_int(ctx: _Ctx, params: Dict[str, int]):
    """:func:`repro.tables.primitives.prim_push_int` for one signature.

    Shim validity is a signature constant and the stack is
    ``count x INT_HOP_BYTES`` fixed bytes, so the record lands at one
    offset for every row: the end of the stack on a transit hop, right
    behind Ethernet (with a fresh 3-byte shim) on the first.  The
    kernel builds each firing row's record as an ``(m, 18)`` byte block
    -- switch id from the parameter column, ingress stamp from the
    batch column, one ``int_clock.now()`` per row for egress, TM
    occupancy and plan epoch once -- updates ``hop_count`` (or the
    EtherType) through :meth:`PacketColumns.set_field`, and leaves the
    block for :func:`_emit_rows` to splice in after every stage ran on
    the unshifted matrix.
    """
    np = ctx.np
    device, tm = ctx.device, ctx.tm
    if tm is None or ctx.push_at is not None:
        raise _Ineligible("push_int")  # no TM (PISA), or a second push
    if ctx.shim_read > ctx.step:
        raise _Ineligible("push_int")  # a later stage reads the shim
    width = params.get("switch_id")
    if width is not None and width > 64:
        raise _Ineligible("switch_id")
    shim = device.header_types.get("int_shim")
    if (
        shim is None
        or [(f.name, f.width) for f in shim.fields] != _INT_SHIM_FIELDS
        or shim.varlen_count != ("hop_count", INT_HOP_BYTES)
        or "ethernet" not in ctx.validity
        or ctx.recipes.get("ethernet.ethertype") is None
    ):
        raise _Ineligible("push_int")  # scalar drops, or no fixed layout
    layout = {name: (htype, off, vbytes) for name, htype, off, vbytes in ctx.chain}
    first = "int_shim" not in layout
    if first:
        htype, off, _vbytes = layout["ethernet"]
        ctx.push_at = off + htype._fixed_bytes
    elif "int_shim" in ctx.validity:
        htype, off, vbytes = layout["int_shim"]
        ctx.push_at = off + htype._fixed_bytes + vbytes
    else:
        raise _Ineligible("int_shim")  # on the wire but not parsed yet
    ctx.push_step = ctx.step
    one = np.uint64(1)

    def be_bytes(values, width):
        """Big-endian ``width``-bit field bytes, one row per value."""
        values = values & np.uint64((1 << width) - 1)
        return values.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width // 8:]

    def push_kernel(pc, rows, bound):
        m = rows.size
        if m == 0:
            return
        clock = device.int_clock
        if clock is None:
            egress = np.zeros(m, np.uint64)
        else:
            egress = np.array(
                [int(clock.now() * 1e9) & _MASK64 for _ in range(m)], np.uint64
            )
        record = {
            "switch_id": np.broadcast_to(
                bound.get("switch_id", np.uint64(0)), (m,)
            ),
            "ingress_ts": (
                egress if pc.stamps is None
                else pc.get("meta.ingress_ts_ns")[rows]
            ),
            "egress_ts": egress,
            "queue_depth": np.full(m, tm.occupancy(), np.uint64),
            "dp_epoch": np.full(m, device.dp.epoch, np.uint64),
        }
        parts = [be_bytes(record[name], width) for name, width in INT_HOP_FIELDS]
        if first:
            orig = pc.get("ethernet.ethertype")[rows]
            parts[:0] = [be_bytes(orig, 16), np.ones((m, 1), np.uint8)]
            pc.set_field("ethernet.ethertype", np.uint64(INT_ETHERTYPE), rows)
        else:
            count = pc.get("int_shim.hop_count")[rows]
            pc.set_field("int_shim.hop_count", count + one, rows)
        pc.pushes.append((rows, np.concatenate(parts, axis=1)))

    return push_kernel


#: Primitive name -> kernel factory ``(ctx, params) -> kernel`` (``None``:
#: a no-op).  A primitive missing here peels.
_KERNELS = {
    "no_op": lambda ctx, params: None,
    "srv6_transit": lambda ctx, params: None,
    "drop": _flag_kernel("drop"),
    "mark_to_cpu": _flag_kernel("to_cpu"),
    "decrement_ttl": _compile_decrement_ttl,
    "push_int": _compile_push_int,
    "srv6_end": _compile_srv6_end,
}
_VECTOR_PRIMS = tuple(_KERNELS)
if _compile_action.__doc__:  # None under python -OO
    _compile_action.__doc__ += f"Kernels: {', '.join(_VECTOR_PRIMS)}.\n"


def _param_columns(np, adef, datas):
    """:meth:`ActionDef.execute`'s parameter binding over a list of
    action-data dicts: one width-masked ``uint64`` column per declared
    parameter (``None`` = a rank bound to another action).  A missing
    parameter raises ``KeyError``; parameters wider than 64 bits get no
    column, no vector kernel can read them."""
    columns = {}
    for name, width in adef.params:
        values = [
            0 if data is None else mask_to_width(data[name], width)
            for data in datas
        ]
        if width <= 64:
            columns[name] = np.array(values, np.uint64)
    return columns


# --------------------------------------------------------------------------
# Table key getters
# --------------------------------------------------------------------------


def _make_key_getter(ref: str, nbytes: int, ctx: _Ctx):
    """One key field -> fn(pc, rows) returning its query column (the
    column itself when ``rows`` is ``None``: the whole group).

    8-byte fields yield a uint64 array; 16-byte fields yield a
    ``(hi, lo)`` pair (zero-extended when the source column is small).
    """
    np = ctx.np
    if "." not in ref:
        raise _Ineligible(ref)
    scope, _field = ref.split(".", 1)
    if scope == "meta":
        _compile_ref(ref, ctx)  # template/eligibility validation
        wide = False
    else:
        _check_unshifted(ref, ctx)
        recipe = ctx.recipes.get(ref)
        if recipe is None or scope not in ctx.validity:
            raise _Ineligible(ref)
        wide = recipe[2] > 64
    if wide and nbytes != 16:
        raise _Ineligible(ref)  # declared width disagrees with the field
    if wide:

        def wide_getter(pc, rows):
            hi, lo = pc.get(ref)
            return (hi, lo) if rows is None else (hi[rows], lo[rows])

        return wide_getter
    if nbytes == 16:

        def padded_getter(pc, rows):
            col = _sel(pc.get(ref), rows)
            return (np.zeros(col.shape[0], np.uint64), col)

        return padded_getter

    def getter(pc, rows):
        col = pc.get(ref)
        return col if rows is None else col[rows]

    return getter


# --------------------------------------------------------------------------
# Compiled signature plans
# --------------------------------------------------------------------------


class _Exec:
    """One table-firing site: a stage's matcher arm.  Its
    action kernels compile lazily, on the first dispatch that names
    them, against the header validity and stage ``step`` the site saw
    at compile time -- so a site holds only the actions its table's
    entries and default can run."""

    __slots__ = ("table", "key_getters", "fits", "dispatch", "kernels", "validity",
                 "step", "counts")

    def resolve(self, entry, ctx):
        """The (adef, kernel) pair ``entry`` (``None``: a miss) runs;
        ``None`` when that action is unknown (the scalar loop raises
        ``KeyError``) or has no vector kernel."""
        name, adef = self.action(entry, ctx)
        pair = self.kernels.get(name, _MISSING)
        if pair is _MISSING:
            pair = None
            if adef is not None:
                ctx.validity, ctx.step, ctx.site = self.validity, self.step, self
                try:
                    pair = (adef, _compile_action(adef, ctx))
                except _Ineligible:
                    pass
            self.kernels[name] = pair
        return pair


class _ArmExec(_Exec):
    __slots__ = ("pred", "empty", "tag_actions", "default_pair", "key_field")

    def action(self, entry, ctx):
        """The stage's ``(name, adef)`` for the entry's dispatch key --
        its executor tag or its action name; a miss keys on tag 0 or
        the table's default action -- with the fallback
        :func:`repro.dp.exec.run_tsp_plan` takes."""
        if entry is None:
            key = 0 if self.key_field == "tag" else self.table.default_action
        else:
            key = getattr(entry, self.key_field)
        name, adef = (
            self.tag_actions.get(key) or self.default_pair or (key, None)
        )
        return name, ctx.device.actions.get(name) if adef is None else adef


class _StageExec:
    __slots__ = ("parse_count", "arms")


class _TspExec:
    __slots__ = ("stats", "stages")


class _SigPlan:
    """One signature's vector program: recipes, per-stage parse
    counts, arm/step kernels, and the emit layout."""

    __slots__ = (
        "ctx", "recipes", "pad_fixups", "execs",
        "ingress", "egress", "parsed_count",
    )

    def __init__(self):
        self.execs: List = []  # every table-firing arm

    def prepare(self, np) -> bool:
        """Per-batch gate: every table's batch index and action
        dispatch are current for its engine version (rebuilt here when
        not).  Runs before any side effect, so a False is a clean peel."""
        for ex in self.execs:
            engine = ex.table._engine
            cached = ex.dispatch
            if (
                cached is None
                or cached[0] is not engine
                or cached[1] != engine.version
            ):
                cached = ex.dispatch = (
                    engine, engine.version, _build_dispatch(np, ex, self.ctx)
                )
            if cached[2] is None:
                return False
        return True


def _build_dispatch(np, ex, ctx: _Ctx):
    """What one arm needs to run its actions once per
    *action* instead of once per entry hit, for the table's current
    engine version: ``(slot_of_rank, slots, default)`` over the batch
    index's own entry list.  ``slots[i]`` is ``(kernel, columns)`` --
    one masked parameter column per declared parameter, indexed by
    entry rank -- ``slot_of_rank`` maps ranks to slots (``None`` while
    every entry runs the same action) and ``default`` is the miss
    pair with one-row columns.  ``None`` -> the group peels: no batch
    index, an action without a vector kernel, or an entry lacking a
    declared parameter (the scalar loop raises that ``KeyError``)."""
    table = ex.table
    if not table.prepare_batch(np):
        return None
    entries = table.batch_entries()
    pairs: List[tuple] = []
    slot_by_pair: Dict[int, int] = {}
    slot_of_rank = []
    for entry in entries:
        pair = ex.resolve(entry, ctx)
        if pair is None:
            return None
        slot = slot_by_pair.setdefault(id(pair), len(pairs))
        if slot == len(pairs):
            pairs.append(pair)
        slot_of_rank.append(slot)
    default = ex.resolve(None, ctx)
    if default is None or any(
        isinstance(op, act.CountAndMark) for op in default[0].ops
    ):
        return None  # a miss has no entry to count: the scalar loop raises
    try:
        slots = [
            (kernel, _param_columns(np, adef, [
                entry.action_data if owner == slot else None
                for entry, owner in zip(entries, slot_of_rank)
            ]))
            for slot, (adef, kernel) in enumerate(pairs)
        ]
        default = (
            default[1], _param_columns(np, default[0], [table.default_data])
        )
    except (KeyError, TypeError):
        return None
    if len(slots) < 2:
        return None, slots, default
    return np.array(slot_of_rank, np.int64), slots, default


def _bind_site(ex: _Exec, table, table_name, ctx: _Ctx, sp: _SigPlan):
    """Bind a firing site to its table: key getters now, action kernels
    on first dispatch (:meth:`_Exec.resolve`)."""
    if table is None:
        raise _Ineligible(table_name)
    field_bytes = table.batch_field_bytes()
    if field_bytes is None:
        raise _Ineligible(table_name)
    ex.table = table
    ex.key_getters = tuple(
        _make_key_getter(kf.ref, nb, ctx)
        for kf, nb in zip(table.key, field_bytes)
    )
    # A header field no wider than its key part never needs the batch
    # index's oversize guard; a metadata column might.
    ex.fits = tuple(
        not kf.ref.startswith("meta.") and ctx.recipes[kf.ref][2] <= kf.width
        for kf in table.key
    )
    ex.dispatch = None
    ex.kernels = {}
    ex.counts = False  # a count_and_mark kernel compiled here
    ctx.sites[id(table)] = ctx.sites.get(id(table), 0) + 1
    ex.validity, ex.step = frozenset(ctx.validity), ctx.step
    sp.execs.append(ex)
    return ex


def _compile_arm(arm, stage_plan, ctx: _Ctx, sp: _SigPlan):
    ex = _ArmExec()
    ex.pred = None
    if arm.expr is not None:
        value = _compile_pred_value(arm.expr, ctx)
        if value[0] != "const":
            ex.pred = value[0]
        elif not value[1]:
            ex.pred = _NEVER
    # A constant-false arm (e.g. a valid(ipv4) guard on an IPv6 chain)
    # can never fire, so its table and actions -- which may read
    # headers this signature lacks -- are never compiled, exactly as
    # the scalar loop never evaluates them.
    ex.empty = ex.pred is _NEVER or arm.table_name is None
    if ex.empty:
        return ex
    ex.tag_actions = stage_plan.tag_actions
    ex.default_pair = stage_plan.default_pair
    ex.key_field = stage_plan.dispatch
    return _bind_site(ex, arm.table, arm.table_name, ctx, sp)


def _compile_sig(core, plan, chain, terminal, prog) -> _SigPlan:
    np = prog.np
    sp = _SigPlan()
    recipes = _chain_recipes(np, chain)
    sim = _ParseSim(chain, terminal, prog.linkage)
    if plan.parser is not None:
        sim.ensure([link[0] for link in chain])  # PISA's front parse
    ctx = _Ctx(
        np, sim.parsed, prog.template, recipes, chain, core.device, plan.tm
    )
    sp.ctx = ctx
    sp.recipes = recipes

    def compile_side(tsp_plans):
        out = []
        for tsp_plan in tsp_plans:
            stages = []
            for stage_plan in tsp_plan.stages:
                ctx.step += 1
                if "int_shim" in stage_plan.parse_list:
                    _check_unshifted("int_shim.", ctx)  # parses the shim
                stage = _StageExec()
                stage.parse_count = sim.ensure(stage_plan.parse_list)
                stage.arms = tuple(
                    _compile_arm(arm, stage_plan, ctx, sp)
                    for arm in stage_plan.arms
                )
                stages.append(stage)
            tsp = _TspExec()
            tsp.stats = tsp_plan.stats
            tsp.stages = tuple(stages)
            out.append(tsp)
        return tuple(out)

    sp.ingress = compile_side(plan.ingress)
    sp.egress = compile_side(plan.egress)
    sp.parsed_count = sim.pos
    _finish_layout(sp, chain, sim.pos)
    return sp


def _finish_layout(sp: _SigPlan, chain, parsed_count: int) -> None:
    """Emit layout: pad-bit masks over the parsed prefix.

    Scalar ``pack()`` zeroes a header's pad bits on emit even when the
    wire had them set, so the columnar emit clears them in the byte
    matrix instead of peeling such packets.
    """
    fixups = []
    for _name, htype, off, _vbytes in chain[:parsed_count]:
        pad = htype._pad_bits
        if pad:
            fixups.append(
                (off + htype._fixed_bytes - 1, 0xFF ^ ((1 << pad) - 1))
            )
    sp.pad_fixups = tuple(fixups)


# --------------------------------------------------------------------------
# Vector execution
# --------------------------------------------------------------------------


def _run_stage_arms(stage: _StageExec, pc, active, stats, np) -> None:
    """First-match-wins over the arm list, as row-set splitting."""
    remaining = active
    for arm in stage.arms:
        if remaining.size == 0:
            return
        pred = arm.pred
        if pred is _NEVER:
            continue
        if pred is None:
            fired = remaining
            remaining = remaining[:0]
        else:
            values = pred(pc, None, None)
            hit = values[remaining] != 0
            fired = remaining[hit]
            if fired.size == 0:
                continue
            remaining = remaining[~hit]
        if arm.empty:
            continue  # explicit no-op arm consumes its rows
        _fire_arm(arm, pc, fired, stats, np)


def _fire_arm(ex, pc, rows, stats, np) -> None:
    """One match-action firing -- a stage's matcher arm -- over
    ``rows``: one batched lookup, then each action kernel once
    with its parameters gathered from the dispatch columns.  Rows
    ascend, so an arm firing on all ``pc.m`` rows reads whole columns."""
    count = int(rows.size)
    stats.account_batch(lookups=count, actions_run=count)
    some = None if count == pc.m else rows
    cols = [getter(pc, some) for getter in ex.key_getters]
    table = ex.table
    missed = table.miss_count
    idx, entries = table.lookup_batch(
        np, cols, _sel(pc.get("meta.packet_length"), some), ex.fits
    )
    missed = table.miss_count - missed
    slot_of_rank, slots, default = ex.dispatch[2]
    if missed:
        kernel, columns = default
        if missed == count:
            kernel(pc, rows, columns)
            return
        miss = idx < 0
        kernel(pc, rows[miss], columns)
        hit = ~miss
        rows, idx = rows[hit], idx[hit]
    if slot_of_rank is None:
        _run_slot(slots[0], pc, rows, idx, entries)
    else:
        slot_of_row = slot_of_rank[idx]
        for slot in _distinct(np, slot_of_row).tolist():
            chosen = slot_of_row == slot
            _run_slot(slots[slot], pc, rows[chosen], idx[chosen], entries)


def _run_slot(slot, pc, rows, ranks, entries) -> None:
    kernel, columns = slot
    bound = {name: col[ranks] for name, col in columns.items()}
    bound[_MATCHED] = (ranks, entries)
    kernel(pc, rows, bound)


def _note_drops(device, reason, count: int) -> None:
    device.packets_dropped += count
    device.note_drop(reason, count)


def _run_group(sp: _SigPlan, plan, pc, rows_global, parts, device):
    np = pc.np
    drop = pc.get("meta.drop")  # the intrinsic default: 0 on every row
    masked = pc.drop_writes
    parser = plan.parser
    if parser is not None:  # PISA: the whole chain, before stage 0
        parser.stats.packets += pc.m
        parser.stats.headers_extracted += sp.parsed_count * pc.m

    def run_side(tsps, active):
        # Dropped rows leave ``active`` before every stage and at the
        # end of every TSP, but the mask is recomputed only after a
        # ``meta.drop`` write.
        nonlocal masked
        for tsp in tsps:
            if active.size == 0:
                break
            tsp.stats.account_batch(packets=int(active.size))
            for stage in tsp.stages + (None,):
                if pc.drop_writes != masked:
                    masked = pc.drop_writes
                    active = active[drop[active] == 0]
                if stage is None or active.size == 0:
                    break
                if stage.parse_count:
                    tsp.stats.account_batch(
                        headers_parsed=stage.parse_count * int(active.size)
                    )
                _run_stage_arms(stage, pc, active, tsp.stats, np)
        return active

    survivors = run_side(sp.ingress, np.arange(pc.m))
    ingress_dead = pc.m - int(survivors.size)
    if ingress_dead:
        _note_drops(device, DropReason.INGRESS_ACTION, ingress_dead)
    if survivors.size and plan.tm is not None:
        # Every survivor is a unicast enqueue/dequeue pair through an
        # empty TM (mcast_grp is pinned to 0 by the eligibility
        # rules), grouped here by the egress port the scalar enqueue
        # would have queued on.
        ports = pc.get("meta.egress_spec")[survivors]
        unique, counts = _distinct(np, ports, counts=True)
        plan.tm.account_passthrough(
            list(zip((int(p) for p in unique), (int(c) for c in counts)))
        )
    final = run_side(sp.egress, survivors)
    egress_dead = int(survivors.size - final.size)
    if egress_dead:
        _note_drops(device, DropReason.EGRESS_ACTION, egress_dead)
    _emit_rows(sp, pc, final, rows_global, parts, device, plan.deparser)


def _emit_rows(sp, pc, final, rows_global, parts, device, deparser):
    """Scatter dirty columns, zero pad bits, splice pushed INT records,
    and hand the survivors on as matrix rows.

    Row ``r`` of the byte matrix is the original packet with its
    parsed prefix rewritten in place, so the first ``lengths[r]`` bytes
    of the row are exactly what scalar ``Packet.emit`` produces; a row
    that ran ``push_int`` additionally gets its record block inserted
    at ``sp.ctx.push_at``.  Each block of survivors joins ``parts`` as
    ``(batch rows, matrix, lengths, egress ports, to_cpu)``.
    """
    if final.size == 0:
        return
    np = pc.np
    for ref in pc.dirty:
        scatter = sp.recipes[ref][1]
        scatter(pc.mat, pc.cols[ref], _ALL)
    for byte_index, mask in sp.pad_fixups:
        pc.mat[:, byte_index] &= mask
    ports = pc.get("meta.egress_spec").astype(np.int64)
    to_cpu = pc.get("meta.to_cpu") != 0
    device.packets_out += int(final.size)
    device.punted += int(np.count_nonzero(to_cpu[final]))
    if deparser is not None:
        deparser.stats.packets += int(final.size)
        deparser.stats.bytes_emitted += int(pc.lengths[final].sum())
    if pc.pushes:
        block = np.zeros((pc.m, pc.pushes[0][1].shape[1]), np.uint8)
        pushed = np.zeros(pc.m, bool)
        for rows, rows_block in pc.pushes:
            block[rows] = rows_block
            pushed[rows] = True
        grown = final[pushed[final]]
        final = final[~pushed[final]]
        at = sp.ctx.push_at
        parts.append((
            rows_global[grown],
            np.concatenate(
                (pc.mat[grown, :at], block[grown], pc.mat[grown, at:]), axis=1
            ),
            pc.lengths[grown] + block.shape[1], ports[grown], to_cpu[grown],
        ))
        if final.size == 0:
            return
    if final.size == pc.m:
        parts.append((rows_global, pc.mat, pc.lengths, ports, to_cpu))
    else:
        parts.append((
            rows_global[final], pc.mat[final], pc.lengths[final],
            ports[final], to_cpu[final],
        ))


def _assemble(np, batch, parts) -> PacketBatch:
    """The output batch: every part's rows at their place in ``batch``
    (rows ascend within a part), under the input rows' ``index``."""
    if len(parts) == 1:
        rows, mat, lengths, ports, to_cpu = parts[0]
        return PacketBatch(np, mat, lengths, ports, batch.index[rows], to_cpu)
    alive = np.zeros(len(batch), bool)
    for part in parts:
        alive[part[0]] = True
    slot = np.cumsum(alive) - 1
    count = int(slot[-1]) + 1
    width = max((part[1].shape[1] for part in parts), default=0)
    mat = np.zeros((count, width), np.uint8)
    lengths = np.empty(count, np.int64)
    ports = np.empty(count, np.int64)
    to_cpu = np.empty(count, bool)
    for rows, part_mat, part_lengths, part_ports, part_cpu in parts:
        at = slot[rows]
        mat[at, :part_mat.shape[1]] = part_mat
        lengths[at] = part_lengths
        ports[at] = part_ports
        to_cpu[at] = part_cpu
    return PacketBatch(np, mat, lengths, ports, batch.index[alive], to_cpu)


# --------------------------------------------------------------------------
# The program cache + batch entry point
# --------------------------------------------------------------------------


class ColumnarProgram:
    """Vector lowering of one compiled scalar plan (sig plans cached)."""

    __slots__ = (
        "np", "supported", "header_types", "linkage",
        "first_header", "template", "sigs", "probes",
    )

    def __init__(self, np, core, plan):
        self.np = np
        self.sigs: Dict[tuple, Optional[_SigPlan]] = {}
        self.probes: List[tuple] = []  # learned parse paths (classify)
        self.template = core.metadata_template
        # Classify with the parse graph the device parses with.
        device = core.device
        self.header_types = device.header_types
        self.linkage = device.linkage
        group = self.template.get("mcast_grp", 0)
        # A default multicast group would route every packet through
        # TM replication -- scalar only.
        self.supported = plan.tm is None or (
            isinstance(group, int) and group == 0
        )
        self.first_header = device.first_header

    def sig(self, core, plan, key, chain, terminal) -> Optional[_SigPlan]:
        sp = self.sigs.get(key, _MISSING)
        if sp is _MISSING:
            try:
                sp = _compile_sig(core, plan, chain, terminal, self)
            except _Ineligible:
                sp = None
            self.sigs[key] = sp
        return sp


#: Batches below this row count run scalar without even consulting the
#: columnar program cache.  A warm signature group pays a fixed
#: overhead whatever its row count: on the base design the measured
#: crossover is 4 rows (IPSA and PISA) for a one-signature batch, 8
#: when the batch splits into two groups (dev_l3_fast mix: 2 051
#: routes).  It stays above the one-group crossover: a tiny batch against
#: a fresh plan (the fabric rollout's one-packet probe gate, times a
#: thousand nodes) would also pay a full ColumnarProgram compile it can
#: never amortize.
MIN_BATCH_ROWS = 8

#: Learned parse paths one :class:`ColumnarProgram` keeps for
#: :func:`classify`: enough for the shipped mixes' leaves, few enough
#: that probes which claim nothing stay cheap.
MAX_PROBES = 8


def try_run_batch(core, packets, stamps=None):
    """Run a whole :class:`PacketBatch` columnar.

    ``stamps`` are the rows' INT ingress timestamps (ns), read by the
    front door when the batch entered; ``None`` when the device has no
    INT clock.  Returns the batch of surviving rows, each under its
    input ``index`` -- a group's rewritten matrix rows as they are, a
    peeled row's scalar output written back at its place -- or ``None``
    when the batch should run on the scalar loop instead (no NumPy,
    unsupported device state, too few rows to amortize the column
    build, nothing vectorizable in it, or a ``count_and_mark`` table
    that two groups, or a group and a peeled row, could reach).  Given
    ``(data, port)`` pairs instead, it answers the per-row
    ``PortOut | None`` list.
    """
    np = _numpy()
    if np is None:
        return None
    if not isinstance(packets, PacketBatch):
        if len(packets) < MIN_BATCH_ROWS:
            return None
        from repro.dp.frontdoor import port_outputs

        out = try_run_batch(core, _batch_of(packets), stamps)
        return None if out is None else port_outputs(out, len(packets))
    n = len(packets)
    if n < MIN_BATCH_ROWS:
        return None
    device = core.device
    plan = core.plan()
    cached = core._columnar
    if cached is None or cached[0] is not plan:
        cached = (plan, ColumnarProgram(np, core, plan))
        core._columnar = cached
    prog = cached[1]
    if not prog.supported:
        return None
    if plan.tm is not None and plan.tm.occupancy() != 0:
        return None  # leftover TM state: keep the scalar path honest
    mat, lengths, ports, groups, peel = classify(
        np, packets, prog.header_types, prog.linkage, prog.first_header,
        prog.probes,
    )
    runnable = []
    peel_arrays = list(peel)
    for key, (chain, terminal, row_arrays) in groups.items():
        if len(row_arrays) == 1:
            rows = row_arrays[0]
        else:
            rows = np.sort(np.concatenate(row_arrays))
        sp = prog.sig(core, plan, key, chain, terminal)
        if sp is None or not sp.prepare(np):
            peel_arrays.append(rows)
            continue
        runnable.append((sp, rows))
    if not runnable:
        return None  # nothing vectorizable: plain scalar loop is cheaper
    counted = [id(ex.table) for sp, _ in runnable for ex in sp.execs if ex.counts]
    if counted and (peel_arrays or len(set(counted)) < len(counted)):
        return None  # a counter must see its rows in batch order
    parts: List[tuple] = []
    stamp_col = None
    if stamps is not None:
        stamp_col = np.array([stamp & _MASK64 for stamp in stamps], np.uint64)
    for sp, rows in runnable:
        pc = PacketColumns(
            np, mat[rows], lengths[rows], ports[rows],
            sp.recipes, prog.template,
            None if stamp_col is None else stamp_col[rows],
        )
        device.packets_in += pc.m
        device.clock += pc.m
        device._packet_bytes.observe_many(pc.lengths.tolist())
        _run_group(sp, plan, pc, rows, parts, device)
    if peel_arrays:
        parts.append(_run_peeled(np, core, packets, peel_arrays, stamps))
    return _assemble(np, packets, parts)


def _run_peeled(np, core, packets, peel_arrays, stamps):
    """The peeled rows through the scalar loop, as ``bytes``; their
    survivors come back as one part for :func:`_assemble`."""
    from repro.dp.frontdoor import run_scalar_rows

    peeled = np.sort(np.concatenate(peel_arrays))
    rows = peeled.tolist()
    items = dict(zip(rows, packets.take(peeled).pairs()))
    outputs: Dict[int, object] = {}
    run_scalar_rows(core, items, rows, outputs, stamps)
    kept = [row for row in rows if outputs[row] is not None]
    sent = PacketBatch.from_frames(
        [outputs[row].data for row in kept],
        [outputs[row].port for row in kept],
        to_cpu=[outputs[row].to_cpu for row in kept],
    )
    return (
        np.array(kept, np.int64), sent.mat, sent.lengths, sent.ports,
        sent.to_cpu,
    )
