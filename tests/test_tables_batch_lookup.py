"""Differential test: a batched table lookup is row-by-row scalar lookup.

``Table.lookup_batch`` answers from the engines' range index (one
``uint64`` per key when the declared widths sum to <= 64 bits, byte
records otherwise); ``Table.lookup`` walks the engine's dicts.  On
random exact and LPM tables -- nested prefixes including ``/0`` and
full-width ones, 128-bit ``(hi, lo)`` fields, entry and query values
wider than their declared field, an empty table, inserts and removes
between batches -- both must pick the same entry for every row and
leave the same table and per-entry counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import Packet
from repro.tables.table import KeyField, MatchKind, Table, TableEntry

np = pytest.importorskip("numpy")

WIDTHS = (1, 8, 16, 24, 32, 48, 64, 128)


def _column_cap(width):
    """Values a key column can carry: 64 bits, or 128 as ``(hi, lo)``."""
    return 1 << (128 if width > 64 else 64)


@st.composite
def values_for(draw, width):
    """A key value: usually inside the declared width, sometimes wider
    (up to what the field's column can carry)."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.integers(0, _column_cap(width) - 1))
    return draw(st.integers(0, (1 << width) - 1))


@st.composite
def tables(draw):
    """(kind, widths, keys): two to forty entry keys, one per entry."""
    kind = draw(st.sampled_from(["exact", "lpm"]))
    widths = draw(st.lists(st.sampled_from(WIDTHS), min_size=1, max_size=3))
    keys = []
    # Prefixes nest: later keys often extend or shorten an earlier one.
    for _ in range(draw(st.integers(2, 40))):
        parts = [draw(values_for(w)) for w in widths]
        if keys and draw(st.booleans()):
            parts[:-1] = keys[draw(st.integers(0, len(keys) - 1))][:-1]
            if kind == "lpm":
                parts[-1] = keys[draw(st.integers(0, len(keys) - 1))][-1][0]
        if kind == "lpm":
            width = widths[-1]
            plen = draw(st.sampled_from([0, width, draw(st.integers(0, width))]))
            parts[-1] = (parts[-1], plen)
        keys.append(tuple(parts))
    return kind, widths, keys


def _table(kind, widths):
    kinds = [MatchKind.EXACT] * len(widths)
    if kind == "lpm":
        kinds[-1] = MatchKind.LPM
    return Table("t", [
        KeyField(f"meta.k{i}", k, w)
        for i, (k, w) in enumerate(zip(kinds, widths))
    ], size=4096)


def _entry(key, n):
    return TableEntry(key=key, action="a", action_data={"n": n}, tag=1)


def _install(table, keys, first=0):
    """Install ``keys`` as entries ``first``, ``first + 1``, ... (a
    repeated match spec replaces the earlier entry, as it does in the
    engines' dicts)."""
    for n, key in enumerate(keys, first):
        table.add_entry(_entry(key, n))


def _alias(widths, parts):
    """The row whose fields, packed into one ``uint64`` at their
    declared widths, collide with ``parts`` packed the same way (an
    oversize part spills into its neighbour or off the top)."""
    composite = 0
    for v, w in zip(parts, widths):
        composite = (composite << w) | v
    composite &= (1 << 64) - 1
    row = []
    for w in reversed(widths[1:]):
        row.append(composite & ((1 << w) - 1))
        composite >>= w
    return (composite, *reversed(row))


def _queries(draw, widths, keys, count):
    """Rows near installed keys (hits at every length), their packed
    aliases, random and oversize values."""
    rows = []
    for _ in range(count):
        if keys and draw(st.booleans()):
            base = list(keys[draw(st.integers(0, len(keys) - 1))])
            base = [p[0] if isinstance(p, tuple) else p for p in base]
            if sum(widths) <= 64 and draw(st.booleans()):
                base = _alias(widths, base)
            else:
                base[-1] ^= draw(st.integers(0, 255))
            rows.append(tuple(min(v, _column_cap(w) - 1)
                              for v, w in zip(base, widths)))
        else:
            rows.append(tuple(draw(values_for(w)) for w in widths))
    return rows


def _columns(widths, rows):
    cols = []
    for i, w in enumerate(widths):
        values = [row[i] for row in rows]
        if w > 64:
            cols.append((
                np.array([v >> 64 for v in values], np.uint64),
                np.array([v & ((1 << 64) - 1) for v in values], np.uint64),
            ))
        else:
            cols.append(np.array(values, np.uint64))
    return cols


def _batch(table, widths, rows, lengths, fits=None):
    """Batched lookup -> the ``n`` of each row's entry (None: miss)."""
    assert table.prepare_batch(np)
    idx, entries = table.lookup_batch(
        np, _columns(widths, rows), np.array(lengths, np.uint64), fits
    )
    return [entries[i].action_data["n"] if i >= 0 else None
            for i in idx.tolist()]


def _scalar(table, rows, lengths):
    picked = []
    for row, length in zip(rows, lengths):
        meta = {f"k{i}": v for i, v in enumerate(row)}
        meta["packet_length"] = length
        result = table.lookup(Packet(b"", metadata=meta))
        picked.append(result.entry.action_data["n"] if result.hit else None)
    return picked


def _counters(table):
    return (
        table.hit_count, table.miss_count,
        sorted((e.action_data["n"], e.hits, e.bytes) for e in table.entries()),
    )


def _assert_same(batch, scalar, widths, draw, count):
    keys = [e.key for e in scalar.entries()]
    rows = _queries(draw, widths, keys, count)
    lengths = [draw(st.integers(14, 1500)) for _ in rows]
    assert _batch(batch, widths, rows, lengths) == _scalar(scalar, rows, lengths)
    assert _counters(batch) == _counters(scalar)


@given(spec=tables(), data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_batch_lookup_equals_scalar_lookup(spec, data):
    kind, widths, keys = spec
    batch, scalar = _table(kind, widths), _table(kind, widths)
    _assert_same(batch, scalar, widths, data.draw, 8)  # empty table
    for table in (batch, scalar):
        _install(table, keys)
    _assert_same(batch, scalar, widths, data.draw, 32)
    # Writes between batches: the index rebuilds for the new version.
    gone = data.draw(st.integers(0, len(batch) - 1))
    extra = keys[data.draw(st.integers(0, len(keys) - 1))]
    for table in (batch, scalar):
        table.remove_entry(table.entries()[gone])
        _install(table, [extra], first=len(keys))
    _assert_same(batch, scalar, widths, data.draw, 32)


def test_both_codecs_and_the_oversize_guard_run():
    """The cases the property covers, pinned: a 48-bit key answers from
    ``uint64`` keys and a 96-bit one from records; a query part wider
    than its declared field answers through the scalar lookup (a ``/0``
    for the LPM part, a miss for the exact one)."""
    narrow, wide = _table("lpm", (16, 32)), _table("lpm", (32, 64))
    for table, top in ((narrow, 0x0A << 24), (wide, 0x0A << 56)):
        table.add_entry(_entry((1, (0, 0)), 0))
        table.add_entry(_entry((1, (top, 8)), 1))
        assert table.prepare_batch(np)
    assert narrow._engine._batch[2] is not None
    assert wide._engine._batch[2] is None
    rows = [(1, 0x0A010101), (1, 0x0B000000), (1, 1 << 40),
            (1 << 20, 0x0A000001), (2, 0x0A000001)]
    assert _batch(narrow, (16, 32), rows, [64] * 5) == [1, 0, 0, None, None]
    rows = [(1, 0x0A01 << 48), (1, 0x0B << 56), (1 << 40, 0x0A << 56), (2, 5)]
    assert _batch(wide, (32, 64), rows, [64] * 4) == [1, 0, None, None]


def test_fits_spares_the_guard_column_by_column():
    """A column marked as fitting its declared width skips the oversize
    guard; one that is not -- a metadata column -- still answers
    through the scalar lookup when it is wider.  Unguarded, the 16 + 9
    bit packed key of ``(0x0800, 0x201)`` would alias entry
    ``(0x0801, 1)``."""
    table, scalar = _table("exact", (16, 9)), _table("exact", (16, 9))
    _install(table, [(0x0801, 1), (0x0800, 1)])
    _install(scalar, [(0x0801, 1), (0x0800, 1)])
    rows = [(0x0800, 1), (0x0800, 0x201), (0x0801, 1), (0x0900, 1)]
    assert _alias((16, 9), rows[1]) == (0x0801, 1)
    got = _batch(table, (16, 9), rows, [64] * 4, fits=(True, False))
    assert got == _scalar(scalar, rows, [64] * 4) == [1, None, 0, None]
    assert _counters(table) == _counters(scalar)


def test_sites_trust_header_columns_and_guard_metadata():
    """The columnar compile marks a key part as fitting exactly when it
    reads a header field no wider than the part: ``l2_l3`` keys on
    ``(meta.bd, ethernet.dst_addr)``, ``ipv4_lpm`` on ``(meta.vrf,
    ipv4.dst_addr)``."""
    from repro.bench.scenarios import case_trace, make_switch

    switch = make_switch("ipsa", "base")
    switch.inject_batch(case_trace("base", 32))
    fits = {
        ex.table.name: ex.fits
        for sp in switch.dp._columnar[1].sigs.values() if sp is not None
        for ex in sp.execs
    }
    assert fits["l2_l3"] == (False, True)
    assert fits["ipv4_lpm"] == (False, True)
    assert fits["port_map"] == (False,)


def test_an_oversize_metadata_key_answers_like_the_scalar_loop():
    """End to end: ``port_map`` keys on ``meta.ingress_port``, so a
    port wider than that key part keeps the guard on the columnar path
    and every row answers as N ``inject`` calls do."""
    from repro.bench.scenarios import case_trace, make_switch

    items = [
        (data, port + (1 << 40) if i % 3 == 0 else port)
        for i, (data, port) in enumerate(case_trace("base", 24))
    ]
    batch, singles = make_switch("ipsa", "base"), make_switch("ipsa", "base")
    want = [singles.inject(data, port) for data, port in items]
    got = list(batch.inject_batch(items))
    assert [(o.port, o.data) if o else None for o in got] == [
        (o.port, o.data) if o else None for o in want
    ]
    assert batch.dp._columnar is not None
    assert batch.tables["port_map"].miss_count == singles.tables["port_map"].miss_count
