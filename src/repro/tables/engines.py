"""Match engines: exact, LPM, ternary (TCAM), and hash (ECMP selector).

Each engine stores :class:`~repro.tables.table.TableEntry` objects and
answers point lookups against a tuple of key-field values.  The
:class:`~repro.tables.table.Table` facade picks the engine from the
declared match kinds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.tables.actions import flow_hash

__all__ = [
    "ExactEngine",
    "LpmEngine",
    "TernaryEngine",
    "HashEngine",
    "ENGINES",
    "MATCH_KINDS",
    "P4_MATCH_KINDS",
]


def _native_keys(np, widths, items):
    """Entry keys as composite ``uint64`` values (fields shifted
    together in key order, ``widths[i]`` bits each), or ``None`` when a
    part does not fit its declared width."""
    try:
        mat = np.array([key for key, _entry in items], np.uint64)
    except OverflowError:
        return None
    mat = mat.reshape(len(items), len(widths))
    if any(
        w < 64 and (mat[:, i] >> np.uint64(w)).any()
        for i, w in enumerate(widths)
    ):
        return None
    keys = mat[:, 0]
    for i, w in enumerate(widths[1:], 1):
        keys = (keys << np.uint64(w)) | mat[:, i]
    return keys


def _record_keys(np, field_bytes, items):
    """Entry keys as composite ints over whole ``8 * field_bytes``-bit
    slots (an object array), or ``None`` when a part is negative or too
    wide."""
    keys = []
    try:
        for key, _entry in items:
            composite = 0
            for v, nb in zip(key, field_bytes):
                if not 0 <= v < 1 << (8 * nb):
                    return None
                composite = composite << (8 * nb) | v
            keys.append(composite)
    except TypeError:
        return None
    return np.array(keys, object)


def _records(np, values, record):
    """Ints -> fixed-width big-endian byte records, which compare
    bytewise in integer order."""
    return np.array(
        [v.to_bytes(record, "big") for v in values.tolist()], f"S{record}"
    )


def _pack_query_records(np, cols, field_bytes, m):
    """Column arrays -> the same fixed-width records, one per row.

    ``cols[i]`` is a ``uint64`` array for an 8-byte field or an
    ``(hi, lo)`` pair of ``uint64`` arrays for a 16-byte field.
    """
    parts = []
    for col in cols:
        for half in col if isinstance(col, tuple) else (col,):
            parts.append(
                np.ascontiguousarray(half.astype(">u8"))
                .view(np.uint8).reshape(m, 8)
            )
    mat = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    mat = np.ascontiguousarray(mat)
    return mat.view(f"S{mat.shape[1]}").ravel()


def _paint(np, lo, last, bounds, sizes):
    """Paint blocks ``[lo, last]`` into elementary intervals.

    The blocks come in rank order, in groups of ``sizes``: a group's
    blocks are disjoint and sorted, and each nests in or misses every
    block of a later group.  Painting the groups last-first (shortest
    prefix first) leaves every interval the rank of the longest prefix
    covering it.  ``bounds`` holds the smallest key, every block start
    and every ``last + 1``; the returned ``(starts, rank)`` answer a
    key ``q`` with ``rank[searchsorted(starts, q, "right") - 1]``
    (-1: miss).
    """
    bounds = np.sort(bounds)
    starts = bounds[np.concatenate(([True], bounds[1:] != bounds[:-1]))]
    rank = np.full(starts.size, -1, np.int64)
    pos = np.arange(starts.size)
    end = lo.size
    for size in reversed(sizes):
        begin = end - size
        first = np.searchsorted(starts, lo[begin:end])
        stop = np.searchsorted(starts, last[begin:end], "right")
        block = np.searchsorted(first, pos, "right") - 1
        inside = (block >= 0) & (pos < stop[block])
        rank[inside] = begin + block[inside]
        end = begin
    keep = np.concatenate(([True], rank[1:] != rank[:-1]))
    return starts[keep], rank[keep]


class _RangeIndexed:
    """The batch index of the exact and LPM engines.

    Each entry matches one aligned block of composite keys: an exact
    key is a block of one, a prefix covers the block its free low bits
    span, and a ``/0`` covers its whole slot (what the scalar mask does
    to an oversize value).  The blocks are painted into elementary
    intervals, so a batch lookup is one query build and one
    ``searchsorted`` however many prefix lengths are installed: the
    range-search LPM of Lampson, Srinivasan and Varghese, "IP Lookups
    Using Multiway and Multicolumn Search" (IEEE/ACM ToN 1999).

    Keys whose declared widths sum to <= 64 bits, with every installed
    part inside its width, use one sorted ``uint64`` array; a query row
    with a part beyond its width answers through the scalar
    :meth:`lookup`.  Wider keys use fixed-width byte records.
    """

    def build_batch_index(self, np, field_bytes, widths=None) -> bool:
        """(Re)build the index for ``field_bytes`` column bytes and the
        declared ``widths`` in bits (default: whole columns) per key
        field; ``False`` -> stay scalar."""
        shape = (field_bytes, widths)
        cached = self._batch
        if cached is not None and cached[0] == self.version and cached[1] == shape:
            return True
        groups = self._batch_groups()
        items = [item for _free, group in groups for item in group]
        sizes = [len(group) for _free, group in groups]
        slots = widths or tuple(8 * nb for nb in field_bytes)
        lo = _native_keys(np, slots, items) if sum(slots) <= 64 else None
        if lo is not None:
            native = tuple((np.uint64(w), w < 64) for w in slots)
            dtype, one = np.uint64, np.uint64(1)
        else:
            native, dtype, one = None, object, 1
            slots = tuple(8 * nb for nb in field_bytes)
            lo = _record_keys(np, field_bytes, items)
            if lo is None:
                self._batch = None
                return False
        low = [(1 << (slots[-1] if free is None else free)) - 1
               for free, _group in groups]
        last = lo | np.repeat(np.array(low, dtype), sizes)
        after = last + one  # uint64 wraps to 0 past the top key
        if native is None:
            record = sum(field_bytes)
            after %= 1 << (8 * record)
            lo, last, after = (
                _records(np, keys, record) for keys in (lo, last, after)
            )
        order = np.lexsort((lo, np.repeat(np.arange(len(sizes)), sizes)))
        lo, last = lo[order], last[order]
        bounds = np.concatenate((np.zeros(1, lo.dtype), lo, after))
        starts, rank = _paint(np, lo, last, bounds, sizes)
        self._batch = (
            self.version, shape, native, starts, rank,
            [items[i][1] for i in order.tolist()],
        )
        return True

    def _lookup_ranks(self, np, cols, m, fits=None):
        """Batched lookup: (entry-rank array with -1 for miss, entries).
        ``entries`` is the index's own list: one object per version.
        ``fits[i]`` marks a column that never exceeds its declared
        width, so it skips the oversize guard."""
        _version, shape, native, starts, rank, entries = self._batch
        over = None
        if native is None:
            query = _pack_query_records(np, cols, shape[0], m)
        else:
            query = None
            for at, (col, (width, guarded)) in enumerate(zip(cols, native)):
                query = col if query is None else (query << width) | col
                if guarded and not (fits and fits[at]):
                    high = col >> width
                    over = high if over is None else over | high
        idx = rank[starts.searchsorted(query, "right") - 1]
        if over is not None and over.any():
            for row in np.flatnonzero(over).tolist():
                found = self.lookup(tuple(int(col[row]) for col in cols))
                idx[row] = next(
                    (i for i, e in enumerate(entries) if e is found), -1
                )
        return idx, entries

    def batch_entries(self) -> List[object]:
        """The entry list batch ranks index: one object per version."""
        return self._batch[5]


class ExactEngine(_RangeIndexed):
    """All key fields matched exactly: a plain hash map."""

    kind = "exact"

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, ...], object] = {}
        #: Bumped on every mutation; batch indexes cache against it.
        self.version = 0
        self._batch = None

    def insert(self, key: Tuple[int, ...], entry: object) -> None:
        self._entries[key] = entry
        self.version += 1

    def remove(self, key: Tuple[int, ...]) -> object:
        try:
            entry = self._entries.pop(key)
        except KeyError:
            raise KeyError(f"no exact entry for key {key}") from None
        self.version += 1
        return entry

    def lookup(self, values: Tuple[int, ...]) -> Optional[object]:
        return self._entries.get(values)

    def _batch_groups(self):
        """One group of one-key blocks (free bits 0)."""
        items = list(self._entries.items())
        return [(0, items)] if items else []

    def lookup_batch(self, np, cols, m, fits=None):
        """Batched :meth:`lookup` of ``m`` rows (see ``_lookup_ranks``)."""
        return self._lookup_ranks(np, cols, m, fits)

    def entries(self) -> List[object]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


class LpmEngine(_RangeIndexed):
    """One longest-prefix-match field, optionally preceded by exact fields.

    The LPM field's key is a ``(value, prefix_len)`` pair.  Lookup
    scans installed prefix lengths from longest to shortest; within a
    length the match is a hash lookup, so cost is O(#distinct lengths).
    The batch index answers every length in one probe.
    """

    kind = "lpm"

    def __init__(self, exact_count: int, lpm_width: int) -> None:
        self.exact_count = exact_count
        self.lpm_width = lpm_width
        # prefix_len -> {(exact..., masked_value): entry}
        self._by_len: Dict[int, Dict[Tuple[int, ...], object]] = {}
        #: Bumped on every mutation; batch indexes cache against it.
        self.version = 0
        self._batch = None

    def _mask(self, value: int, prefix_len: int) -> int:
        if prefix_len == 0:
            return 0
        shift = self.lpm_width - prefix_len
        return (value >> shift) << shift

    def insert(
        self, exact: Tuple[int, ...], value: int, prefix_len: int, entry: object
    ) -> None:
        if not 0 <= prefix_len <= self.lpm_width:
            raise ValueError(
                f"prefix length {prefix_len} out of range for "
                f"{self.lpm_width}-bit LPM field"
            )
        if len(exact) != self.exact_count:
            raise ValueError(
                f"expected {self.exact_count} exact key parts, got {len(exact)}"
            )
        bucket = self._by_len.setdefault(prefix_len, {})
        bucket[exact + (self._mask(value, prefix_len),)] = entry
        self.version += 1

    def remove(self, exact: Tuple[int, ...], value: int, prefix_len: int) -> object:
        bucket = self._by_len.get(prefix_len, {})
        key = exact + (self._mask(value, prefix_len),)
        try:
            entry = bucket.pop(key)
        except KeyError:
            raise KeyError(f"no LPM entry for {value:#x}/{prefix_len}") from None
        if not bucket:
            del self._by_len[prefix_len]
        self.version += 1
        return entry

    def lookup(self, values: Tuple[int, ...]) -> Optional[object]:
        exact, lpm_value = values[:-1], values[-1]
        for plen in sorted(self._by_len, reverse=True):
            key = exact + (self._mask(lpm_value, plen),)
            entry = self._by_len[plen].get(key)
            if entry is not None:
                return entry
        return None

    def _batch_groups(self):
        """Longest prefix first; a group's free bits are the bits its
        prefix leaves open (``None``: a ``/0``, its whole slot)."""
        return [
            (self.lpm_width - plen if plen else None, list(bucket.items()))
            for plen, bucket in sorted(self._by_len.items(), reverse=True)
        ]

    def lookup_batch(self, np, exact_cols, lpm_col, m, fits=None):
        """Batched longest-prefix match of ``m`` rows: one probe, not
        one per prefix length (see ``_lookup_ranks``)."""
        return self._lookup_ranks(np, [*exact_cols, lpm_col], m, fits)

    def entries(self) -> List[object]:
        return [e for bucket in self._by_len.values() for e in bucket.values()]

    def __len__(self) -> int:
        return sum(len(b) for b in self._by_len.values())


class TernaryEngine:
    """TCAM model: value/mask per field, highest priority wins."""

    kind = "ternary"

    def __init__(self, field_count: int) -> None:
        self.field_count = field_count
        # (values, masks, priority, entry), kept sorted by priority desc.
        self._rows: List[Tuple[Tuple[int, ...], Tuple[int, ...], int, object]] = []
        #: Bumped on every mutation (parity with the batchable engines).
        self.version = 0

    def insert(
        self,
        values: Tuple[int, ...],
        masks: Tuple[int, ...],
        priority: int,
        entry: object,
    ) -> None:
        if len(values) != self.field_count or len(masks) != self.field_count:
            raise ValueError(
                f"expected {self.field_count} values and masks, got "
                f"{len(values)}/{len(masks)}"
            )
        row = (tuple(v & m for v, m in zip(values, masks)), tuple(masks), priority, entry)
        self._rows.append(row)
        self._rows.sort(key=lambda r: -r[2])
        self.version += 1

    def remove(self, values: Tuple[int, ...], masks: Tuple[int, ...]) -> object:
        masked = tuple(v & m for v, m in zip(values, masks))
        for i, row in enumerate(self._rows):
            if row[0] == masked and row[1] == tuple(masks):
                self.version += 1
                return self._rows.pop(i)[3]
        raise KeyError(f"no ternary entry for {values}/{masks}")

    def lookup(self, values: Tuple[int, ...]) -> Optional[object]:
        for masked, masks, _prio, entry in self._rows:
            if all((v & m) == mv for v, m, mv in zip(values, masks, masked)):
                return entry
        return None

    def entries(self) -> List[object]:
        return [row[3] for row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)


class HashEngine:
    """ECMP-style selector: a flow hash picks one of the member entries.

    The paper's ``key = { meta.nexthop: hash; ipv4.dst_addr: hash; }``
    means the key fields feed a flow hash whose value selects among the
    installed member entries (next-hop group members).  Members are
    kept in insertion order; the hash is reduced modulo the member
    count, so a fixed flow always picks the same member while distinct
    flows spread across members.
    """

    kind = "hash"

    def __init__(self) -> None:
        self._members: List[object] = []
        #: Bumped on every mutation; batch callers cache against it.
        self.version = 0
        self._batch = None

    def insert(self, entry: object) -> None:
        self._members.append(entry)
        self.version += 1

    def remove_member(self, index: int) -> object:
        try:
            member = self._members.pop(index)
        except IndexError:
            raise KeyError(f"no hash member at index {index}") from None
        self.version += 1
        return member

    def lookup(self, values: Tuple[int, ...]) -> Optional[object]:
        if not self._members:
            return None
        index = flow_hash(list(values)) % len(self._members)
        return self._members[index]

    def batch_entries(self) -> List[object]:
        """The member list batch ranks index: one object per version."""
        cached = self._batch
        if cached is None or cached[0] != self.version:
            cached = self._batch = (self.version, list(self._members))
        return cached[1]

    def lookup_batch(self, np, rows):
        """The scalar flow hash (cheap, exact) over key-value tuples:
        (member-rank array with -1 when there is no member, members)."""
        members = self.batch_entries()
        count = len(members)
        if not count:
            return np.full(len(rows), -1, np.int64), members
        picks = [flow_hash(list(values)) % count for values in rows]
        return np.array(picks, np.int64), members

    def entries(self) -> List[object]:
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)


#: The engine registry: canonical match kind -> engine class.  Every
#: front end and validator derives its accepted match kinds from this
#: registry, so adding an engine automatically teaches the parsers,
#: the config validator, and rp4lint about the new kind.
ENGINES = {
    engine.kind: engine
    for engine in (ExactEngine, LpmEngine, TernaryEngine, HashEngine)
}

#: Match kinds an rP4 table key may declare (one per engine).
MATCH_KINDS = frozenset(ENGINES)

#: The mini-P4 front end additionally accepts ``selector`` (an
#: action-selector key), which it lowers onto the hash engine.
P4_MATCH_KINDS = frozenset(MATCH_KINDS | {"selector"})
