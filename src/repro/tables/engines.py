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


def _pack_key_records(np, keys, field_bytes):
    """Pack python-int key tuples into fixed-width big-endian records.

    Returns a ``numpy`` byte-string array (one record per key) or
    ``None`` when any key part does not fit its declared field width
    (negative or oversized values) -- the caller then keeps the scalar
    lookup path.  Fixed-width big-endian records compare bytewise in
    the same order as the integer tuples, so a sorted record array
    supports ``searchsorted`` batch lookups.
    """
    record = sum(field_bytes)
    packed = []
    for key in keys:
        try:
            packed.append(
                b"".join(
                    int(v).to_bytes(nb, "big")
                    for v, nb in zip(key, field_bytes)
                )
            )
        except (OverflowError, TypeError, AttributeError):
            return None
    return np.array(packed, dtype=f"S{record}")


def _pack_query_records(np, cols, field_bytes, m):
    """Column arrays -> the same fixed-width records, one per row.

    ``cols[i]`` is a ``uint64`` array for an 8-byte field or an
    ``(hi, lo)`` pair of ``uint64`` arrays for a 16-byte field.
    """
    parts = []
    for col, nb in zip(cols, field_bytes):
        if nb == 16:
            hi, lo = col
            parts.append(
                np.ascontiguousarray(hi.astype(">u8"))
                .view(np.uint8).reshape(m, 8)
            )
            parts.append(
                np.ascontiguousarray(lo.astype(">u8"))
                .view(np.uint8).reshape(m, 8)
            )
        else:
            parts.append(
                np.ascontiguousarray(col.astype(">u8"))
                .view(np.uint8).reshape(m, 8)
            )
    mat = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    mat = np.ascontiguousarray(mat)
    return mat.view(f"S{mat.shape[1]}").ravel()


class ExactEngine:
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

    def build_batch_index(self, np, field_bytes) -> bool:
        """(Re)build the sorted-record index; ``False`` -> stay scalar."""
        cached = self._batch
        if (
            cached is not None
            and cached[0] == self.version
            and cached[1] == field_bytes
        ):
            return True
        items = list(self._entries.items())
        recs = _pack_key_records(np, [k for k, _ in items], field_bytes)
        if recs is None:
            self._batch = None
            return False
        order = np.argsort(recs)
        self._batch = (
            self.version,
            field_bytes,
            recs[order],
            [items[int(i)][1] for i in order],
        )
        return True

    def lookup_batch(self, np, cols, m):
        """Batched lookup: (entry-rank array with -1 for miss, entries).
        ``entries`` is the index's own list: one object per version."""
        _version, field_bytes, sorted_recs, entries = self._batch
        if not entries:
            return np.full(m, -1, np.int64), entries
        query = _pack_query_records(np, cols, field_bytes, m)
        pos = np.searchsorted(sorted_recs, query)
        clamped = np.minimum(pos, len(entries) - 1)
        hit = sorted_recs[clamped] == query
        return np.where(hit, clamped, -1).astype(np.int64), entries

    def batch_entries(self) -> List[object]:
        """The entry list batch ranks index: one object per version."""
        return self._batch[3]

    def entries(self) -> List[object]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


class LpmEngine:
    """One longest-prefix-match field, optionally preceded by exact fields.

    The LPM field's key is a ``(value, prefix_len)`` pair.  Lookup
    scans installed prefix lengths from longest to shortest; within a
    length the match is a hash lookup, so cost is O(#distinct lengths).
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

    def build_batch_index(self, np, field_bytes) -> bool:
        """Per-prefix-length sorted-record indexes (longest first)."""
        cached = self._batch
        if (
            cached is not None
            and cached[0] == self.version
            and cached[1] == field_bytes
        ):
            return True
        buckets = []
        entries: List[object] = []  # rank order: longest first, then record
        for plen in sorted(self._by_len, reverse=True):
            items = list(self._by_len[plen].items())
            recs = _pack_key_records(np, [k for k, _ in items], field_bytes)
            if recs is None:
                self._batch = None
                return False
            order = np.argsort(recs)
            buckets.append((plen, recs[order], len(entries)))
            entries.extend(items[i][1] for i in order.tolist())
        self._batch = (self.version, field_bytes, buckets, entries)
        return True

    def _mask_col(self, np, col, prefix_len):
        """Vector version of :meth:`_mask` (handles the (hi, lo) pair
        representation of >64-bit LPM fields)."""
        width = self.lpm_width
        if isinstance(col, tuple):
            hi, lo = col
            shift = width - prefix_len
            if prefix_len == 0:
                zero = np.zeros_like(hi)
                return (zero, zero)
            if shift >= 64:
                hs = shift - 64
                masked_hi = hi if hs == 0 else (hi >> hs) << hs
                return (masked_hi, np.zeros_like(lo))
            if shift == 0:
                return (hi, lo)
            return (hi, (lo >> shift) << shift)
        if prefix_len == 0:
            return np.zeros_like(col)
        shift = width - prefix_len
        if shift == 0:
            return col
        return (col >> shift) << shift

    def lookup_batch(self, np, exact_cols, lpm_col, m):
        """Batched longest-prefix match, one masked pass per length,
        until every row is resolved.  Ranks index the flat ``entries``
        list the index was built with (one object per version)."""
        _version, field_bytes, buckets, entries = self._batch
        idx = np.full(m, -1, np.int64)
        unresolved = np.ones(m, bool)
        for plen, sorted_recs, base in buckets:
            masked = self._mask_col(np, lpm_col, plen)
            query = _pack_query_records(
                np, list(exact_cols) + [masked], field_bytes, m
            )
            pos = np.searchsorted(sorted_recs, query)
            clamped = np.minimum(pos, len(sorted_recs) - 1)
            hit = (sorted_recs[clamped] == query) & unresolved
            idx[hit] = base + clamped[hit]
            unresolved &= ~hit
            if not unresolved.any():
                break
        return idx, entries

    def batch_entries(self) -> List[object]:
        """The entry list batch ranks index: one object per version."""
        return self._batch[3]

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
