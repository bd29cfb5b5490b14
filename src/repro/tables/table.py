"""The logical table facade shared by PISA stages and IPSA TSPs.

A :class:`Table` declares key fields (each with a match kind), a
capacity, and holds entries binding actions.  The engine is chosen
from the declared kinds:

* all ``EXACT``                      -> :class:`ExactEngine`
* exactly one ``LPM`` (rest exact)   -> :class:`LpmEngine`
* any ``TERNARY``                    -> :class:`TernaryEngine`
* any ``HASH``                       -> :class:`HashEngine` (ECMP selector)

Lookup returns a :class:`LookupResult` carrying the matched entry and
its *executor tag* -- the small integer the rP4 executor template maps
to an action (Fig. 5(a): ``executor { 1: set_bd_dmac; ... }``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.net.packet import Packet
from repro.tables.engines import ExactEngine, HashEngine, LpmEngine, TernaryEngine


class MatchKind(enum.Enum):
    """P4/rP4 match kinds supported by the behavioral models."""

    EXACT = "exact"
    LPM = "lpm"
    TERNARY = "ternary"
    HASH = "hash"

    @classmethod
    def from_str(cls, text: str) -> "MatchKind":
        try:
            return cls(text)
        except ValueError:
            raise ValueError(f"unknown match kind {text!r}") from None


@dataclass(frozen=True)
class KeyField:
    """One key field: a dotted reference plus its match kind and width."""

    ref: str
    kind: MatchKind
    width: int = 32


@dataclass
class TableEntry:
    """One installed entry: match spec + action binding + counters.

    ``key`` items are ints for exact/hash fields, ``(value, prefix_len)``
    for LPM fields, and ``(value, mask)`` for ternary fields.
    """

    key: Tuple[Union[int, Tuple[int, int]], ...]
    action: str
    action_data: Dict[str, int] = field(default_factory=dict)
    tag: int = 1
    priority: int = 0
    counter: int = 0  # direct counter (used by the C3 flow probe)
    hits: int = 0
    bytes: int = 0  # direct byte counter (accumulated on hit)


@dataclass
class LookupResult:
    """Outcome of a table lookup."""

    hit: bool
    table: str
    entry: Optional[TableEntry] = None
    tag: int = 0  # executor tag: entry tag on hit, 0 (default) on miss
    action: str = ""
    action_data: Dict[str, int] = field(default_factory=dict)


def _compile_key_reader(ref: str):
    """Dotted key reference -> prebound accessor closure.

    Preserves :meth:`repro.net.packet.Packet.read` error semantics
    (malformed refs, unknown metadata fields, unparsed headers) plus
    the lookup-time integer check, so misconfigured keys fail with the
    same exceptions they always did.
    """
    scope, _, field_name = ref.partition(".")
    if not field_name:
        def read_malformed(packet: Packet):
            raise ValueError(f"malformed field reference {ref!r}")
        return read_malformed
    if scope == "meta":
        def read_meta(packet: Packet) -> int:
            metadata = packet.metadata
            if field_name not in metadata:
                raise KeyError(f"unknown metadata field {field_name!r}")
            value = metadata[field_name]
            if not isinstance(value, int):
                raise TypeError(
                    f"key field {ref!r} is not an integer field"
                )
            return value
        return read_meta

    def read_header(packet: Packet) -> int:
        value = packet.header(scope).get(field_name)
        if not isinstance(value, int):
            raise TypeError(f"key field {ref!r} is not an integer field")
        return value
    return read_header


class Table:
    """A logical match-action table."""

    def __init__(
        self,
        name: str,
        key: Sequence[KeyField],
        size: int = 1024,
        default_action: str = "NoAction",
        default_data: Optional[Dict[str, int]] = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"table {name!r}: size must be positive")
        self.name = name
        self.key = list(key)
        self.size = size
        self.default_action = default_action
        self.default_data = dict(default_data or {})
        self.hit_count = 0
        self.miss_count = 0
        self._engine = self._pick_engine()
        # Key-field accessors prebound at construction: lookup is the
        # hot path, so the dotted-ref parse happens once per table
        # instead of once per packet per field.
        self._key_readers = tuple(
            _compile_key_reader(kf.ref) for kf in self.key
        )

    @property
    def engine_kind(self) -> str:
        """Which match engine backs this table (exact/lpm/ternary/hash)."""
        return self._engine.kind

    # -- engine selection ------------------------------------------------

    def _pick_engine(self):
        kinds = [k.kind for k in self.key]
        if not kinds:
            raise ValueError(f"table {self.name!r} has no key fields")
        if any(k is MatchKind.HASH for k in kinds):
            if not all(k is MatchKind.HASH for k in kinds):
                raise ValueError(
                    f"table {self.name!r}: hash keys cannot be mixed with "
                    "other match kinds"
                )
            return HashEngine()
        if any(k is MatchKind.TERNARY for k in kinds):
            return TernaryEngine(len(kinds))
        lpm_positions = [i for i, k in enumerate(kinds) if k is MatchKind.LPM]
        if len(lpm_positions) > 1:
            raise ValueError(
                f"table {self.name!r}: at most one LPM key field is allowed"
            )
        if lpm_positions:
            if lpm_positions[0] != len(kinds) - 1:
                raise ValueError(
                    f"table {self.name!r}: the LPM field must be the last key field"
                )
            return LpmEngine(len(kinds) - 1, self.key[-1].width)
        return ExactEngine()

    @property
    def match_kind(self) -> MatchKind:
        """The dominant match kind (what memory type the table needs)."""
        kinds = {k.kind for k in self.key}
        if MatchKind.TERNARY in kinds:
            return MatchKind.TERNARY
        if MatchKind.LPM in kinds:
            return MatchKind.LPM
        if MatchKind.HASH in kinds:
            return MatchKind.HASH
        return MatchKind.EXACT

    def key_width(self) -> int:
        """Total key width in bits (drives memory block demand)."""
        return sum(k.width for k in self.key)

    # -- entry management --------------------------------------------------

    def add_entry(self, entry: TableEntry) -> None:
        """Install an entry; raises once the declared size is exceeded."""
        if len(self._engine) >= self.size:
            raise OverflowError(
                f"table {self.name!r} is full ({self.size} entries)"
            )
        engine = self._engine
        if isinstance(engine, ExactEngine):
            engine.insert(self._exact_key(entry), entry)
        elif isinstance(engine, LpmEngine):
            *exact, lpm = entry.key
            if not (isinstance(lpm, tuple) and len(lpm) == 2):
                raise TypeError(
                    f"table {self.name!r}: LPM key part must be (value, prefix_len)"
                )
            engine.insert(tuple(self._as_int(p) for p in exact), lpm[0], lpm[1], entry)
        elif isinstance(engine, TernaryEngine):
            values, masks = self._ternary_key(entry)
            engine.insert(values, masks, entry.priority, entry)
        else:  # HashEngine: entries are group members, key is ignored
            engine.insert(entry)

    def remove_entry(self, entry: TableEntry) -> None:
        """Remove a previously installed entry."""
        engine = self._engine
        if isinstance(engine, ExactEngine):
            engine.remove(self._exact_key(entry))
        elif isinstance(engine, LpmEngine):
            *exact, lpm = entry.key
            assert isinstance(lpm, tuple)
            engine.remove(tuple(self._as_int(p) for p in exact), lpm[0], lpm[1])
        elif isinstance(engine, TernaryEngine):
            values, masks = self._ternary_key(entry)
            engine.remove(values, masks)
        else:
            members = engine.entries()
            try:
                engine.remove_member(members.index(entry))
            except ValueError:
                raise KeyError(
                    f"entry not present in hash table {self.name!r}"
                ) from None

    def clear(self) -> None:
        """Drop every entry (used when a PISA reload repopulates tables)."""
        self._engine = self._pick_engine()

    def entries(self) -> List[TableEntry]:
        return list(self._engine.entries())  # type: ignore[arg-type]

    def __len__(self) -> int:
        return len(self._engine)

    def metrics_samples(self):
        """This table's registry samples (labels carry the table name)."""
        from repro.obs.metrics import Sample

        labels = {"table": self.name}
        yield Sample("table.entries", len(self._engine), dict(labels), "gauge")
        yield Sample("table.size", self.size, dict(labels), "gauge")
        yield Sample("table.hits", self.hit_count, dict(labels))
        yield Sample("table.misses", self.miss_count, dict(labels))

    # -- lookup -------------------------------------------------------------

    def lookup(self, packet: Packet) -> LookupResult:
        """Match the packet; on miss, fall back to the default action."""
        entry = self._engine.lookup(
            tuple([read(packet) for read in self._key_readers])
        )
        if entry is None:
            self.miss_count += 1
            return LookupResult(
                hit=False,
                table=self.name,
                tag=0,
                action=self.default_action,
                action_data=dict(self.default_data),
            )
        assert isinstance(entry, TableEntry)
        entry.hits += 1
        length = packet.metadata.get("packet_length", 0)
        if isinstance(length, int):
            entry.bytes += length
        self.hit_count += 1
        return LookupResult(
            hit=True,
            table=self.name,
            entry=entry,
            tag=entry.tag,
            action=entry.action,
            action_data=dict(entry.action_data),
        )

    # -- batched lookup (columnar fast path) -------------------------------

    def batch_field_bytes(self):
        """Column bytes per key field (8: one ``uint64`` column, 16: an
        ``(hi, lo)`` pair), or ``None`` if any field is wider than 128
        bits.  With the declared widths they pick the batch index's
        codec: one ``uint64`` per key when the widths sum to <= 64,
        else fixed-width byte records."""
        field_bytes = []
        for kf in self.key:
            if kf.width <= 64:
                field_bytes.append(8)
            elif kf.width <= 128:
                field_bytes.append(16)
            else:
                return None
        return tuple(field_bytes)

    def prepare_batch(self, np) -> bool:
        """Build (or reuse) the engine's batch index before a columnar
        batch touches any counters; ``False`` -> run the batch scalar."""
        engine = self._engine
        if engine.kind == "hash":
            return True
        if engine.kind not in ("exact", "lpm"):
            return False
        field_bytes = self.batch_field_bytes()
        if field_bytes is None:
            return False
        return engine.build_batch_index(
            np, field_bytes, tuple(kf.width for kf in self.key)
        )

    def lookup_batch(self, np, cols, lengths, fits=None):
        """Vectorized :meth:`lookup` over ``m`` rows.

        ``cols[i]`` is the i-th key field's column (``uint64`` array,
        or an ``(hi, lo)`` pair for >64-bit fields); ``lengths`` is the
        per-row ``packet_length`` column.  ``fits[i]`` (optional) says
        column ``i`` never exceeds the field's declared width, which
        spares the index its oversize check.  Applies the same counter
        side effects as ``m`` scalar lookups (table hit/miss counts,
        per-entry hit and byte counters) and returns ``(idx, entries)``
        where ``idx[r] == -1`` means miss (default action) and
        otherwise indexes ``entries``.  A batch that all missed, or all
        hit one entry, costs two reductions of ``idx`` beyond the probe.
        """
        engine = self._engine
        m = len(lengths)
        if engine.kind == "hash":
            idx, entries = self._hash_lookup_rows(np, cols)
        elif engine.kind == "lpm":
            idx, entries = engine.lookup_batch(np, cols[:-1], cols[-1], m, fits)
        else:
            idx, entries = engine.lookup_batch(np, cols, m, fits)
        if m == 0:
            return idx, entries
        low, high = int(idx.min()), int(idx.max())
        if high < 0:  # every row missed
            self.miss_count += m
            return idx, entries
        if low == high:  # every row hit one entry
            self.hit_count += m
            entry = entries[low]
            entry.hits += m
            entry.bytes += int(lengths.sum())
            return idx, entries
        ranks = idx
        if low < 0:
            hit = idx >= 0
            ranks, lengths = idx[hit], lengths[hit]
        hits = int(ranks.size)
        self.hit_count += hits
        self.miss_count += m - hits
        if not (ranks != ranks[0]).any():  # every hit on one entry
            entry = entries[int(ranks[0])]
            entry.hits += hits
            entry.bytes += int(lengths.sum())
            return idx, entries
        # Only the entries this batch touched: never a table walk.
        counts = np.bincount(ranks)
        byte_sums = np.bincount(ranks, weights=lengths)
        touched = np.flatnonzero(counts)
        for rank, count, nbytes in zip(
            touched.tolist(),
            counts[touched].tolist(),
            byte_sums[touched].astype(np.int64).tolist(),
        ):
            entry = entries[rank]
            entry.hits += count
            entry.bytes += nbytes
        return idx, entries

    def batch_entries(self):
        """The list :meth:`lookup_batch` ranks index (valid after
        :meth:`prepare_batch`): the same object until the engine's
        ``version`` moves, so per-entry data derived from it can be
        cached against that version."""
        return self._engine.batch_entries()

    def _hash_lookup_rows(self, np, cols):
        """Hash-engine rows: columns back to python-int key tuples."""
        value_lists = []
        for col in cols:
            if isinstance(col, tuple):
                hi, lo = col
                value_lists.append(
                    [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())]
                )
            else:
                value_lists.append(col.tolist())
        return self._engine.lookup_batch(np, list(zip(*value_lists)))

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _as_int(part: Union[int, Tuple[int, int]]) -> int:
        if not isinstance(part, int):
            raise TypeError(f"expected an exact key part, got {part!r}")
        return part

    def _exact_key(self, entry: TableEntry) -> Tuple[int, ...]:
        if len(entry.key) != len(self.key):
            raise ValueError(
                f"table {self.name!r}: entry key has {len(entry.key)} parts, "
                f"expected {len(self.key)}"
            )
        return tuple(self._as_int(p) for p in entry.key)

    def _ternary_key(
        self, entry: TableEntry
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        values, masks = [], []
        for part, kf in zip(entry.key, self.key):
            if isinstance(part, tuple):
                values.append(part[0])
                masks.append(part[1])
            else:
                values.append(part)
                masks.append((1 << kf.width) - 1)
        return tuple(values), tuple(masks)

    def __repr__(self) -> str:
        kinds = ",".join(k.kind.value for k in self.key)
        return f"Table({self.name!r}, [{kinds}], {len(self)}/{self.size})"
