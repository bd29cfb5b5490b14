"""Unit tests for the match engines."""

import pytest

from repro.tables.engines import ExactEngine, HashEngine, LpmEngine, TernaryEngine


class TestExactEngine:
    def test_insert_lookup(self):
        e = ExactEngine()
        e.insert((1, 2), "a")
        assert e.lookup((1, 2)) == "a"
        assert e.lookup((2, 1)) is None

    def test_overwrite(self):
        e = ExactEngine()
        e.insert((1,), "a")
        e.insert((1,), "b")
        assert e.lookup((1,)) == "b"
        assert len(e) == 1

    def test_remove(self):
        e = ExactEngine()
        e.insert((1,), "a")
        assert e.remove((1,)) == "a"
        assert e.lookup((1,)) is None

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            ExactEngine().remove((5,))


class TestLpmEngine:
    def test_longest_prefix_wins(self):
        e = LpmEngine(exact_count=0, lpm_width=32)
        e.insert((), 0x0A000000, 8, "short")
        e.insert((), 0x0A010000, 16, "long")
        assert e.lookup((0x0A010203,)) == "long"
        assert e.lookup((0x0A990203,)) == "short"

    def test_default_route(self):
        e = LpmEngine(0, 32)
        e.insert((), 0, 0, "default")
        assert e.lookup((0xDEADBEEF,)) == "default"

    def test_exact_prefix_fields(self):
        # VRF id (exact) + destination (lpm), as in the FIB stages.
        e = LpmEngine(exact_count=1, lpm_width=32)
        e.insert((1,), 0x0A000000, 8, "vrf1")
        e.insert((2,), 0x0A000000, 8, "vrf2")
        assert e.lookup((1, 0x0A000001)) == "vrf1"
        assert e.lookup((2, 0x0A000001)) == "vrf2"
        assert e.lookup((3, 0x0A000001)) is None

    def test_host_route(self):
        e = LpmEngine(0, 32)
        e.insert((), 0x0A000001, 32, "host")
        e.insert((), 0x0A000000, 24, "net")
        assert e.lookup((0x0A000001,)) == "host"
        assert e.lookup((0x0A000002,)) == "net"

    def test_remove(self):
        e = LpmEngine(0, 32)
        e.insert((), 0x0A000000, 8, "a")
        e.remove((), 0x0A000000, 8)
        assert e.lookup((0x0A000001,)) is None

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            LpmEngine(0, 32).remove((), 0, 8)

    def test_prefix_len_bounds(self):
        e = LpmEngine(0, 32)
        with pytest.raises(ValueError):
            e.insert((), 0, 33, "x")

    def test_ipv6_width(self):
        e = LpmEngine(0, 128)
        e.insert((), 0x20010DB8 << 96, 32, "doc")
        assert e.lookup(((0x20010DB8 << 96) + 5,)) == "doc"

    def test_value_bits_beyond_prefix_ignored(self):
        e = LpmEngine(0, 32)
        e.insert((), 0x0A0000FF, 24, "net")  # host bits set in the value
        assert e.lookup((0x0A000001,)) == "net"


class TestTernaryEngine:
    def test_priority_order(self):
        e = TernaryEngine(1)
        e.insert((0x10,), (0xF0,), 1, "low")
        e.insert((0x12,), (0xFF,), 10, "high")
        assert e.lookup((0x12,)) == "high"
        assert e.lookup((0x13,)) == "low"

    def test_wildcard_field(self):
        e = TernaryEngine(2)
        e.insert((5, 0), (0xFF, 0), 1, "any-second")
        assert e.lookup((5, 123)) == "any-second"
        assert e.lookup((6, 123)) is None

    def test_remove(self):
        e = TernaryEngine(1)
        e.insert((5,), (0xFF,), 1, "x")
        assert e.remove((5,), (0xFF,)) == "x"
        assert e.lookup((5,)) is None

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            TernaryEngine(1).remove((5,), (0xFF,))

    def test_field_count_enforced(self):
        with pytest.raises(ValueError):
            TernaryEngine(2).insert((1,), (1,), 0, "x")


class TestHashEngine:
    def test_deterministic_selection(self):
        e = HashEngine()
        for name in ("m0", "m1", "m2"):
            e.insert(name)
        first = e.lookup((42, 1))
        assert all(e.lookup((42, 1)) == first for _ in range(10))

    def test_distribution_covers_members(self):
        e = HashEngine()
        for name in ("m0", "m1", "m2", "m3"):
            e.insert(name)
        picks = {e.lookup((flow, 99)) for flow in range(200)}
        assert picks == {"m0", "m1", "m2", "m3"}

    def test_empty_misses(self):
        assert HashEngine().lookup((1,)) is None

    def test_remove_member(self):
        e = HashEngine()
        e.insert("a")
        e.insert("b")
        assert e.remove_member(0) == "a"
        assert e.lookup((7,)) == "b"

    def test_remove_bad_index(self):
        with pytest.raises(KeyError):
            HashEngine().remove_member(0)


class TestBatchIndexEntries:
    """Batch ranks index one ``entries`` list per engine version: the
    columnar dispatch caches per-rank data against ``engine.version``,
    which is only sound while the list it ranks into is that stable."""

    @pytest.fixture
    def np(self):
        return pytest.importorskip("numpy")

    @staticmethod
    def _col(np, *values):
        return np.array(values, np.uint64)

    def test_exact_entries_are_one_object_per_version(self, np):
        e = ExactEngine()
        for key in (7, 3, 5):
            e.insert((key,), f"e{key}")
        assert e.build_batch_index(np, (8,))
        idx, first = e.lookup_batch(np, [self._col(np, 5, 9, 3)], 3)
        assert [first[i] if i >= 0 else None for i in idx.tolist()] == [
            "e5", None, "e3"
        ]
        assert e.build_batch_index(np, (8,))
        _idx, again = e.lookup_batch(np, [self._col(np, 7)], 1)
        assert again is first is e.batch_entries()
        e.insert((9,), "e9")
        assert e.build_batch_index(np, (8,))
        assert e.batch_entries() is not first
        stale = e.batch_entries()
        e.remove((9,))
        assert e.build_batch_index(np, (8,))
        assert e.batch_entries() is not stale
        assert e.batch_entries() == first

    def test_lpm_entries_are_longest_first_then_sorted_record(self, np):
        e = LpmEngine(exact_count=1, lpm_width=32)
        routes = [
            (1, 0x0A000000, 8), (1, 0x0A020000, 16), (2, 0x0A010000, 16),
            (1, 0x0A010000, 16), (1, 0, 0), (1, 0x0A010100, 24),
        ]
        for vrf, value, plen in routes:
            e.insert((vrf,), value, plen, (plen, vrf, value))
        assert e.build_batch_index(np, (8, 8))
        entries = e.batch_entries()
        assert entries == sorted(entries, key=lambda r: (-r[0], r[1], r[2]))
        query = self._col(np, 0x0A010105, 0x0A0200FF, 0x0B000000)
        vrf = self._col(np, 1, 1, 1)
        idx, first = e.lookup_batch(np, [vrf], query, 3)
        assert first is entries
        assert [entries[i] for i in idx.tolist()] == [
            (24, 1, 0x0A010100), (16, 1, 0x0A020000), (0, 1, 0),
        ]
        assert e.build_batch_index(np, (8, 8))
        _idx, again = e.lookup_batch(np, [vrf], query, 3)
        assert again is entries
        e.remove((1,), 0x0A010100, 24)
        assert e.build_batch_index(np, (8, 8))
        assert e.batch_entries() is not entries
        assert len(e.batch_entries()) == len(entries) - 1

    def test_hash_members_are_one_snapshot_per_version(self, np):
        e = HashEngine()
        idx, members = e.lookup_batch(np, [(1, 2)])
        assert idx.tolist() == [-1] and members == []
        for i in range(4):
            e.insert(f"m{i}")
        rows = [(f, f * 7) for f in range(30)]
        idx, members = e.lookup_batch(np, rows)
        assert [members[i] for i in idx.tolist()] == [e.lookup(r) for r in rows]
        assert e.lookup_batch(np, rows)[1] is members
        e.remove_member(1)
        assert e.batch_entries() is not members
        assert members == ["m0", "m1", "m2", "m3"]  # a snapshot, not a view


class TestMatchKindRegistry:
    """engines.py is the single source of truth for match kinds: the
    rP4/P4 parsers, the validator, and rp4lint all import from here."""

    def test_registry_maps_kind_to_engine(self):
        from repro.tables.engines import ENGINES

        assert ENGINES["exact"] is ExactEngine
        assert ENGINES["lpm"] is LpmEngine
        assert ENGINES["ternary"] is TernaryEngine
        assert ENGINES["hash"] is HashEngine

    def test_match_kinds_cover_the_registry(self):
        from repro.tables.engines import ENGINES, MATCH_KINDS, P4_MATCH_KINDS

        assert MATCH_KINDS == frozenset(ENGINES)
        assert P4_MATCH_KINDS == MATCH_KINDS | {"selector"}

    def test_parsers_and_validator_share_the_registry(self):
        from repro.compiler import validate
        from repro.rp4 import parser as rp4_parser
        from repro.p4 import parser as p4_parser
        from repro.tables import engines

        assert rp4_parser.MATCH_KINDS is engines.MATCH_KINDS
        assert validate.MATCH_KINDS is engines.MATCH_KINDS
        assert p4_parser.P4_MATCH_KINDS is engines.P4_MATCH_KINDS
