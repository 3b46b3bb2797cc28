"""Tests for Bloom filters and the stable hash."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import bloom
from repro.core.bloom import BloomFilter, CountingBloomFilter, stable_hash


class EagerBloomFilter(BloomFilter):
    """The reference: bits allocated at construction."""

    def __init__(self, n_cells: int, seed: int = 0) -> None:
        super().__init__(n_cells=n_cells, seed=seed)
        self.bits = bytearray((n_cells + 7) // 8)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("10.0.0.0/24", 3) == stable_hash("10.0.0.0/24", 3)

    def test_seed_changes_value(self):
        assert stable_hash("x", 0) != stable_hash("x", 1)

    @given(st.text(max_size=40), st.integers(min_value=0, max_value=2 ** 30))
    def test_always_in_64bit_range(self, value, seed):
        h = stable_hash(value, seed)
        assert 0 <= h < 2 ** 64

    def test_works_on_tuples(self):
        assert isinstance(stable_hash((1, 2, 3), 0), int)


class TestBloomFilter:
    def test_membership_after_add(self):
        bf = BloomFilter(n_cells=1000)
        bf.add("a")
        assert "a" in bf

    def test_likely_negative_for_absent(self):
        bf = BloomFilter(n_cells=100_000)
        bf.add("present")
        absent = sum(1 for i in range(1000) if f"absent-{i}" in bf)
        assert absent <= 2

    @given(st.lists(st.text(max_size=20), max_size=60))
    def test_no_false_negatives(self, items):
        bf = BloomFilter(n_cells=4096)
        for item in items:
            bf.add(item)
        assert all(item in bf for item in items)

    def test_untouched_filter_holds_no_bits_and_hashes_nothing(self, monkeypatch):
        bf = BloomFilter()
        assert bf.bits is None

        def no_hashing(value, seed):
            raise AssertionError("an empty filter hashed")

        monkeypatch.setattr(bloom, "stable_hash", no_hashing)
        assert "a" not in bf and (1, 2) not in bf
        assert bf.bits is None and bf.memory_bits == 100_000

    @given(st.lists(st.integers(0, 400), max_size=30),
           st.lists(st.integers(0, 400), min_size=1, max_size=60),
           st.integers(min_value=0, max_value=2 ** 20))
    def test_lazy_bits_answer_as_eager_bits(self, added, queried, seed):
        # 64 cells: false positives are common, and both must agree on them.
        lazy, eager = BloomFilter(n_cells=64, seed=seed), EagerBloomFilter(64, seed)
        for item in added:
            lazy.add(item)
            eager.add(item)
        assert [q in lazy for q in queried] == [q in eager for q in queried]
        assert (lazy.bits or bytearray(8)) == eager.bits

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(n_cells=0)
        with pytest.raises(ValueError):
            BloomFilter(n_cells=10, n_hashes=0)

    def test_memory_is_one_bit_per_cell(self):
        assert BloomFilter(n_cells=800).memory_bits == 800


class TestCountingBloomFilter:
    def test_estimate_lower_bounds_count(self):
        cbf = CountingBloomFilter(n_cells=4096)
        for _ in range(5):
            cbf.add("x")
        assert cbf.estimate("x") >= 5

    def test_identical_filters_match(self):
        a = CountingBloomFilter(512, seed=1)
        b = CountingBloomFilter(512, seed=1)
        for item in ("p", "q", "r"):
            a.add(item)
            b.add(item)
        assert a.mismatching_cells(b) == []

    def test_missing_item_creates_mismatch(self):
        a = CountingBloomFilter(512, seed=1)
        b = CountingBloomFilter(512, seed=1)
        a.add("p")
        a.add("lost")
        b.add("p")
        cells = a.mismatching_cells(b)
        assert cells
        assert a.matches_cells("lost", set(cells))

    def test_collisions_yield_false_positives(self):
        """The §5.2 failure mode: innocent entries sharing cells get
        implicated when another entry's packets are lost."""
        cbf = CountingBloomFilter(8, n_hashes=1, seed=0)  # tiny: collisions certain
        other = CountingBloomFilter(8, n_hashes=1, seed=0)
        entries = [f"e{i}" for i in range(64)]
        for e in entries:
            cbf.add(e)
            if e != "e0":
                other.add(e)
        cells = set(cbf.mismatching_cells(other))
        implicated = [e for e in entries if cbf.matches_cells(e, cells)]
        assert "e0" in implicated
        assert len(implicated) > 1  # collisions implicate innocents

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(10).mismatching_cells(CountingBloomFilter(20))

    def test_counter_wraparound_masks(self):
        cbf = CountingBloomFilter(16, counter_bits=4, n_hashes=1)
        for _ in range(20):
            cbf.add("x")
        assert all(c < 16 for c in cbf.counters)

    def test_memory_accounting(self):
        assert CountingBloomFilter(100, counter_bits=32).memory_bits == 3200

    def test_clear(self):
        cbf = CountingBloomFilter(64)
        cbf.add("x")
        cbf.clear()
        assert all(c == 0 for c in cbf.counters)
