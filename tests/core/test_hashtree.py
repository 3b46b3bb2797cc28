"""Tests for the hash-based tree data structure (§4.2, Appendix A)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.hashtree import HashTree, HashTreeParams, TreeCounters


class TestHashTreeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HashTreeParams(width=0, depth=3)
        with pytest.raises(ValueError):
            HashTreeParams(width=4, depth=0)
        with pytest.raises(ValueError):
            HashTreeParams(width=4, depth=3, split=0)

    def test_hash_path_count(self):
        assert HashTreeParams(width=4, depth=3).n_hash_paths == 64

    def test_node_count_pipelined_split_gt1(self):
        """Appendix A.3 eq. (3): (k^d - 1) / (k - 1)."""
        assert HashTreeParams(width=4, depth=3, split=2, pipelined=True).node_count() == 7
        assert HashTreeParams(width=4, depth=4, split=3, pipelined=True).node_count() == 40

    def test_node_count_pipelined_split1(self):
        """Appendix A.3 eq. (3): d nodes for split 1."""
        assert HashTreeParams(width=4, depth=3, split=1, pipelined=True).node_count() == 3

    def test_node_count_nonpipelined(self):
        """Appendix A.3 eq.: k^(d-1) without pipelining, 1 for split 1."""
        assert HashTreeParams(width=4, depth=3, split=2, pipelined=False).node_count() == 4
        assert HashTreeParams(width=4, depth=3, split=1, pipelined=False).node_count() == 1

    def test_counter_memory_formula(self):
        """Appendix A.3: 2 * 32 * w * nodes."""
        params = HashTreeParams(width=190, depth=3, split=2, pipelined=True)
        assert params.counter_memory_bits() == 2 * 32 * 190 * 7

    def test_bloom_filter_is_depth1_tree(self):
        params = HashTreeParams(width=100, depth=1)
        assert params.n_hash_paths == 100
        assert params.node_count() == 1


class TestHashTree:
    def test_hash_path_length_and_range(self, small_tree):
        path = small_tree.hash_path("10.1.2.0/24")
        assert len(path) == small_tree.params.depth
        assert all(0 <= c < small_tree.params.width for c in path)

    def test_hash_path_deterministic(self, small_params):
        a = HashTree(small_params, seed=1).hash_path("e")
        b = HashTree(small_params, seed=1).hash_path("e")
        assert a == b

    def test_seed_changes_paths(self, small_params):
        paths_a = {HashTree(small_params, seed=1).hash_path(f"e{i}") for i in range(20)}
        paths_b = {HashTree(small_params, seed=2).hash_path(f"e{i}") for i in range(20)}
        assert paths_a != paths_b

    @given(st.text(max_size=30))
    def test_level_hash_in_range(self, entry):
        tree = HashTree(HashTreeParams(width=16, depth=3), seed=0)
        for level in range(3):
            assert 0 <= tree.level_hash(entry, level) < 16

    def test_level_out_of_range(self, small_tree):
        with pytest.raises(IndexError):
            small_tree.level_hash("e", 3)

    def test_levels_are_independent(self):
        """Different levels must use different hash functions."""
        tree = HashTree(HashTreeParams(width=64, depth=3), seed=0)
        entries = [f"e{i}" for i in range(100)]
        same = sum(
            1 for e in entries
            if tree.level_hash(e, 0) == tree.level_hash(e, 1)
        )
        assert same < 20  # ~100/64 expected if independent

    def test_entries_on_path(self, small_tree):
        entries = [f"e{i}" for i in range(50)]
        target = small_tree.hash_path("e7")
        matching = small_tree.entries_on_path(entries, target[:1])
        assert "e7" in matching
        assert all(small_tree.hash_path(e)[0] == target[0] for e in matching)

    def test_entries_on_full_path(self, small_tree):
        entries = [f"e{i}" for i in range(50)]
        target = small_tree.hash_path("e7")
        matching = small_tree.entries_on_path(entries, target)
        assert "e7" in matching

    def test_shared_caches_are_bounded_over_geometries(self):
        """One cache per ``(seed, width, depth)`` and at most 64 of them:
        the 65th geometry evicts the least recently constructed one, and a
        tree re-created for an evicted geometry still hashes identically."""
        from repro.core import hashtree

        caches = hashtree._SHARED_PATH_CACHES
        bound = hashtree.SHARED_CACHE_GEOMETRIES
        params, entry, first = HashTreeParams(width=7, depth=2), "10.0.0.0/24", 910_000
        oldest = HashTree(params, seed=first)
        before = oldest.hash_path(entry)
        for seed in range(first + 1, first + bound):
            HashTree(params, seed=seed)
        assert len(caches) == bound and (first, 7, 2) in caches
        HashTree(params, seed=first + 1)  # constructing again refreshes a geometry
        HashTree(params, seed=first + bound)  # the 65th
        assert len(caches) == bound and (first, 7, 2) not in caches
        HashTree(params, seed=first + bound + 1)  # the next victim is first + 2
        assert (first + 1, 7, 2) in caches and (first + 2, 7, 2) not in caches
        # A live tree keeps the cache it was built with; a new tree for the
        # evicted geometry starts cold and computes the same mapping.
        assert oldest.hash_path(entry) == before
        again = HashTree(params, seed=first)
        assert not again._cache and again.hash_path(entry) == before


class TestTreeCounters:
    def test_root_always_exists(self, small_params):
        tc = TreeCounters(small_params)
        assert tc.snapshot() == {(): [0] * small_params.width}

    def test_increment_full_prefix_chain(self, small_params):
        tc = TreeCounters(small_params)
        tc.activate_node((3,))
        tc.increment_path((3, 5))
        snap = tc.snapshot()
        assert snap[()][3] == 1
        assert snap[(3,)][5] == 1

    def test_increment_skips_missing_nodes(self, small_params):
        tc = TreeCounters(small_params)
        tc.increment_path((3, 5))  # node (3,) not active
        snap = tc.snapshot()
        assert snap[()][3] == 1
        assert (3,) not in snap

    def test_activate_too_deep_rejected(self, small_params):
        tc = TreeCounters(small_params)
        with pytest.raises(ValueError):
            tc.activate_node((1, 2, 3))  # depth 3: node paths reach len 2

    def test_reset_zeroes_but_keeps_structure(self, small_params):
        tc = TreeCounters(small_params)
        tc.activate_node((1,))
        tc.increment_path((1, 2))
        tc.reset()
        zero = [0] * small_params.width
        assert tc.snapshot() == {(): zero, (1,): zero}
        assert tc.packets == 0

    def test_deactivate_node_single(self, small_params):
        tc = TreeCounters(small_params)
        tc.activate_node((1,))
        tc.activate_node((1, 2))
        tc.deactivate_node((1,))
        assert set(tc.snapshot()) == {(), (1, 2)}

    def test_root_cannot_be_deactivated(self, small_params):
        tc = TreeCounters(small_params)
        tc.deactivate_node(())
        assert () in tc.snapshot()

    def test_snapshot_is_a_copy(self, small_params):
        tc = TreeCounters(small_params)
        snap = tc.snapshot()
        snap[()][0] = 99
        assert tc.snapshot()[()][0] == 0

    def test_mismatches_detects_losses(self, small_params):
        up, down = TreeCounters(small_params), TreeCounters(small_params)
        for _ in range(5):
            up.increment_path((2,))
        for _ in range(3):
            down.increment_path((2,))
        mism = up.mismatches(down.snapshot(), ())
        assert mism == [(2, 2)]

    def test_no_mismatch_when_equal(self, small_params):
        up, down = TreeCounters(small_params), TreeCounters(small_params)
        up.increment_path((1,))
        down.increment_path((1,))
        assert up.mismatches(down.snapshot(), ()) == []

    def test_missing_remote_node_counts_fully(self, small_params):
        up = TreeCounters(small_params)
        up.activate_node((4,))
        up.increment_path((4, 1))
        mism = up.mismatches({}, (4,))
        assert mism == [(1, 1)]

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200))
    def test_root_totals_conserved(self, indices):
        params = HashTreeParams(width=8, depth=2)
        tc = TreeCounters(params)
        for i in indices:
            tc.increment_path((i,))
        assert sum(tc.snapshot()[()]) == len(indices)
