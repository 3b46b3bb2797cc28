"""Analytical properties of hash-based trees (Appendix A).

Closed-form expressions for collision (false-positive) probability,
expected number of collisions, node counts, and memory requirements, plus
the §4.3 per-structure memory constants used by the input-translation
logic.  These formulas are cross-validated against brute-force enumeration
in the test suite.
"""

from __future__ import annotations

import math

from .hashtree import HashTreeParams

__all__ = [
    "collision_probability",
    "expected_collisions",
    "tree_nodes",
    "tree_memory_bits",
    "DEDICATED_COUNTER_BITS",
    "TREE_NODE_OVERHEAD_BITS",
    "TREE_COUNTER_BITS",
    "dedicated_memory_bits",
    "tree_total_memory_bits",
    "max_dedicated_entries",
    "widest_tree_for_budget",
]

#: §4.3: each dedicated counter occupies 80 bits in total (both sides,
#: including counting-protocol state).
DEDICATED_COUNTER_BITS = 80

#: §4.3: a tree node needs, per session side, 32 bits × width for the
#: counters plus 88 bits of protocol/zooming state.
TREE_COUNTER_BITS = 32
TREE_NODE_OVERHEAD_BITS = 88


def collision_probability(params: HashTreeParams, n_faulty: int) -> float:
    """Appendix A.2, eq. (1): probability that a non-faulty entry shares a
    hash path with at least one of ``n_faulty`` faulty entries.

    ``p = 1 - exp(-1 / (m / n))`` with ``m = w^d`` hash paths.
    """
    if n_faulty < 0:
        raise ValueError("number of faulty entries cannot be negative")
    if n_faulty == 0:
        return 0.0
    m = params.n_hash_paths
    return 1.0 - math.exp(-1.0 / (m / n_faulty))


def expected_collisions(params: HashTreeParams, n_faulty: int, n_entries: int) -> float:
    """Appendix A.2, eq. (2): expected false positives ``E(x) = p * x`` for
    ``x = n_entries`` entries crossing the tree."""
    if n_entries < 0:
        raise ValueError("number of entries cannot be negative")
    return collision_probability(params, n_faulty) * n_entries


def tree_nodes(params: HashTreeParams) -> int:
    """Appendix A.3, eq. (3): number of nodes to materialize."""
    return params.node_count()


def tree_memory_bits(params: HashTreeParams, counter_bits: int = TREE_COUNTER_BITS) -> int:
    """Appendix A.3: counter memory, both session sides:
    ``2 * counter_bits * width * nodes``."""
    return params.counter_memory_bits(counter_bits)


def dedicated_memory_bits(n_entries: int) -> int:
    """Total memory for ``n_entries`` dedicated counters (§4.3)."""
    if n_entries < 0:
        raise ValueError("number of entries cannot be negative")
    return n_entries * DEDICATED_COUNTER_BITS


def tree_total_memory_bits(params: HashTreeParams) -> int:
    """§4.3 input translation: per session side, a node costs
    ``32 * width + 88`` bits; both sides are accounted."""
    per_side = (TREE_COUNTER_BITS * params.width + TREE_NODE_OVERHEAD_BITS)
    return 2 * per_side * tree_nodes(params)


def max_dedicated_entries(memory_bytes: int) -> int:
    """How many dedicated counters fit in ``memory_bytes`` (§5.2 uses this
    for the 1,024-entries-in-1.25-MB baseline: 1.25 MB / 64 ports ≈ 20 KB
    per port → 20 KB·8 / 80 bits ≈ 2048 per direction pair; the paper's
    1,024 figure counts both directions per port)."""
    if memory_bytes < 0:
        raise ValueError("memory cannot be negative")
    return (memory_bytes * 8) // DEDICATED_COUNTER_BITS


def widest_tree_for_budget(
    memory_bits: int, depth: int, split: int, pipelined: bool = True
) -> int:
    """Largest width such that the tree fits in ``memory_bits`` (0 if even
    width 1 does not fit).  Used by the §4.3 input translation."""
    nodes = HashTreeParams(width=1, depth=depth, split=split, pipelined=pipelined).node_count()
    per_width_bits = 2 * TREE_COUNTER_BITS * nodes
    fixed_bits = 2 * TREE_NODE_OVERHEAD_BITS * nodes
    if memory_bits <= fixed_bits:
        return 0
    return (memory_bits - fixed_bits) // per_width_bits


def entries_per_counter(params: HashTreeParams, n_entries: int, level: int) -> float:
    """Expected entries mapping to one counter at ``level`` (Appendix A:
    counters at higher levels map to larger sets of entries)."""
    if level < 0 or level >= params.depth:
        raise ValueError(f"level {level} out of range for depth {params.depth}")
    if n_entries < 0:
        raise ValueError("number of entries cannot be negative")
    return n_entries / params.width


def entries_per_partial_path(params: HashTreeParams, n_entries: int,
                             path_length: int) -> float:
    """Expected entries matching a partial hash path of ``path_length``
    (§4.2: "a number of entries inversely proportional to the length of
    the sequence: the shorter the sequence, the bigger the number of
    associated entries")."""
    if path_length < 1 or path_length > params.depth:
        raise ValueError(
            f"path length {path_length} out of range for depth {params.depth}"
        )
    if n_entries < 0:
        raise ValueError("number of entries cannot be negative")
    return n_entries / (params.width ** path_length)


def leaf_sharing_probability(params: HashTreeParams, n_entries: int) -> float:
    """Probability a given entry shares its full hash path with at least
    one other of ``n_entries - 1`` entries — the tree's false-positive
    precondition (§5: FPR "depends on the probability that multiple
    entries are stored in the same leaf node")."""
    if n_entries <= 1:
        return 0.0
    m = params.n_hash_paths
    return 1.0 - math.exp(-(n_entries - 1) / m)


__all__ += [
    "entries_per_counter",
    "entries_per_partial_path",
    "leaf_sharing_probability",
]
