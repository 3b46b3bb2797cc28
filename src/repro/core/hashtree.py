"""The FANcY hash-based tree (§4.2).

A hash-based tree is a balanced k-ary tree whose nodes are fixed-size
arrays of ``width`` counters.  A packet maps to one counter per level via
a level-specific hash function; the list of counter indices from root to
leaf is the packet's *hash path*.  A Bloom filter is the depth-1 special
case.

Two cooperating classes:

* :class:`HashTreeParams` / :class:`HashTree` — geometry, per-level hash
  functions, hash-path computation (upstream side: hashes entries).
* :class:`TreeCounters` — the runtime counter store for one counting
  session.  Nodes are keyed by the *zoom path* that reached them (the
  sequence of counter indices chosen at each ancestor level), so the
  downstream can maintain it purely from packet tags, never hashing
  entries itself — exactly the property §4.2 calls out.

Fast path: counters live in one preallocated ``array('Q')`` sized for the
Appendix A.3 node budget, addressed as ``row * width + index`` — the same
flat-register layout a Tofino pipeline uses.  Zoom paths map to rows via
a small dict; freed rows go on a free list and are re-zeroed at
activation, and the arena doubles if the zooming algorithm ever activates
more nodes than the physical budget (useful for unit tests that exercise
pathological interleavings).  :meth:`TreeCounters.node` returns a live
:class:`_NodeView` onto the row with full sequence semantics, so callers
that mutate nodes in place keep working unchanged.  Hash paths are
memoized in an LRU cache *shared across sessions and tree instances* with
the same ``(seed, width, depth)`` — the per-run tree seed is fixed, so a
packet's path never changes and the blake2b work is paid once per entry.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from .bloom import stable_hash

__all__ = ["HashTreeParams", "HashTree", "TreeCounters", "NodePath"]

#: A node is identified by the sequence of counter indices zoomed through
#: to reach it; the root is the empty tuple.
NodePath = tuple[int, ...]

#: Bound on each shared hash-path cache (entries, not bytes).  Far above
#: any experiment's entry count; the LRU only really evicts in adversarial
#: synthetic workloads.
HASH_PATH_CACHE_SIZE = 65536

#: Bound on the geometries whose caches are kept (least recently
#: constructed goes first).  Every experiment repetition seeds its tree
#: differently, so a long sweep or a long-lived ``serve`` process would
#: otherwise mint caches forever; a live tree keeps its own reference.
SHARED_CACHE_GEOMETRIES = 64

#: Shared hash-path caches, keyed by the parameters that fully determine
#: the mapping: ``(seed, width, depth)``.  Two trees with the same key
#: compute identical paths, so they can share memoized results across
#: counting sessions, monitors, and experiment repetitions in-process.
_SHARED_PATH_CACHES: "OrderedDict[tuple[int, int, int], OrderedDict[Any, tuple[int, ...]]]" = (
    OrderedDict())


@dataclass(frozen=True)
class HashTreeParams:
    """Geometry of a hash-based tree.

    Attributes:
        width: counters per node (w).
        depth: levels, root to leaf (d).
        split: simultaneous zoom-in branches per node (k).
        pipelined: whether the zooming algorithm may explore several
            levels at once (§4.2 "pipelining approach"); affects memory
            accounting (Appendix A.3) and multi-entry detection speed.
    """

    width: int
    depth: int
    split: int = 1
    pipelined: bool = True

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.split < 1:
            raise ValueError(f"split must be >= 1, got {self.split}")

    @property
    def n_hash_paths(self) -> int:
        """Total number of distinct hash paths: w^d (Appendix A.2)."""
        return self.width ** self.depth

    def node_count(self) -> int:
        """Number of nodes that must be materialized (Appendix A.3)."""
        k, d = self.split, self.depth
        if self.pipelined:
            if k > 1:
                return (k ** d - 1) // (k - 1)
            return d
        if k > 1:
            return k ** (d - 1)
        return 1

    def counter_memory_bits(self, counter_bits: int = 32) -> int:
        """Memory for the counters alone, both sides of the session
        (Appendix A.3: ``2 * 32 * w * nodes``)."""
        return 2 * counter_bits * self.width * self.node_count()


class HashTree:
    """Hash-path computation for a tree geometry.

    The upstream switch uses this to map entries to per-level counter
    indices.  Hash functions are seeded deterministically so that repeated
    experiments are reproducible, and differently per level so levels are
    independent.

    Paths are memoized in a bounded LRU shared by every :class:`HashTree`
    with the same ``(seed, width, depth)`` — the mapping is a pure
    function of those three values, so cross-instance sharing is safe and
    lets repeated sessions/repetitions skip the blake2b work entirely.
    The geometries themselves are LRU-bounded too
    (:data:`SHARED_CACHE_GEOMETRIES`).
    """

    def __init__(self, params: HashTreeParams, seed: int = 0,
                 cache_size: int = HASH_PATH_CACHE_SIZE) -> None:
        self.params = params
        self.seed = seed
        self.cache_size = cache_size
        key = (seed, params.width, params.depth)
        cache = _SHARED_PATH_CACHES.get(key)
        if cache is None:
            cache = _SHARED_PATH_CACHES[key] = OrderedDict()
            if len(_SHARED_PATH_CACHES) > SHARED_CACHE_GEOMETRIES:
                _SHARED_PATH_CACHES.popitem(last=False)
        else:
            _SHARED_PATH_CACHES.move_to_end(key)
        #: Shared memoized entry -> hash-path mapping (LRU-bounded).
        self._cache = cache

    def level_hash(self, entry: Any, level: int) -> int:
        """H_level(entry) in [0, width)."""
        if not 0 <= level < self.params.depth:
            raise IndexError(f"level {level} out of range for depth {self.params.depth}")
        return stable_hash(entry, self.seed * 1000 + level) % self.params.width

    def hash_path(self, entry: Any) -> tuple[int, ...]:
        """The full hash path of an entry, root to leaf (memoized)."""
        cache = self._cache
        path = cache.get(entry)
        if path is not None:
            cache.move_to_end(entry)
            return path
        path = tuple(self.level_hash(entry, j) for j in range(self.params.depth))
        cache[entry] = path
        if len(cache) > self.cache_size:
            cache.popitem(last=False)  # evict least-recently-used
        return path

    def entries_on_path(self, entries: Iterable[Any], prefix: tuple[int, ...]) -> list[Any]:
        """All entries whose hash path starts with ``prefix``.

        Experiment code uses this to compute ground truth and false
        positives; the data plane never enumerates entries.
        """
        n = len(prefix)
        return [e for e in entries if self.hash_path(e)[:n] == prefix]


class _NodeView:
    """Live, list-like view of one node's counter row in the flat arena.

    Supports the full read/write sequence protocol the zooming code and
    tests use (indexing, iteration, ``len``, ``sum``, ``==`` against any
    sequence).  The view stays valid across arena growth (the backing
    ``array`` is extended in place), but like a raw register row it
    aliases whatever the row currently holds — do not retain views across
    ``deactivate``/``activate`` cycles.
    """

    __slots__ = ("_data", "_base", "_width")

    def __init__(self, data: array[int], base: int, width: int) -> None:
        self._data = data
        self._base = base
        self._width = width

    def __len__(self) -> int:
        return self._width

    def _index(self, i: int) -> int:
        if i < 0:
            i += self._width
        if not 0 <= i < self._width:
            raise IndexError(f"counter index {i} out of range for width {self._width}")
        return self._base + i

    def __getitem__(self, i: int) -> int:
        return self._data[self._index(i)]

    def __setitem__(self, i: int, value: int) -> None:
        self._data[self._index(i)] = value

    def __iter__(self) -> Iterator[int]:
        data, base = self._data, self._base
        return iter(data[base:base + self._width])

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, _NodeView):
            other = list(other)
        try:
            n = len(other)
        except TypeError:
            return NotImplemented
        if n != self._width:
            return False
        data, base = self._data, self._base
        return all(data[base + i] == other[i] for i in range(self._width))

    __hash__ = None  # type: ignore[assignment]  # mutable view

    def tolist(self) -> list[int]:
        data, base = self._data, self._base
        return data[base:base + self._width].tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_NodeView({self.tolist()})"


class TreeCounters:
    """Counter storage for one side of one counting session.

    Only nodes that the zooming algorithm activated exist; the root always
    does.  ``increment_path`` applies a packet tag: a tag of length L+1
    increments the counter at every level 0..L along its prefix chain
    (matching Figure 6b, where root counters keep being updated while a
    deeper node is being populated).

    Storage is a single flat ``array('Q')`` of ``rows * width`` counters:
    the root is row 0 forever, zoom nodes get rows from a free list and
    are zeroed at activation.  The arena is preallocated to the Appendix
    A.3 ``node_count()`` budget and doubles when exceeded.
    """

    __slots__ = ("params", "packets", "_width", "_data", "_offsets", "_free", "_zero_row")

    def __init__(self, params: HashTreeParams) -> None:
        self.params = params
        self.packets = 0
        width = params.width
        self._width = width
        rows = max(params.node_count(), 1)
        #: One zeroed row, reused for zero-fills (slice assignment).
        self._zero_row = array("Q", [0]) * width
        self._data = self._zero_row * rows
        #: Zoom path -> row index; the root is pinned to row 0.
        self._offsets: dict[NodePath, int] = {(): 0}
        #: Recycled row indices (popped LIFO).
        self._free: list[int] = list(range(rows - 1, 0, -1))

    # -- structure ----------------------------------------------------------

    def _alloc_row(self) -> int:
        if self._free:
            return self._free.pop()
        rows = len(self._data) // self._width
        grow = max(rows, 1)
        self._data.extend(self._zero_row * grow)  # in place: views stay valid
        self._free.extend(range(rows + grow - 1, rows, -1))
        return rows

    def activate_node(self, path: NodePath) -> None:
        """Materialize the node reached by zooming through ``path``."""
        if len(path) >= self.params.depth:
            raise ValueError(f"path {path} too deep for depth {self.params.depth}")
        if path not in self._offsets:
            row = self._alloc_row()
            base = row * self._width
            self._data[base:base + self._width] = self._zero_row  # rows recycle dirty
            self._offsets[path] = row

    def deactivate_node(self, path: NodePath) -> None:
        """Free the single node at ``path`` (the root cannot be freed)."""
        if path != ():
            row = self._offsets.pop(path, None)
            if row is not None:
                self._free.append(row)

    def deactivate_below(self, path: NodePath) -> None:
        """Free the node at ``path`` and all its descendants (zoom retreat)."""
        doomed = [
            p for p in self._offsets
            if len(p) >= max(len(path), 1) and p[: len(path)] == path
        ]
        for p in doomed:
            self._free.append(self._offsets.pop(p))

    def clear(self) -> None:
        """Drop every zoom node and zero the root — a fresh session's state.

        Equivalent to constructing a new :class:`TreeCounters` but reuses
        the arena (the receiver calls this at every session start).
        """
        offsets = self._offsets
        if len(offsets) > 1:
            self._free.extend(row for p, row in offsets.items() if p != ())
            offsets.clear()
            offsets[()] = 0
        self._data[0:self._width] = self._zero_row
        self.packets = 0

    def reset(self) -> None:
        """Zero all counters, keeping the set of active nodes."""
        data, width, zero = self._data, self._width, self._zero_row
        for row in self._offsets.values():
            base = row * width
            data[base:base + width] = zero
        self.packets = 0

    # -- counting -----------------------------------------------------------

    def increment_path(self, tag: tuple[int, ...]) -> None:
        """Count a packet whose FANcY tag is ``tag`` (partial hash path)."""
        self.packets += 1
        data, offsets, width = self._data, self._offsets, self._width
        for level in range(len(tag)):
            row = offsets.get(tag[:level])
            if row is not None:
                data[row * width + tag[level]] += 1

    def count_pipelined(self, tag: tuple[int, ...]) -> None:
        """Hot path: root + deepest-frontier increments for one tag.

        The §4.2 pipelined counting model — the root counter named by
        ``tag[0]`` always counts, and a tag longer than 1 additionally
        counts in the frontier node ``tag[:-1]`` (if active).
        """
        self.packets += 1
        data = self._data
        data[tag[0]] += 1  # root is pinned to row 0
        if len(tag) > 1:
            row = self._offsets.get(tag[:-1])
            if row is not None:
                data[row * self._width + tag[-1]] += 1

    def count_staged(self, tag: tuple[int, ...]) -> None:
        """Hot path: frontier-only increment (non-pipelined zoom stages)."""
        self.packets += 1
        row = self._offsets.get(tag[:-1])
        if row is not None:
            self._data[row * self._width + tag[-1]] += 1

    def count_pipelined_materialize(self, tag: tuple[int, ...]) -> None:
        """Receiver hot path: like :meth:`count_pipelined`, but the
        frontier node named by the tag is activated on first reference —
        the downstream materializes nodes purely from tags (§4.2)."""
        self.packets += 1
        data = self._data
        data[tag[0]] += 1
        if len(tag) > 1:
            node_path = tag[:-1]
            row = self._offsets.get(node_path)
            if row is None:
                self.activate_node(node_path)
                row = self._offsets[node_path]
            data[row * self._width + tag[-1]] += 1

    def count_staged_materialize(self, tag: tuple[int, ...]) -> None:
        """Receiver hot path for non-pipelined zoom stages."""
        self.packets += 1
        node_path = tag[:-1]
        row = self._offsets.get(node_path)
        if row is None:
            self.activate_node(node_path)
            row = self._offsets[node_path]
        self._data[row * self._width + tag[-1]] += 1

    # -- bulk counting (fluid traffic model) --------------------------------

    def add_pipelined(self, tag: tuple[int, ...], n: int) -> None:
        """Bulk :meth:`count_pipelined`: ``n`` packets of one tag at once.

        The fluid traffic model (repro.simulator.fluid) feeds whole
        counting windows through here — one register update instead of
        one call per packet.  Within a window the zoom frontier is fixed
        (it only moves at ``end_session``), so a single bulk add is
        exactly equivalent to ``n`` per-packet increments.
        """
        self.packets += n
        data = self._data
        data[tag[0]] += n
        if len(tag) > 1:
            row = self._offsets.get(tag[:-1])
            if row is not None:
                data[row * self._width + tag[-1]] += n

    def add_staged(self, tag: tuple[int, ...], n: int) -> None:
        """Bulk :meth:`count_staged` for non-pipelined zoom stages."""
        self.packets += n
        row = self._offsets.get(tag[:-1])
        if row is not None:
            self._data[row * self._width + tag[-1]] += n

    def add_pipelined_materialize(self, tag: tuple[int, ...], n: int) -> None:
        """Bulk receiver-side add; materializes the frontier node."""
        self.packets += n
        data = self._data
        data[tag[0]] += n
        if len(tag) > 1:
            node_path = tag[:-1]
            row = self._offsets.get(node_path)
            if row is None:
                self.activate_node(node_path)
                row = self._offsets[node_path]
            data[row * self._width + tag[-1]] += n

    def add_staged_materialize(self, tag: tuple[int, ...], n: int) -> None:
        """Bulk receiver-side add for non-pipelined zoom stages."""
        self.packets += n
        node_path = tag[:-1]
        row = self._offsets.get(node_path)
        if row is None:
            self.activate_node(node_path)
            row = self._offsets[node_path]
        self._data[row * self._width + tag[-1]] += n

    # -- queries ------------------------------------------------------------

    def node(self, path: NodePath) -> _NodeView | None:
        row = self._offsets.get(path)
        if row is None:
            return None
        return _NodeView(self._data, row * self._width, self._width)

    @property
    def nodes(self) -> dict[NodePath, _NodeView]:
        """Mapping view of all active nodes (live counter views)."""
        data, width = self._data, self._width
        return {p: _NodeView(data, row * width, width)
                for p, row in self._offsets.items()}

    def active_paths(self) -> Iterator[NodePath]:
        return iter(self._offsets)

    def snapshot(self) -> dict[NodePath, list[int]]:
        """Copy of all counters — the payload of a Report message."""
        data, width = self._data, self._width
        return {p: data[row * width:(row + 1) * width].tolist()
                for p, row in self._offsets.items()}

    def mismatches(
        self, remote: dict[NodePath, list[int]], path: NodePath
    ) -> list[tuple[int, int]]:
        """Compare the local node at ``path`` against the remote snapshot.

        Returns ``(counter_index, local_minus_remote)`` for counters whose
        local (sent) value exceeds the remote (received) value — i.e.
        packets lost on the wire.  Counters are never incremented by the
        downstream beyond the upstream value on a FIFO loss-only link.
        """
        row = self._offsets.get(path)
        if row is None:
            return []
        data, width = self._data, self._width
        base = row * width
        remote_node = remote.get(path)
        if remote_node is None:
            # Missing remote node: every sent packet counts as lost.
            return [(i, data[base + i]) for i in range(width) if data[base + i]]
        local = data[base:base + width].tolist()
        if local == remote_node:
            return []  # the common case, compared in C
        return [(i, sent - remote_node[i])
                for i, sent in enumerate(local) if sent > remote_node[i]]
