"""Bloom filters.

Two uses in the reproduction:

* :class:`BloomFilter` — FANcY's output structure (§4.3): failed hash
  paths discovered by the zooming algorithm are inserted so the data plane
  (e.g. the rerouting app) can test membership at line rate.  The Tofino
  implementation uses two 1-bit register arrays of 100 K cells; we default
  to the same geometry.
* :class:`CountingBloomFilter` — the §5.2 baseline design that allocates
  the whole memory budget to one counting Bloom filter instead of a
  hash-based tree.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from typing import Any

__all__ = ["BloomFilter", "CountingBloomFilter", "stable_hash"]


#: Memoized seed -> key-bytes conversions (a handful of seeds per run,
#: but ``stable_hash`` sits on per-packet paths; shaving the ``to_bytes``
#: is measurable in the hash-path microbenchmark).
_KEY_BYTES: dict[int, bytes] = {}

_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes


def stable_hash(value: Any, seed: int) -> int:
    """Deterministic, platform-independent hash of ``value`` under ``seed``.

    Python's builtin ``hash`` is salted per process, which would make
    experiments unrepeatable; we use blake2b with the seed as key.
    """
    key = _KEY_BYTES.get(seed)
    if key is None:
        key = _KEY_BYTES[seed] = seed.to_bytes(8, "little")
    digest = _blake2b(repr(value).encode(), digest_size=8, key=key).digest()
    return _from_bytes(digest, "little")


class BloomFilter:
    """A standard Bloom filter over arbitrary hashable items.

    The bit array is allocated by the first :meth:`add`: until then
    ``bits`` is ``None`` and every membership test answers ``False``
    without hashing (a monitor whose tree never flags a path holds no
    bits).  :attr:`memory_bits` reports the ``n_cells`` budget either way.
    """

    def __init__(self, n_cells: int = 100_000, n_hashes: int = 2, seed: int = 0) -> None:
        if n_cells <= 0:
            raise ValueError("Bloom filter needs at least one cell")
        if n_hashes <= 0:
            raise ValueError("Bloom filter needs at least one hash")
        self.n_cells = n_cells
        self.n_hashes = n_hashes
        self.seed = seed
        self.bits: bytearray | None = None
        self.inserted = 0

    def _indices(self, item: Any) -> Iterator[int]:
        for j in range(self.n_hashes):
            yield stable_hash(item, self.seed + j) % self.n_cells

    def add(self, item: Any) -> None:
        bits = self.bits
        if bits is None:
            bits = self.bits = bytearray((self.n_cells + 7) // 8)
        for idx in self._indices(item):
            bits[idx >> 3] |= 1 << (idx & 7)
        self.inserted += 1

    def __contains__(self, item: Any) -> bool:
        bits = self.bits
        if bits is None:
            return False
        return all(bits[idx >> 3] & (1 << (idx & 7)) for idx in self._indices(item))

    @property
    def memory_bits(self) -> int:
        return self.n_cells  # one bit per cell

    def __repr__(self) -> str:  # pragma: no cover
        return f"BloomFilter(cells={self.n_cells}, hashes={self.n_hashes}, inserted={self.inserted})"


class CountingBloomFilter:
    """Counting Bloom filter used as a §5.2 baseline.

    Both endpoints of a link maintain one; at each exchange the upstream
    compares cell values and attributes a mismatch to every entry hashing
    into a mismatching cell — which is where the baseline's ~100 false
    positives per detection come from.
    """

    def __init__(self, n_cells: int, n_hashes: int = 2, counter_bits: int = 32,
                 seed: int = 0) -> None:
        if n_cells <= 0:
            raise ValueError("counting Bloom filter needs at least one cell")
        self.n_cells = n_cells
        self.n_hashes = n_hashes
        self.counter_bits = counter_bits
        self.seed = seed
        self.counters = [0] * n_cells
        self._mask = (1 << counter_bits) - 1

    def _indices(self, item: Any) -> list[int]:
        return [stable_hash(item, self.seed + j) % self.n_cells for j in range(self.n_hashes)]

    def add(self, item: Any, count: int = 1) -> None:
        mask = self._mask
        for idx in self._indices(item):
            self.counters[idx] = (self.counters[idx] + count) & mask

    def estimate(self, item: Any) -> int:
        """Count-min style estimate of an item's count."""
        return min(self.counters[idx] for idx in self._indices(item))

    def mismatching_cells(self, other: "CountingBloomFilter") -> list[int]:
        """Indices where this filter and ``other`` disagree."""
        if other.n_cells != self.n_cells or other.n_hashes != self.n_hashes:
            raise ValueError("cannot compare filters with different geometry")
        return [i for i, (a, b) in enumerate(zip(self.counters, other.counters)) if a != b]

    def matches_cells(self, item: Any, cells: set[int]) -> bool:
        """Whether *all* of the item's cells are in ``cells`` (i.e. the item
        would be reported as failed given those mismatching cells)."""
        return all(idx in cells for idx in self._indices(item))

    def clear(self) -> None:
        self.counters[:] = [0] * self.n_cells

    @property
    def memory_bits(self) -> int:
        return self.n_cells * self.counter_bits
