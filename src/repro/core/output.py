"""FANcY output structures and failure reports (§4.3, Figure 1).

FANcY flags affected entries through two data structures: a 1-bit register
array for dedicated counters (kept inside
:class:`~repro.core.counters.DedicatedSenderCounters`) and a Bloom filter
of failed hash paths for the tree.  This module defines the report objects
surfaced to applications and the :class:`FailureLog` that experiments use
to measure accuracy and detection time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from .bloom import BloomFilter

__all__ = ["FailureKind", "FailureReport", "FailureLog", "HashPathFlags"]


class FailureKind(enum.Enum):
    """What a FANcY switch can report."""

    DEDICATED_ENTRY = "dedicated_entry"   # mismatch on a dedicated counter
    TREE_LEAF = "tree_leaf"               # zooming reached a mismatching leaf
    UNIFORM = "uniform"                   # majority of root counters mismatch
    LINK_DOWN = "link_down"               # no control response after X attempts


@dataclass(frozen=True)
class FailureReport:
    """One detection event raised by the upstream switch.

    Attributes:
        kind: failure category.
        time: simulated time of the report.
        entry: the flagged entry (dedicated detections only).
        hash_path: the flagged leaf hash path (tree detections only).
        lost_packets: counter discrepancy that triggered the report.
        session_id: counting session in which the mismatch was observed.
        port: switch port (link) the report concerns.
    """

    kind: FailureKind
    time: float
    entry: Any = None
    hash_path: tuple[int, ...] | None = None
    lost_packets: int = 0
    session_id: int = -1
    port: int = -1


class HashPathFlags:
    """§4.3 output structure for the tree: a Bloom filter of failed paths.

    The data plane queries it per packet; the fabric's reroute
    controller reads it through
    :meth:`~repro.fabric.deployment.FabricDeployment.flagged`.  The
    filter's bits exist from the first flag on (:class:`BloomFilter`);
    :attr:`memory_bits` is the Tofino layout regardless.
    """

    def __init__(self, n_cells: int = 100_000, seed: int = 0) -> None:
        # Tofino implementation: two 1-bit registers of 100K cells.
        self.filter = BloomFilter(n_cells=n_cells, n_hashes=2, seed=seed)

    def flag(self, hash_path: tuple[int, ...]) -> None:
        self.filter.add(hash_path)

    def is_flagged(self, hash_path: tuple[int, ...]) -> bool:
        return hash_path in self.filter

    @property
    def memory_bits(self) -> int:
        return 2 * self.filter.n_cells


@dataclass
class FailureLog:
    """Collects reports during an experiment; answers accuracy queries."""

    reports: list[FailureReport] = field(default_factory=list)

    def record(self, report: FailureReport) -> None:
        self.reports.append(report)

    def __len__(self) -> int:
        return len(self.reports)

    def by_kind(self, kind: FailureKind) -> list[FailureReport]:
        return [r for r in self.reports if r.kind is kind]

    def first_report(
        self,
        kind: FailureKind | None = None,
        entry: Any = None,
        hash_path: tuple[int, ...] | None = None,
    ) -> FailureReport | None:
        """Earliest report matching all the given filters."""
        best: FailureReport | None = None
        for r in self.reports:
            if kind is not None and r.kind is not kind:
                continue
            if entry is not None and r.entry != entry:
                continue
            if hash_path is not None and r.hash_path != hash_path:
                continue
            if best is None or r.time < best.time:
                best = r
        return best

    def flagged_leaf_paths(self) -> set[tuple[int, ...]]:
        return {r.hash_path for r in self.by_kind(FailureKind.TREE_LEAF) if r.hash_path}
