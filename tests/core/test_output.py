"""Tests for output structures and the failure log."""

from __future__ import annotations

from repro.core.output import FailureKind, FailureLog, FailureReport, HashPathFlags


def report(kind=FailureKind.DEDICATED_ENTRY, time=1.0, **kw):
    return FailureReport(kind, time, **kw)


class TestFailureLog:
    def test_record_and_len(self):
        log = FailureLog()
        log.record(report())
        assert len(log) == 1

    def test_by_kind(self):
        log = FailureLog()
        log.record(report(FailureKind.DEDICATED_ENTRY))
        log.record(report(FailureKind.TREE_LEAF, hash_path=(1, 2, 3)))
        assert len(log.by_kind(FailureKind.TREE_LEAF)) == 1

    def test_first_report_earliest_wins(self):
        log = FailureLog()
        log.record(report(time=5.0, entry="e"))
        log.record(report(time=2.0, entry="e"))
        assert log.first_report(entry="e").time == 2.0

    def test_first_report_filters(self):
        log = FailureLog()
        log.record(report(entry="a"))
        log.record(report(FailureKind.TREE_LEAF, time=0.5, hash_path=(1,)))
        assert log.first_report(kind=FailureKind.TREE_LEAF).hash_path == (1,)
        assert log.first_report(entry="a").entry == "a"
        assert log.first_report(entry="missing") is None
        assert log.first_report(hash_path=(9,)) is None

    def test_flagged_leaf_paths(self):
        log = FailureLog()
        log.record(report(FailureKind.TREE_LEAF, hash_path=(1, 2)))
        log.record(report(FailureKind.TREE_LEAF, hash_path=(3, 4)))
        log.record(report(FailureKind.DEDICATED_ENTRY, entry="e"))
        assert log.flagged_leaf_paths() == {(1, 2), (3, 4)}


class TestHashPathFlags:
    def test_flag_and_query(self):
        flags = HashPathFlags()
        flags.flag((1, 2, 3))
        assert flags.is_flagged((1, 2, 3))
        assert not flags.is_flagged((3, 2, 1))

    def test_memory_matches_tofino_layout(self):
        """B.2: two 1-bit registers of 100 K cells."""
        assert HashPathFlags(n_cells=100_000).memory_bits == 200_000

    def test_report_is_frozen(self):
        r = report()
        try:
            r.time = 9.0
            raised = False
        except Exception:
            raised = True
        assert raised
