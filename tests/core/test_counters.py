"""Tests for dedicated counters (upstream and downstream sides)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.counters import DedicatedReceiverCounters, DedicatedSenderCounters
from repro.simulator.packet import Packet, PacketKind


def data(entry="e"):
    return Packet(PacketKind.DATA, entry, 1500)


class TestSenderSide:
    def test_tags_and_counts_owned_entries(self):
        s = DedicatedSenderCounters(["a", "b"])
        s.begin_session(1)
        pkt = data("b")
        assert s.process_packet(pkt, 1) is True
        assert pkt.tag == (1,)
        assert pkt.tag_dedicated is True
        assert pkt.tag_session == 1
        assert s.counters == [0, 1]

    def test_ignores_unowned_entries(self):
        s = DedicatedSenderCounters(["a"])
        s.begin_session(1)
        pkt = data("other")
        assert s.process_packet(pkt, 1) is False
        assert pkt.tag is None

    def test_begin_session_resets(self):
        s = DedicatedSenderCounters(["a"])
        s.begin_session(1)
        s.process_packet(data("a"), 1)
        s.begin_session(2)
        assert s.counters == [0]

    def test_mismatch_flags_entry_and_calls_back(self):
        detections = []
        s = DedicatedSenderCounters(["a", "b"],
                                    on_detection=lambda e, lost, sid: detections.append((e, lost, sid)))
        s.begin_session(1)
        for _ in range(5):
            s.process_packet(data("a"), 1)
        s.process_packet(data("b"), 1)
        detected = s.end_session([3, 1], 1)
        assert detected == ["a"]
        assert detections == [("a", 2, 1)]
        assert s.flagged_entries == ["a"]

    def test_equal_counters_no_flag(self):
        s = DedicatedSenderCounters(["a"])
        s.begin_session(1)
        s.process_packet(data("a"), 1)
        assert s.end_session([1], 1) == []
        assert s.flagged_entries == []

    def test_short_remote_report_treated_as_zero(self):
        s = DedicatedSenderCounters(["a", "b"])
        s.begin_session(1)
        s.process_packet(data("b"), 1)
        detected = s.end_session([0], 1)  # remote missing index 1
        assert detected == ["b"]

    def test_flags_persist_across_sessions(self):
        s = DedicatedSenderCounters(["a"])
        s.begin_session(1)
        s.process_packet(data("a"), 1)
        s.end_session([0], 1)
        s.begin_session(2)
        assert s.flagged_entries == ["a"]
        s.clear_flags()
        assert s.flagged_entries == []

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            DedicatedSenderCounters(["a", "a"])

    def test_memory_80_bits_per_entry(self):
        assert DedicatedSenderCounters([f"e{i}" for i in range(500)]).memory_bits == 40_000

    def test_owns(self):
        s = DedicatedSenderCounters(["a"])
        assert s.owns("a") and not s.owns("b")

    def test_no_false_positives_structurally(self):
        """§5: FPR is always zero for dedicated counters — an entry is
        flagged only if its own counter mismatches."""
        s = DedicatedSenderCounters(["a", "b", "c"])
        s.begin_session(1)
        for _ in range(10):
            s.process_packet(data("a"), 1)
        detected = s.end_session([5, 0, 0], 1)
        assert detected == ["a"]


#: Cell values past 2**63: Python ints do not wrap, and the one scan that
#: is left must not either (an int64 plane would raise or wrap here).
_cells = st.one_of(st.integers(0, 5), st.integers(0, 2**70))


class TestMismatchScan:
    """The scan has one implementation for every width — 0 to 256
    entries, remote snapshots shorter, equal and longer than local —
    checked against its one-line definition."""

    @given(st.lists(_cells, max_size=256), st.lists(_cells, max_size=300),
           st.sampled_from(("shorter", "equal", "longer", "as drawn")))
    def test_matches_definition(self, local, remote, shape):
        n = len(local)
        if shape == "shorter":
            remote = remote[:n // 2]
        elif shape == "equal":
            remote = (remote + [0] * n)[:n]
        elif shape == "longer":
            remote = (remote + [0] * n)[:n] + [7, 7]
        expected = [i for i in range(n)
                    if local[i] > (remote[i] if i < len(remote) else 0)]

        lost = {}
        s = DedicatedSenderCounters(
            list(range(n)),
            on_detection=lambda e, k, sid: lost.__setitem__(e, k))
        s.counters[:] = local
        assert s._mismatch_indices(remote) == expected
        # ... and through the session boundary: flagged entries, loss
        # sizes, and the bulk-equality shortcut agree with it.
        assert s.end_session(remote, 1) == expected
        assert s.flagged_entries == expected
        assert lost == {i: local[i] - (remote[i] if i < len(remote) else 0)
                        for i in expected}
        assert s.sessions_completed == 1

    def test_wide_set_with_cells_past_int64(self):
        """≥ 64 entries used to take a fixed-width vector compare."""
        s = DedicatedSenderCounters(list(range(80)))
        s.counters[:] = [2**64 + 1] * 80
        remote = [2**64 + 1] * 79 + [2**64]
        assert s.end_session(remote, 1) == [79]


class TestReceiverSide:
    def test_counts_by_tag(self):
        r = DedicatedReceiverCounters(3)
        r.begin_session(1)
        pkt = data("whatever")
        pkt.tag, pkt.tag_session, pkt.tag_dedicated = (2,), 1, True
        assert r.process_packet(pkt, 1) is True
        assert r.snapshot() == [0, 0, 1]

    def test_ignores_untagged(self):
        r = DedicatedReceiverCounters(2)
        r.begin_session(1)
        assert r.process_packet(data(), 1) is False

    def test_ignores_stale_session_tags(self):
        r = DedicatedReceiverCounters(2)
        r.begin_session(2)
        pkt = data()
        pkt.tag, pkt.tag_session, pkt.tag_dedicated = (0,), 1, True
        assert r.process_packet(pkt, 2) is False
        assert r.snapshot() == [0, 0]

    def test_ignores_tree_tags(self):
        r = DedicatedReceiverCounters(2)
        r.begin_session(1)
        pkt = data()
        pkt.tag, pkt.tag_session, pkt.tag_dedicated = (0, 1), 1, False
        assert r.process_packet(pkt, 1) is False

    def test_out_of_range_tag_ignored(self):
        r = DedicatedReceiverCounters(2)
        r.begin_session(1)
        pkt = data()
        pkt.tag, pkt.tag_session, pkt.tag_dedicated = (9,), 1, True
        assert r.process_packet(pkt, 1) is False

    def test_reset_between_sessions(self):
        r = DedicatedReceiverCounters(1)
        r.begin_session(1)
        pkt = data()
        pkt.tag, pkt.tag_session, pkt.tag_dedicated = (0,), 1, True
        r.process_packet(pkt, 1)
        r.begin_session(2)
        assert r.snapshot() == [0]


class TestEndToEndConsistency:
    def test_sender_receiver_agree_without_loss(self):
        """Both sides count the same packets with the same counters (§3)."""
        s = DedicatedSenderCounters(["a", "b"])
        r = DedicatedReceiverCounters(2)
        s.begin_session(1)
        r.begin_session(1)
        for entry in ["a", "b", "a", "a"]:
            pkt = data(entry)
            if s.process_packet(pkt, 1):
                r.process_packet(pkt, 1)
        assert s.end_session(r.snapshot(), 1) == []

    def test_loss_detected_exactly(self):
        s = DedicatedSenderCounters(["a"])
        r = DedicatedReceiverCounters(1)
        s.begin_session(1)
        r.begin_session(1)
        for i in range(10):
            pkt = data("a")
            s.process_packet(pkt, 1)
            if i % 2 == 0:  # drop half on the "wire"
                r.process_packet(pkt, 1)
        lost = []
        s.on_detection = lambda e, l, sid: lost.append(l)
        assert s.end_session(r.snapshot(), 1) == ["a"]
        assert lost == [5]
