"""Tests for the protocol state timeline."""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams
from repro.simulator.engine import Simulator
from repro.simulator.topology import TwoSwitchTopology
from repro.telemetry import StateTimeline, Telemetry, TimelineEvent


def two_switch_timeline() -> StateTimeline:
    """Half a second of a dedicated + tree FSM pair on one monitored link."""
    sim = Simulator()
    telemetry = Telemetry()
    topo = TwoSwitchTopology(sim)
    monitor = FancyLinkMonitor(
        sim, topo.upstream, 1, topo.downstream, 1,
        FancyConfig(high_priority=["e0", "e1"],
                    tree_params=HashTreeParams(width=8, depth=2, split=2,
                                               pipelined=True)),
        telemetry=telemetry)
    monitor.start()
    sim.run(until=0.5)
    return telemetry.timeline


class TestMonotonicOrdering:
    def test_backwards_timestamp_raises(self):
        tl = StateTimeline()
        tl.record(1.0, "a", "x")
        with pytest.raises(ValueError):
            tl.record(0.5, "a", "y")

    def test_equal_timestamps_allowed_and_seq_ordered(self):
        tl = StateTimeline()
        tl.record(1.0, "a", "x")
        tl.record(1.0, "b", "y")
        tl.record(1.0, "c", "z")
        assert [ev.seq for ev in tl] == [0, 1, 2]
        assert [ev.event for ev in tl] == ["x", "y", "z"]

    def test_events_are_time_sorted_by_construction(self):
        tl = StateTimeline()
        for t in (0.0, 0.5, 0.5, 2.0, 7.25):
            tl.record(t, "s", "e")
        times = [ev.time for ev in tl]
        assert times == sorted(times)

    def test_rejection_does_not_corrupt_state(self):
        tl = StateTimeline()
        tl.record(2.0, "a", "x")
        with pytest.raises(ValueError):
            tl.record(1.0, "a", "y")
        tl.record(2.0, "a", "z")  # same time still fine
        assert len(tl) == 2


class TestTruncation:
    def test_max_events_suppresses_and_counts(self):
        tl = StateTimeline(max_events=3)
        for i in range(10):
            tl.record(float(i), "s", "e")
        assert len(tl) == 3
        assert tl.suppressed == 7
        # Suppressed events still advance the monotonic clock.
        with pytest.raises(ValueError):
            tl.record(1.0, "s", "late")

    def test_jsonl_truncation_marker(self):
        tl = StateTimeline(max_events=2)
        for i in range(5):
            tl.record(float(i), "s", "e")
        lines = tl.to_jsonl().splitlines()
        assert len(lines) == 3
        marker = json.loads(lines[-1])
        assert marker == {
            "event": "timeline_truncated",
            "suppressed": 3,
            "max_events": 2,
        }

    def test_no_marker_when_not_truncated(self):
        tl = StateTimeline()
        tl.record(0.0, "s", "e")
        assert "timeline_truncated" not in tl.to_jsonl()


class TestQueries:
    def _populated(self) -> StateTimeline:
        tl = StateTimeline()
        # as the FSMs record them: the id is the source, not a field
        tl.record(0.0, "fsm/a", "fsm_transition", role="sender", session=1,
                  **{"from": "idle", "to": "wait_ack"})
        tl.record(0.1, "fsm/b", "fsm_transition", role="receiver", session=1,
                  **{"from": "idle", "to": "send_ack"})
        tl.record(0.2, "fsm/a", "session_open", fsm="fsm/a", session=1)
        return tl

    def test_select_by_event_and_source(self):
        tl = self._populated()
        assert len(tl.select("fsm_transition")) == 2
        assert len(tl.select(source="fsm/a")) == 2
        assert len(tl.select("session_open", source="fsm/a")) == 1

    def test_transitions_filter_by_fsm(self):
        tl = self._populated()
        assert len(tl.transitions()) == 2
        assert len(tl.transitions(fsm="fsm/b")) == 1

    def test_transitions_filter_matches_a_real_fsm_pair(self):
        tl = two_switch_timeline()
        dedicated = tl.transitions(fsm="A->B/dedicated")
        tree = tl.transitions(fsm="A->B/tree")
        assert len(dedicated) == 33 and len(tree) == 14
        assert len(tl.transitions()) == 47
        assert {ev.source for ev in dedicated} == {"A->B/dedicated"}
        assert {ev.fields["role"] for ev in dedicated} == {"sender", "receiver"}
        assert all("fsm" not in ev.fields for ev in dedicated + tree)
        assert tl.transitions(fsm="A->B/none") == []

    def test_counts(self):
        tl = self._populated()
        assert tl.counts() == {"fsm_transition": 2, "session_open": 1}

    def test_jsonl_roundtrip(self):
        tl = self._populated()
        objs = [json.loads(line) for line in tl.to_jsonl().splitlines()]
        assert objs[0]["event"] == "fsm_transition"
        assert objs[0]["from"] == "idle"
        assert objs[2]["session"] == 1


class TestEventRecord:
    """``TimelineEvent`` is a tuple record; its API is what it was."""

    def _event(self) -> TimelineEvent:
        tl = StateTimeline()
        tl.record(0.0, "mon", "session_open", fsm="mon/tree", session=1)
        tl.record(1.5, "mon", "detection", kind="tree_leaf",
                  hash_path=(3, 1), entry=None)
        return tl.events[1]

    def test_attribute_access_and_field_order(self):
        ev = self._event()
        assert (ev.time, ev.seq, ev.source, ev.event) == (1.5, 1, "mon", "detection")
        assert ev.fields == {"kind": "tree_leaf", "hash_path": (3, 1), "entry": None}
        assert TimelineEvent._fields == ("time", "seq", "source", "event", "fields")
        assert tuple(ev) == (1.5, 1, "mon", "detection", ev.fields)

    def test_to_dict_coerces_tuples_to_lists(self):
        ev = self._event()
        assert ev.to_dict() == {"time": 1.5, "source": "mon", "event": "detection",
                                "kind": "tree_leaf", "hash_path": [3, 1],
                                "entry": None}
        assert json.loads(ev.to_json())["hash_path"] == [3, 1]

    def test_equality_is_by_value(self):
        ev = self._event()
        assert ev == TimelineEvent(1.5, 1, "mon", "detection", dict(ev.fields))
        assert ev != ev._replace(seq=2)
        assert ev == self._event()

    def test_no_instance_dict_and_no_shared_default(self):
        ev = self._event()
        assert not hasattr(ev, "__dict__")
        with pytest.raises(AttributeError):
            ev.time = 2.0
        with pytest.raises(TypeError):
            TimelineEvent(0.0, 0, "mon", "x")  # fields is not optional
        tl = StateTimeline()
        tl.record(0.0, "a", "x")
        tl.record(0.0, "b", "x")
        assert tl.events[0].fields == {} and \
            tl.events[0].fields is not tl.events[1].fields

    def test_pickle_round_trip(self):
        tl = two_switch_timeline()
        again = pickle.loads(pickle.dumps(tl.events))
        assert again == tl.events
        assert type(again[0]) is TimelineEvent

    def test_jsonl_bytes_of_a_two_switch_run_are_pinned(self):
        """Recorded on the commit whose ``TimelineEvent`` was a frozen
        dataclass: the record type changed, not a byte of its export."""
        tl = two_switch_timeline()
        assert len(tl) == 63
        assert hashlib.sha256(tl.to_jsonl().encode()).hexdigest() == (
            "6610bf1c3eda6583970ff48fd9d5e6afcf4be94e2b64ad47641a919ccb85edce")


class TestDetectionRecords:
    def test_dedicated_entry_pairing(self):
        tl = StateTimeline()
        tl.record(0.5, "mon", "session_open", fsm="mon/dedicated", session=1)
        tl.record(1.0, "failure", "failure_injected", entry="e", hash_path=None)
        tl.record(1.1, "mon", "session_open", fsm="mon/dedicated", session=2)
        tl.record(1.2, "mon", "detection", kind="dedicated_entry",
                  fsm="mon/dedicated", entry="e", control_bytes=123)
        (rec,) = tl.detection_records()
        assert rec.detected
        assert rec.entry == "e"
        assert rec.latency == pytest.approx(0.2)
        assert rec.sessions_used == 1  # only the post-injection session
        assert rec.control_bytes == 123
        assert rec.to_dict()["latency"] == pytest.approx(0.2)

    def test_tree_pairing_by_hash_path(self):
        tl = StateTimeline()
        tl.record(1.0, "failure", "failure_injected", entry="e",
                  hash_path=(3, 1, 4))
        tl.record(2.0, "mon", "detection", kind="tree_leaf", fsm="mon/tree",
                  entry=None, hash_path=[3, 1, 4], control_bytes=7)
        (rec,) = tl.detection_records()
        assert rec.detected
        assert rec.kind == "tree_leaf"

    def test_undetected_failure(self):
        tl = StateTimeline()
        tl.record(1.0, "failure", "failure_injected", entry="e", hash_path=None)
        (rec,) = tl.detection_records()
        assert not rec.detected
        assert rec.latency is None

    def test_detection_before_injection_is_ignored(self):
        tl = StateTimeline()
        tl.record(0.5, "mon", "detection", kind="dedicated_entry",
                  fsm="mon/dedicated", entry="e")
        tl.record(1.0, "failure", "failure_injected", entry="e", hash_path=None)
        (rec,) = tl.detection_records()
        assert not rec.detected
