"""A timeline event is bytes: the chunked timeline against the event list
it replaced.

``StateTimeline`` appends plain ``(time, source, event, fields)`` rows and
seals every ``_CHUNK`` of them into one pickled ``bytes``; its ``events``,
iteration, queries, detection records and JSONL are decoded from the
chunks.  The reference below is the timeline as it was before: every
event a ``TimelineEvent`` in a list, for the life of the run.
"""

from __future__ import annotations

import enum
import json
import math
import pickle
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.telemetry import timeline
from repro.telemetry.timeline import (
    DetectionRecord,
    StateTimeline,
    TimelineEvent,
    _first_match,
)


class Verdict(enum.Enum):
    """An enum member as a field value: it pickles by reference."""

    FLAGGED = "flagged"
    CLEAR = 2


class _ListTimeline:
    """The reference: every recorded event a ``TimelineEvent`` in a list."""

    def __init__(self, max_events: int) -> None:
        self.max_events = max_events
        self.events: list[TimelineEvent] = []
        self.suppressed = 0
        self._last_time = -math.inf

    def record(self, time, source, event, **fields):
        if time < self._last_time:
            raise ValueError("backwards")
        self._last_time = time
        if len(self.events) >= self.max_events:
            self.suppressed += 1
            return
        self.events.append(
            TimelineEvent(time, len(self.events), source, event, fields))

    def select(self, event=None, source=None, predicate=None):
        return [ev for ev in self.events
                if (event is None or ev.event == event)
                and (source is None or ev.source == source)
                and (predicate is None or predicate(ev))]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.event] = out.get(ev.event, 0) + 1
        return out

    def detection_records(self) -> list[DetectionRecord]:
        detections = self.select("detection")
        session_opens = self.select("session_open")
        records = []
        for inj in self.select("failure_injected"):
            entry = inj.fields.get("entry")
            match = _first_match(detections, inj.time, entry,
                                 inj.fields.get("hash_path"))
            if match is None:
                records.append(DetectionRecord(entry, inj.time, None, None,
                                               None, None))
                continue
            fsm = match.fields.get("fsm")
            records.append(DetectionRecord(
                entry, inj.time, match.time, match.fields.get("kind"),
                sum(1 for ev in session_opens
                    if inj.time < ev.time <= match.time
                    and (fsm is None or ev.fields.get("fsm") == fsm)),
                match.fields.get("control_bytes")))
        return records

    def to_jsonl(self) -> str:
        lines = [ev.to_json() for ev in self.events]
        if self.suppressed:
            lines.append(json.dumps({
                "event": "timeline_truncated",
                "suppressed": self.suppressed,
                "max_events": self.max_events,
            }))
        return "\n".join(lines) + ("\n" if lines else "")


# -- the state machine -----------------------------------------------------


def _odd_seq(ev: TimelineEvent) -> bool:
    return ev.seq % 2 == 1


steps = st.sampled_from([0.0, 0.0, 0.25, 1.0])
sources = st.sampled_from(["mon", "mon/tree", "mon/dedicated", "failure"])
events = st.sampled_from(["fsm_transition", "session_open", "session_close",
                          "failure_injected", "detection", "zoom_descend"])
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 2**70), st.text(max_size=4),
    st.floats(allow_nan=False), st.sampled_from(["uniform", "tree_leaf", "e"]),
    st.sampled_from(list(Verdict)),
)
field_values = st.one_of(
    scalars,
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.dictionaries(st.integers(0, 3),
                    st.one_of(scalars, st.dictionaries(st.integers(0, 2),
                                                       scalars, max_size=2)),
                    max_size=2),
)
field_dicts = st.dictionaries(
    st.sampled_from(["entry", "hash_path", "kind", "fsm", "control_bytes",
                     "session", "from"]),
    field_values, max_size=4)


class _BytesMachine(RuleBasedStateMachine):
    """Drives the chunked timeline and the reference with the same calls.

    Chunks of four rows, so short runs seal chunks and leave one filling."""

    max_events = 1_000_000

    def __init__(self) -> None:
        super().__init__()
        self._saved_chunk = timeline._CHUNK
        timeline._CHUNK = 4
        self.tl = StateTimeline(max_events=self.max_events)
        self.ref = _ListTimeline(max_events=self.max_events)
        self.now = 0.0
        self.recorded = False

    def teardown(self) -> None:
        timeline._CHUNK = self._saved_chunk

    @rule(dt=steps, source=sources, event=events, fields=field_dicts)
    def record(self, dt, source, event, fields):
        self.now += dt
        self.tl.record(self.now, source, event, **fields)
        self.ref.record(self.now, source, event, **fields)
        self.recorded = True

    @precondition(lambda self: self.recorded)
    @rule(back=st.sampled_from([1e-9, 0.5, math.inf]))
    def record_backwards(self, back):
        for log in (self.tl, self.ref):
            with pytest.raises(ValueError):
                log.record(self.now - back, "mon", "late")

    @invariant()
    def views_equal_the_event_list(self):
        tl, ref = self.tl, self.ref
        assert tl.events == ref.events
        assert list(tl) == ref.events
        assert all(type(ev) is TimelineEvent for ev in tl)
        assert len(tl) == len(ref.events)
        assert tl.suppressed == ref.suppressed
        assert tl.select() == ref.events
        for event in ("detection", "session_open", "late"):
            assert tl.select(event) == ref.select(event)
        assert tl.select(source="mon") == ref.select(source="mon")
        assert tl.select("fsm_transition", source="mon/tree") == \
            ref.select("fsm_transition", source="mon/tree")
        assert tl.select(predicate=_odd_seq) == ref.select(predicate=_odd_seq)
        assert tl.transitions() == ref.select("fsm_transition")
        assert tl.transitions(fsm="mon") == ref.select("fsm_transition", "mon")
        assert tl.counts() == ref.counts()
        assert list(tl.counts()) == list(ref.counts())
        assert tl.detection_records() == ref.detection_records()
        assert tl.to_jsonl() == ref.to_jsonl()

    @invariant()
    def pickle_round_trip(self):
        again = pickle.loads(pickle.dumps(self.tl))
        assert again.events == self.ref.events
        assert again.to_jsonl() == self.ref.to_jsonl()
        assert pickle.loads(pickle.dumps(self.tl.events)) == self.ref.events

    @invariant()
    def only_the_filling_chunk_is_objects(self):
        tl = self.tl
        assert all(type(blob) is bytes for blob in tl._sealed)
        assert len(tl._sealed) * 4 + len(tl._rows) == len(tl)
        assert len(tl._rows) < 4


_SETTINGS = settings(max_examples=60, stateful_step_count=30, deadline=None)


class _CappedAt3(_BytesMachine):
    max_events = 3


class _CappedAt0(_BytesMachine):
    max_events = 0


TestBytesTimeline = _BytesMachine.TestCase
TestBytesTimeline.settings = _SETTINGS
TestBytesTimelineCapped3 = _CappedAt3.TestCase
TestBytesTimelineCapped3.settings = _SETTINGS
TestBytesTimelineCapped0 = _CappedAt0.TestCase
TestBytesTimelineCapped0.settings = _SETTINGS


# -- the footprint fence ------------------------------------------------------


def test_a_transition_holds_at_most_80_bytes():
    """20 000 ``fsm_transition`` events as a sender FSM records them: what
    the timeline holds is its sealed bytes and one filling chunk.  The
    event list held 368 B per event (a tuple, its fields dict, its
    timestamp); pickled chunks hold ≈ 47."""
    states = ("idle", "counting", "wait_report", "idle")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tl = StateTimeline()
        t = 0.0
        for i in range(20_000):
            t += 1e-3
            tl.record(t, "s2->s1/dedicated", "fsm_transition", role="sender",
                      session=i // 3,
                      **{"from": states[i % 3], "to": states[i % 3 + 1]})
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tl) == 20_000 and tl.counts() == {"fsm_transition": 20_000}
    assert held / 20_000 <= 80
