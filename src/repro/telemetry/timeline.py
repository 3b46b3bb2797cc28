"""Protocol state-machine timeline: *how* a detection unfolded.

The :class:`StateTimeline` is an append-only, monotonically timestamped
event log fed by the FANcY FSMs (:mod:`repro.core.protocol`), the
zooming strategy (:mod:`repro.core.zooming`), the link monitor
(:mod:`repro.core.detector`) and the experiment runners.  Event types:

========================  =====================================================
``fsm_transition``        an FSM changed state; the FSM id is the event's
                          ``source`` (fields: ``role``, ``from``, ``to``,
                          ``session``)
``session_open`` /        a counting session opened / completed on a sender
``session_close``         FSM (fields: ``fsm``, ``session``)
``zoom_descend`` /        the tree's zooming frontier activated / retreated
``zoom_retreat``          from a node (fields: ``fsm``, ``path``, ``level``)
``failure_injected``      the experiment injected a gray failure (fields:
                          ``entry``, optional ``hash_path``)
``detection``             the monitor raised a failure report (fields:
                          ``kind``, ``fsm``, ``entry`` / ``hash_path``,
                          ``session``, ``lost``, ``control_bytes``)
========================  =====================================================

Ordering guarantee: :meth:`StateTimeline.record` **rejects** timestamps
that run backwards, so a timeline is monotone by construction (events at
equal timestamps keep insertion order via a sequence number).  The
simulator's clock is monotone, which makes this a cheap invariant — and
a loud canary for instrumentation wired up across two different
simulations by mistake.

:meth:`detection_records` pairs each ``failure_injected`` event with the
first matching ``detection`` (by entry for dedicated counters, by leaf
hash path for the tree) and derives the paper's headline quantities:
injection→flag latency (Fig. 9/10), counting sessions used by the
detecting FSM, and cumulative control bytes at detection time (Table 4's
overhead companion).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, IO, Iterator, NamedTuple, Optional

__all__ = ["TimelineEvent", "StateTimeline", "DetectionRecord"]


class TimelineEvent(NamedTuple):
    """One timeline entry: a timestamp, a source, an event type, fields.

    A tuple record: :meth:`StateTimeline.record` builds one per event on
    every FSM transition of every monitored link.
    """

    time: float
    seq: int
    source: str
    event: str
    fields: dict

    def to_dict(self) -> dict:
        out = {"time": self.time, "source": self.source, "event": self.event}
        for key, value in self.fields.items():
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=str)


@dataclass(frozen=True)
class DetectionRecord:
    """Per-entry detection outcome derived from the timeline."""

    entry: Any
    injected_at: float
    detected_at: Optional[float]
    kind: Optional[str]
    sessions_used: Optional[int]
    control_bytes: Optional[int]

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    @property
    def latency(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    def to_dict(self) -> dict:
        return {
            "entry": self.entry,
            "injected_at": self.injected_at,
            "detected_at": self.detected_at,
            "latency": self.latency,
            "kind": self.kind,
            "sessions_used": self.sessions_used,
            "control_bytes": self.control_bytes,
        }


class StateTimeline:
    """Append-only, monotonically timestamped event log."""

    def __init__(self, max_events: int = 1_000_000):
        self.max_events = max_events
        self.events: list[TimelineEvent] = []
        self.suppressed = 0
        self._last_time = float("-inf")
        self._seq = 0
        self._suppression_counter: Any = None

    def bind_suppression_counter(self, counter: Any) -> None:
        """Mirror bounded-suppression drops into a registry counter.

        A truncated timeline is a blindspot — detection pairing and FSM
        forensics silently lose their tail.  :class:`~repro.telemetry.
        session.Telemetry` binds ``telemetry_timeline_truncated_total``
        here so the drop count shows up in metric exports instead of
        only inside the (possibly never-serialized) timeline object.
        """
        self._suppression_counter = counter

    # -- recording ------------------------------------------------------------

    def record(self, time: float, source: str, event: str, **fields: Any) -> None:
        """Append one event; raises on a backwards timestamp."""
        if time < self._last_time:
            raise ValueError(
                f"timeline event {event!r} at t={time} is earlier than the "
                f"previously recorded t={self._last_time} — timelines must be "
                "monotonically timestamped (one StateTimeline per simulation)"
            )
        self._last_time = time
        if len(self.events) >= self.max_events:
            self.suppressed += 1
            if self._suppression_counter is not None:
                self._suppression_counter.inc()
            return
        self.events.append(tuple.__new__(
            TimelineEvent, (time, self._seq, source, event, fields)))
        self._seq += 1

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TimelineEvent]:
        return iter(self.events)

    def select(self, event: Optional[str] = None, source: Optional[str] = None,
               predicate: Optional[Callable[[TimelineEvent], bool]] = None
               ) -> list[TimelineEvent]:
        out = []
        for ev in self.events:
            if event is not None and ev.event != event:
                continue
            if source is not None and ev.source != source:
                continue
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return out

    def transitions(self, fsm: Optional[str] = None) -> list[TimelineEvent]:
        """All ``fsm_transition`` events, optionally of one FSM."""
        return self.select("fsm_transition", source=fsm or None)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.event] = out.get(ev.event, 0) + 1
        return out

    # -- detection accounting ---------------------------------------------------

    def detection_records(self) -> list[DetectionRecord]:
        """Pair every injected failure with its first matching detection."""
        injections = self.select("failure_injected")
        detections = self.select("detection")
        session_opens = self.select("session_open")
        records = []
        for inj in injections:
            entry = inj.fields.get("entry")
            hash_path = inj.fields.get("hash_path")
            match = _first_match(detections, inj.time, entry, hash_path)
            if match is None:
                records.append(DetectionRecord(entry, inj.time, None, None, None, None))
                continue
            fsm = match.fields.get("fsm")
            sessions = sum(
                1 for ev in session_opens
                if inj.time < ev.time <= match.time
                and (fsm is None or ev.fields.get("fsm") == fsm)
            )
            records.append(DetectionRecord(
                entry=entry,
                injected_at=inj.time,
                detected_at=match.time,
                kind=match.fields.get("kind"),
                sessions_used=sessions,
                control_bytes=match.fields.get("control_bytes"),
            ))
        return records

    # -- serialization -----------------------------------------------------------

    def to_jsonl(self, fh: Optional[IO[str]] = None) -> Optional[str]:
        """Render as JSON Lines; returns the text when ``fh`` is None."""
        lines = [ev.to_json() for ev in self.events]
        if self.suppressed:
            lines.append(json.dumps({
                "event": "timeline_truncated",
                "suppressed": self.suppressed,
                "max_events": self.max_events,
            }))
        text = "\n".join(lines) + ("\n" if lines else "")
        if fh is None:
            return text
        fh.write(text)
        return None


def _first_match(detections: list[TimelineEvent], after: float,
                 entry: Any, hash_path: Any) -> Optional[TimelineEvent]:
    hp = list(hash_path) if isinstance(hash_path, tuple) else hash_path
    for ev in detections:
        if ev.time < after:
            continue
        ev_entry = ev.fields.get("entry")
        ev_path = ev.fields.get("hash_path")
        if entry is not None and ev_entry == entry:
            return ev
        if hp is not None and ev_path is not None:
            ev_hp = list(ev_path) if isinstance(ev_path, tuple) else ev_path
            if ev_hp == hp:
                return ev
        if ev.fields.get("kind") == "uniform" and entry is None and hp is None:
            return ev
    return None
