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
import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, IO, Iterator, NamedTuple, Optional

__all__ = ["TimelineEvent", "StateTimeline", "DetectionRecord"]

#: Rows per sealed chunk (``obs.trace._CHUNK_SPANS``'s size).
_CHUNK = 1024


class TimelineEvent(NamedTuple):
    """One timeline entry: a timestamp, a source, an event type, fields.

    A tuple record: the timeline's views build one per stored row as
    they decode it.
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
    """Append-only, monotonically timestamped event log, stored as
    compressed pickled chunks of ``_CHUNK`` rows that every view decodes."""

    def __init__(self, max_events: int = 1_000_000):
        self.max_events = max_events
        self.suppressed = 0
        self._last_time = float("-inf")
        self._seq = 0
        self._suppression_counter: Any = None
        #: Sealed chunks, ``_CHUNK`` rows each, pickled and compressed.
        self._sealed: list[bytes] = []
        #: The filling chunk: ``(time, source, event, fields)`` rows.
        self._rows: list[tuple] = []

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
        self.add(time, source, event, fields)

    def add(self, time: float, source: str, event: str, fields: dict) -> None:
        """:meth:`record` with the fields as one dict, which the row keeps
        (the FSMs build one per transition, and nothing else)."""
        if time < self._last_time:
            raise ValueError(
                f"timeline event {event!r} at t={time} is earlier than the "
                f"previously recorded t={self._last_time} — timelines must be "
                "monotonically timestamped (one StateTimeline per simulation)"
            )
        self._last_time = time
        if self._seq >= self.max_events:
            self.suppressed += 1
            if self._suppression_counter is not None:
                self._suppression_counter.inc()
            return
        rows = self._rows
        rows.append((time, source, event, fields))
        self._seq += 1
        if len(rows) >= _CHUNK:
            self._seal()

    def _seal(self) -> None:
        """The filling chunk is full: it becomes one pickled ``bytes``,
        ``zlib``-compressed at level 1 as a sealed trace chunk is."""
        import pickle  # only a run that fills a chunk pays for the module

        self._sealed.append(zlib.compress(
            pickle.dumps(self._rows, pickle.HIGHEST_PROTOCOL), 1))
        self._rows = []

    def _chunks(self) -> Iterator[list[tuple]]:
        """The stored rows, decoded one chunk at a time."""
        if self._sealed:
            import pickle

            for blob in self._sealed:
                yield pickle.loads(zlib.decompress(blob))
        yield self._rows

    # -- queries --------------------------------------------------------------

    @property
    def events(self) -> list[TimelineEvent]:
        """Every recorded event, decoded (a fresh list per call)."""
        return list(self)

    def __len__(self) -> int:
        return self._seq

    def __iter__(self) -> Iterator[TimelineEvent]:
        rows = chain.from_iterable(self._chunks())
        for seq, (time, source, event, fields) in enumerate(rows):
            yield tuple.__new__(TimelineEvent, (time, seq, source, event, fields))

    def select(self, event: Optional[str] = None, source: Optional[str] = None,
               predicate: Optional[Callable[[TimelineEvent], bool]] = None
               ) -> list[TimelineEvent]:
        return [ev for ev in self
                if (event is None or ev.event == event)
                and (source is None or ev.source == source)
                and (predicate is None or predicate(ev))]

    def transitions(self, fsm: Optional[str] = None) -> list[TimelineEvent]:
        """All ``fsm_transition`` events, optionally of one FSM."""
        return self.select("fsm_transition", source=fsm or None)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rows in self._chunks():
            for _time, _source, event, _fields in rows:
                out[event] = out.get(event, 0) + 1
        return out

    # -- detection accounting ---------------------------------------------------

    def detection_records(self) -> list[DetectionRecord]:
        """Pair every injected failure with its first matching detection."""
        injections: list[TimelineEvent] = []
        detections: list[TimelineEvent] = []
        session_opens: list[TimelineEvent] = []
        kept = {"failure_injected": injections, "detection": detections,
                "session_open": session_opens}
        for ev in self:  # one decode for all three selections
            bucket = kept.get(ev.event)
            if bucket is not None:
                bucket.append(ev)
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
        lines = [ev.to_json() for ev in self]
        if self.suppressed:
            lines.append(json.dumps({
                "event": "timeline_truncated",
                "suppressed": self.suppressed,
                "max_events": self.max_events,
            }))
        if lines:
            lines.append("")  # the closing newline, without copying the text
        text = "\n".join(lines)
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
