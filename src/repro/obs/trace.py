"""Causal detection traces: spans, episodes, deterministic exports.

The observability gap this closes (docs/TELEMETRY.md): metrics say *how
many* detections happened and timelines say *what each FSM did*, but
neither answers "why did link ``s3->s5`` flag entry 17 at t=2.31 s?".
A :class:`TraceCollector` strings the whole causal chain of one
*detection episode* — fault activation → counter divergence → zoom
descent → flag → reroute → recovery — into one trace, the span shape
NetSeer-style pipelines use to attribute per-flow events to data-plane
state changes.

Design constraints, in order:

* **Determinism.**  Spans are stamped with *simulated* time only, span
  ids are sequential per collector, and trace ids derive from the
  collector's scope plus an episode counter — two runs with the same
  seed serialize byte-identically (the fabric experiments assert this).
* **Free when healthy.**  A collector only records while an episode is
  open (:attr:`TraceCollector.active`); instrumentation points emit
  through ``if traces is not None and traces.active`` guards, so steady
  state pays one attribute check and no allocation.  Episodes open at
  fault-injection time (the chaos/experiment harnesses are the root
  cause) or lazily on an unattributed detection
  (:meth:`TraceCollector.ensure_episode` — exactly the false-positive
  sentinel case the health report surfaces).
* **Monotone.**  Like :class:`~repro.telemetry.timeline.StateTimeline`,
  a collector rejects backwards timestamps — one collector per
  simulation, a loud canary for cross-wired instrumentation.
* **A closed span is text, and a sealed chunk is compressed.**  A
  collector is an append-only JSONL stream in chunks of ``_CHUNK_SPANS``
  spans: when a chunk fills, its closed spans become their lines, and a
  span still open then becomes its line when it closes; a chunk with no
  span left open is sealed as its ``zlib``-compressed text.  So only
  open spans and the filling chunk stay :class:`Span` objects, no probe
  holds its trace as text, and a run that records less than a chunk
  encodes nothing until it exports.  Everything else a collector
  answers — its spans, dicts, traces and counts — is decoded from those
  chunks one at a time; the health report reads
  :meth:`TraceCollector.trace_summaries`, kept as spans are recorded.

Exports: :meth:`TraceCollector.to_jsonl` (one schema-checked object per
line, see :mod:`repro.obs.schema`; :meth:`TraceCollector.jsonl_chunks`
is the same text in pieces) and :func:`chrome_trace` /
:func:`chrome_trace_from_dicts` (``chrome://tracing`` / Perfetto's
legacy JSON array format: one process, one thread per trace).
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii  # type: ignore[attr-defined]
from typing import Any

__all__ = [
    "CATEGORIES",
    "JsonlSpans",
    "Span",
    "TRUNCATION_EVENT",
    "TraceCollector",
    "chrome_trace",
    "chrome_trace_from_dicts",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "unseal",
]

#: The closed span-category vocabulary (schema-enforced, colour-coded in
#: the HTML report):
#:
#: ``cause``     episode root — a fault activation or, for unattributed
#:               episodes, the detection that opened them
#: ``fsm``       an FSM state transition (instant)
#: ``protocol``  one counting session on a sender FSM (durative)
#: ``control``   one control message put on the wire (instant)
#: ``counters``  upstream/downstream counter divergence (instant)
#: ``zoom``      one hash-tree exploration holding a frontier node
#:               (durative: activate → retreat/descend)
#: ``detect``    a failure flag raised by the monitor (instant)
#: ``reroute``   repair-path install (instant) and recovery — install →
#:               first packet steered (durative)
#: ``chaos``     fault-model side events, e.g. switch restarts (instant)
#: ``ladder``    a degradation-ladder rung change (instant) — the
#:               degraded-mode supervision layer (docs/ROBUSTNESS.md)
CATEGORIES = (
    "cause", "fsm", "protocol", "control", "counters", "zoom", "detect",
    "reroute", "chaos", "ladder",
)


#: ``event`` of the one non-span line a trace JSONL may close with.
TRUNCATION_EVENT = "trace_truncated"

#: What JSON takes as is (and ``_json_safe`` returns unchanged).
_SCALARS = (bool, int, float, str)

#: Spans per :meth:`TraceCollector.jsonl_chunks` chunk (≈ 250 kB of text).
_CHUNK_SPANS = 1024

#: One prebuilt key-sorted encoder for every span line: the text of
#: ``json.JSONEncoder(sort_keys=True).encode``, which builds this encoder
#: (and a closure) on every call.  No circular-reference markers: a span's
#: attributes went through ``_json_safe``.
_ENCODER = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                          None, ": ", ", ", True, False, True)


def _encode(obj: dict[str, Any]) -> str:
    """One span line (``spans_to_jsonl``'s)."""
    return "".join(_ENCODER(obj, 0))


def _json_safe(value: Any) -> Any:
    """Coerce an attribute value to a JSON-serializable equivalent.

    Tuples (hash paths) become lists, mappings recurse with string keys,
    and anything else falls back to ``repr`` — entry keys are arbitrary
    hashables, and the serialization boundary must never raise.
    """
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


@dataclass(slots=True)
class Span:
    """One node of a detection trace.

    ``end is None`` marks a span still open; instant events carry
    ``end == start``.  ``parent`` is ``None`` only for episode roots.
    A collector holds one per open span and per span of its filling
    chunk, and decodes the rest on demand; only ``end`` is written after
    construction.
    """

    trace: str
    span: int
    parent: int | None
    name: str
    cat: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self, scope: str = "") -> dict[str, Any]:
        return {
            "scope": scope,
            "trace": self.trace,
            "span": self.span,
            "parent": self.parent,
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class TraceCollector:
    """Deterministic span collector for one telemetry fork.

    Storage is text, in creation order and in chunks of ``_CHUNK_SPANS``
    spans.  The chunk being filled holds its spans as :class:`Span`
    objects; when it takes its last span, each closed one becomes its
    JSONL line, and a span still open then becomes its line at
    :meth:`close_span` / :meth:`end_episode` / :meth:`finalize`.  A full
    chunk is sealed once every span in it has closed: its text,
    ``zlib``-compressed (level 1), as one ``bytes``.  So only open spans
    and one chunk are objects, and :meth:`zlib_chunks` hands over the
    sealed chunks as the collector holds them.  :meth:`jsonl_chunks`,
    :attr:`spans`, :meth:`span_dicts`, :meth:`traces` and :meth:`counts`
    decode them one at a time (tests, exports); the health report reads
    :meth:`trace_summaries` instead.

    Args:
        scope: identity prefix of minted trace ids — the fabric
            deployment forks one collector per monitored link with
            ``scope="A->B"``, so ``"s1->s2#001"`` names the first
            detection episode on that link.
        max_spans: hard bound, fixed at construction; excess spans are
            counted in :attr:`suppressed` instead of recorded, and
            :meth:`to_jsonl` says so in a closing ``trace_truncated`` line
            (mirrors the timeline's bounded suppression).
    """

    def __init__(self, scope: str = "", max_spans: int = 100_000) -> None:
        self.scope = scope
        self.max_spans = max_spans
        self.suppressed = 0
        self._episodes = 0
        self._next_span = 1
        self._root: Span | None = None
        #: True while a detection episode is open (spans are recorded);
        #: written wherever ``_root`` is, read by every guard site.
        self.active = False
        self._open: dict[int, Span] = {}
        self._last_time = float("-inf")
        #: Recorded spans, ``_CHUNK_SPANS`` per chunk: a sealed chunk's
        #: compressed text (``bytes``); while it fills, its ``Span``s
        #: (``list``); once full with a span still open, its lines with
        #: each open ``Span`` in its own slot.
        self._chunks: list[Any] = []
        #: full chunk index -> open spans in it (absent when none).
        self._waiting: dict[int, int] = {}
        #: trace id -> [root cause, root start, first ``detect`` start].
        self._summaries: dict[str, list[Any]] = {}

    # -- episode lifecycle -------------------------------------------------

    @property
    def trace_id(self) -> str | None:
        return self._root.trace if self._root is not None else None

    def begin_episode(self, time: float, cause: str, name: str | None = None,
                      **attrs: Any) -> str:
        """Open a new detection episode; returns its minted trace id.

        The episode's root span carries ``cause`` (``"fault"`` when a
        chaos/experiment harness opened it at injection time,
        ``"detection"``/``"divergence"`` for episodes auto-opened by
        :meth:`ensure_episode` — the unattributed/false-positive case).
        An already-open episode stays recorded; the new one becomes
        current, so overlapping faults each get their own trace.
        """
        self._episodes += 1
        trace = f"{self.scope or 'trace'}#{self._episodes:03d}"
        span_attrs = {"cause": cause}
        span_attrs.update(attrs)
        span_id = self._record(trace, None, name or cause, "cause", time,
                               end=None, attrs=span_attrs)
        if span_id <= self.max_spans:
            self._summaries[trace] = [span_attrs["cause"], time, None]
        self._root = self._open[span_id]
        self.active = True
        return trace

    def ensure_episode(self, time: float, cause: str, **attrs: Any) -> str:
        """Current trace id, opening an episode when none is active."""
        if self._root is not None:
            return self._root.trace
        return self.begin_episode(time, cause, **attrs)

    def end_episode(self, time: float) -> None:
        """Close the current episode and every span still open under it."""
        self._check_monotone(time)
        waiting = self._waiting
        for span_id, span in self._open.items():
            span.end = time
            if (span_id - 1) // _CHUNK_SPANS in waiting:
                self._settle(span)
        self._open.clear()
        self._root = None
        self.active = False

    def finalize(self, time: float) -> None:
        """Close all open spans at ``time`` (end-of-run flush)."""
        self.end_episode(time)

    # -- span emission -----------------------------------------------------

    def emit(self, name: str, time: float, category: str = "chaos",
             parent: int | None = None, **attrs: Any) -> int | None:
        """Record an instant span; no-op (returns None) when inactive."""
        root = self._root
        if root is None:
            return None
        return self._record(root.trace, parent if parent is not None
                            else root.span, name, category, time, end=time,
                            attrs=attrs)

    def open_span(self, name: str, time: float, category: str = "chaos",
                  parent: int | None = None, **attrs: Any) -> int | None:
        """Open a durative span; close with :meth:`close_span`."""
        root = self._root
        if root is None:
            return None
        return self._record(root.trace, parent if parent is not None
                            else root.span, name, category, time, end=None,
                            attrs=attrs)

    def close_span(self, span_id: int | None, time: float) -> None:
        """Close an open span; tolerates ``None`` and unknown ids.

        (A span opened while no episode was active returns ``None``;
        the matching close must be a silent no-op so call sites don't
        need to mirror the episode state.)
        """
        if span_id is None:
            return
        span = self._open.pop(span_id, None)
        if span is None:
            return
        self._check_monotone(time)
        span.end = time
        if (span_id - 1) // _CHUNK_SPANS in self._waiting:
            self._settle(span)

    # -- internals ---------------------------------------------------------

    def _check_monotone(self, time: float) -> None:
        if time < self._last_time:
            raise ValueError(
                f"trace span at t={time} is earlier than the previously "
                f"recorded t={self._last_time} — collectors are monotone "
                "(one TraceCollector per simulation)"
            )
        self._last_time = time

    def _record(self, trace: str, parent: int | None, name: str, cat: str,
                start: float, end: float | None,
                attrs: dict[str, Any]) -> int:
        """Mint the next span id and, unless ``max_spans`` suppresses the
        span, append its ``Span`` to the filling chunk (an open one,
        ``end is None``, is also kept in ``_open``)."""
        self._check_monotone(start)
        span_id = self._next_span
        self._next_span = span_id + 1
        span = Span(trace, span_id, parent, name, cat, start, end, attrs)
        if end is None:
            self._open[span_id] = span
        if span_id > self.max_spans:
            self.suppressed += 1
            return span_id
        # ``attrs`` is the caller's own ``**kwargs`` dict: scalars stay
        # where they are, only containers and objects are coerced.
        for key, value in attrs.items():
            if value is not None and not isinstance(value, _SCALARS):
                attrs[key] = _json_safe(value)
        if cat == "detect":
            summary = self._summaries.get(trace)
            if summary is not None and summary[2] is None:
                summary[2] = start
        k, i = divmod(span_id - 1, _CHUNK_SPANS)
        if i == 0:
            self._chunks.append([span])
        else:
            self._chunks[k].append(span)
        if i == _CHUNK_SPANS - 1:
            self._fill(k)
        return span_id

    def _fill(self, k: int) -> None:
        """Chunk ``k`` took its last span: each closed span becomes its
        line, and with none left open the chunk is sealed."""
        chunk = self._chunks[k]
        scope = self.scope
        encoder = _ENCODER
        still_open = 0
        for i, span in enumerate(chunk):
            if span.end is None:
                still_open += 1
            else:  # ``_encode(span.to_dict())``, inline: 1 024 calls a chunk
                chunk[i] = "".join(encoder({
                    "scope": scope, "trace": span.trace, "span": span.span,
                    "parent": span.parent, "name": span.name, "cat": span.cat,
                    "start": span.start, "end": span.end,
                    "attrs": span.attrs}, 0))
        if still_open:
            self._waiting[k] = still_open
        else:
            self._chunks[k] = _seal(chunk)

    def _settle(self, span: Span) -> None:
        """A span of a full chunk closed: its line replaces it in its
        slot, and the chunk's last one seals the chunk."""
        k, i = divmod(span.span - 1, _CHUNK_SPANS)
        chunk = self._chunks[k]
        chunk[i] = _encode(span.to_dict(self.scope))
        left = self._waiting.pop(k) - 1
        if left:
            self._waiting[k] = left
        else:
            self._chunks[k] = _seal(chunk)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        """Spans recorded (suppressed ones not counted)."""
        return self._next_span - 1 - self.suppressed

    def trace_summaries(self) -> dict[str, tuple[Any, ...]]:
        """Per recorded episode, in creation order: trace id ->
        ``(root cause, root start, first recorded detect start or None)``
        — what the health report needs, without decoding the text."""
        return {trace: tuple(summary)
                for trace, summary in self._summaries.items()}

    @property
    def spans(self) -> list[Span]:
        """Recorded spans, decoded (an open span reads ``end is None``)."""
        return [Span(d["trace"], d["span"], d["parent"], d["name"], d["cat"],
                     d["start"], d["end"], d["attrs"])
                for d in self.span_dicts()]

    def traces(self) -> dict[str, list[Span]]:
        """Spans grouped by trace id, both in insertion order."""
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace, []).append(span)
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.span_dicts():
            out[d["cat"]] = out.get(d["cat"], 0) + 1
        return out

    # -- serialization -----------------------------------------------------

    def span_dicts(self) -> list[dict[str, Any]]:
        """Schema-shaped dicts (what the report and Chrome views read)."""
        return [d for chunk in self._text_chunks()
                for d in spans_from_jsonl(chunk)]

    def zlib_chunks(self) -> list[bytes]:
        """:meth:`jsonl_chunks`, each ``zlib``-compressed — what a probe
        ships (``repro.fabric.sharding.probe_payload``): sealed chunks as
        the collector holds them, a chunk it still holds as a list (and
        the truncation marker) encoded and compressed for the call."""
        return [chunk if isinstance(chunk, bytes)
                else zlib.compress(chunk.encode(), 1)
                for chunk in self._stored_chunks()]

    def jsonl_chunks(self) -> list[str]:
        """:meth:`to_jsonl`'s text as newline-terminated chunks.

        Each chunk holds at most ``_CHUNK_SPANS`` lines; a sealed chunk
        is decompressed, and a chunk the collector still holds as a list
        (it is filling, or a span in it is open and encodes with
        ``"end": null``) is encoded and joined for the call.
        The ``trace_truncated`` line (cf. ``timeline_truncated``), when
        ``max_spans`` was hit, is the last chunk.
        """
        return list(self._text_chunks())

    def to_jsonl(self) -> str:
        """``spans_to_jsonl(self.span_dicts())``, closed by the truncation
        marker when there is one."""
        return "".join(self._text_chunks())

    def _text_chunks(self) -> Iterator[str]:
        """:meth:`jsonl_chunks`, decoded one chunk at a time."""
        for chunk in self._stored_chunks():
            yield unseal(chunk) if isinstance(chunk, bytes) else chunk

    def _stored_chunks(self) -> Iterator[bytes | str]:
        """The stored chunks with every list chunk encoded: sealed ones
        as ``bytes``, the rest (and the truncation marker) as text."""
        scope = self.scope
        for chunk in self._chunks:
            yield chunk if isinstance(chunk, bytes) else _join([
                slot if isinstance(slot, str) else _encode(slot.to_dict(scope))
                for slot in chunk])
        if self.suppressed:
            yield json.dumps({
                "event": TRUNCATION_EVENT, "scope": scope,
                "suppressed": self.suppressed, "max_spans": self.max_spans,
            }, sort_keys=True) + "\n"


def _join(lines: list[str]) -> str:
    """JSONL text of ``lines``, each newline-terminated."""
    if not lines:
        return ""
    lines.append("")  # the closing newline, without copying the text
    return "\n".join(lines)


def _seal(lines: list[str]) -> bytes:
    """A full chunk's lines as its compressed JSONL text (level 1: the
    fastest level already shrinks a trace chunk ≈ 9×)."""
    return zlib.compress(_join(lines).encode(), 1)


def unseal(chunk: bytes) -> str:
    """The JSONL text of a sealed chunk (of :meth:`TraceCollector.
    zlib_chunks`)."""
    return zlib.decompress(chunk).decode()


def spans_to_jsonl(span_dicts: Iterable[dict[str, Any]]) -> str:
    """Serialize span dicts as JSON Lines, key-sorted for byte stability."""
    return _join([_encode(d) for d in span_dicts])


def spans_from_jsonl(text: str) -> list[dict[str, Any]]:
    """Span dicts of a trace JSONL text (a truncation marker is no span)."""
    objs = (json.loads(line) for line in text.splitlines() if line.strip())
    return [obj for obj in objs if "event" not in obj]


class JsonlSpans:
    """Span dicts of a trace JSONL that arrives in pieces, decoded anew
    on every iteration: ``pieces()`` returns newline-terminated text
    pieces, and only one piece's spans are dicts at a time.  What the
    HTML report walks twice instead of a list of every span."""

    def __init__(self, pieces: Callable[[], Iterable[str]]) -> None:
        self._pieces = pieces

    def __iter__(self) -> Iterator[dict[str, Any]]:
        for piece in self._pieces():
            yield from spans_from_jsonl(piece)


def chrome_trace(collectors: Sequence[TraceCollector]) -> dict[str, Any]:
    """Chrome-trace (Perfetto-loadable) view of one or more collectors."""
    dicts: list[dict[str, Any]] = []
    for collector in collectors:
        dicts.extend(collector.span_dicts())
    return chrome_trace_from_dicts(dicts)


def chrome_trace_from_dicts(span_dicts: Iterable[dict[str, Any]]
                            ) -> dict[str, Any]:
    """Chrome-trace JSON object from schema-shaped span dicts.

    Each trace id becomes one "thread" (tid assigned in encounter order,
    named via metadata events); durative spans map to complete ``"X"``
    events, instants to ``"i"`` events.  Timestamps are microseconds, as
    the format requires.
    """
    events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}
    open_horizon = 0.0
    for d in span_dicts:
        end = d["end"] if d["end"] is not None else d["start"]
        open_horizon = max(open_horizon, end)
    for d in span_dicts:
        trace = d["trace"]
        tid = tids.get(trace)
        if tid is None:
            tid = len(tids) + 1
            tids[trace] = tid
            label = f"{d['scope']} {trace}" if d["scope"] else trace
            events.append({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "args": {"name": label},
            })
        start_us = d["start"] * 1e6
        end = d["end"] if d["end"] is not None else open_horizon
        args = dict(d["attrs"])
        args["span"] = d["span"]
        if d["parent"] is not None:
            args["parent"] = d["parent"]
        if end > d["start"]:
            events.append({
                "ph": "X", "name": d["name"], "cat": d["cat"], "pid": 1,
                "tid": tid, "ts": start_us, "dur": (end - d["start"]) * 1e6,
                "args": args,
            })
        else:
            events.append({
                "ph": "i", "name": d["name"], "cat": d["cat"], "pid": 1,
                "tid": tid, "ts": start_us, "s": "t", "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
