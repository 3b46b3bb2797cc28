"""A closed span is text: the collector against the object collector it
replaced.

``TraceCollector`` encodes a chunk's closed spans into their JSONL lines
when the chunk fills (a span still open then, when it closes), seals a
chunk with no span left open as its compressed text, and keeps only open
spans and the filling chunk as ``Span`` objects; its ``spans``,
``span_dicts()``, ``traces()`` and ``counts()`` are decoded from the
chunks, and the health report reads per-episode summaries kept while
recording.  What a probe ships, :meth:`~repro.obs.trace.TraceCollector.
zlib_chunks` as ``bytes``, merges to the same text.
The reference below is the collector as it was before: every span a
``Span`` in a list until export, ``spans_to_jsonl`` at export, and the
health report's latency / unattributed figures grouped from its spans.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import zlib

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.fabric.sharding import merge_link_results, trace_text
from repro.obs import health, trace
from repro.obs.trace import (
    CATEGORIES,
    TRUNCATION_EVENT,
    Span,
    TraceCollector,
    _json_safe,
    spans_from_jsonl,
    spans_to_jsonl,
)


class _ObjectCollector:
    """The reference: every recorded span a ``Span`` until export."""

    def __init__(self, scope: str, max_spans: int) -> None:
        self.scope = scope
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.suppressed = 0
        self._episodes = 0
        self._next_span = 1
        self._root: Span | None = None
        self._open: dict[int, Span] = {}

    def begin_episode(self, time, cause, name=None, **attrs):
        self._episodes += 1
        trace_id = f"{self.scope or 'trace'}#{self._episodes:03d}"
        root = self._record(trace_id, None, name or cause, "cause", time,
                            None, {"cause": cause, **attrs})
        self._open[root.span] = root
        self._root = root
        return trace_id

    def ensure_episode(self, time, cause, **attrs):
        if self._root is not None:
            return self._root.trace
        return self.begin_episode(time, cause, **attrs)

    def end_episode(self, time):
        for span in self._open.values():
            span.end = time
        self._open.clear()
        self._root = None

    def emit(self, name, time, category="chaos", parent=None, **attrs):
        if self._root is None:
            return None
        return self._record(self._root.trace, parent if parent is not None
                            else self._root.span, name, category, time, time,
                            attrs).span

    def open_span(self, name, time, category="chaos", parent=None, **attrs):
        if self._root is None:
            return None
        span = self._record(self._root.trace, parent if parent is not None
                            else self._root.span, name, category, time, None,
                            attrs)
        self._open[span.span] = span
        return span.span

    def close_span(self, span_id, time):
        span = self._open.pop(span_id, None) if span_id is not None else None
        if span is not None:
            span.end = time

    def _record(self, trace_id, parent, name, cat, start, end, attrs):
        span = Span(trace_id, self._next_span, parent, name, cat, start, end,
                    {k: _json_safe(v) for k, v in attrs.items()})
        self._next_span += 1
        if len(self.spans) >= self.max_spans:
            self.suppressed += 1
        else:
            self.spans.append(span)
        return span

    def to_jsonl(self) -> str:
        text = spans_to_jsonl(s.to_dict(self.scope) for s in self.spans)
        if self.suppressed:
            text += json.dumps({
                "event": TRUNCATION_EVENT, "scope": self.scope,
                "suppressed": self.suppressed, "max_spans": self.max_spans,
            }, sort_keys=True) + "\n"
        return text

    def traces(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace, []).append(span)
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.cat] = out.get(span.cat, 0) + 1
        return out


def grouped_trace_stats(spans: list[Span]) -> tuple[list[float], int, int, int]:
    """The health report's trace figures as they were computed before:
    group the spans by trace, the first is the root, the first ``detect``
    is the flag."""
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace, []).append(span)
    latencies: list[float] = []
    unattributed = 0
    for members in grouped.values():
        root = members[0]
        first_flag = next((s for s in members if s.cat == "detect"), None)
        if root.cat == "cause" and root.attrs.get("cause") == "fault":
            if first_flag is not None:
                latencies.append(first_flag.start - root.start)
        elif first_flag is not None or root.cat == "cause":
            unattributed += 1
    return latencies, unattributed, len(grouped), len(spans)


def check_chunks(collector: TraceCollector, expected: str) -> None:
    """``jsonl_chunks()`` joins to ``expected``, keeps ``_CHUNK_SPANS``
    lines per chunk at most, and ends with the marker when there is one."""
    chunks = collector.jsonl_chunks()
    assert "".join(chunks) == expected
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert all(chunk.count("\n") <= trace._CHUNK_SPANS for chunk in chunks)
    markers = [i for i, chunk in enumerate(chunks) if TRUNCATION_EVENT in chunk]
    if collector.suppressed:
        assert markers == [len(chunks) - 1] and chunks[-1].count("\n") == 1
    else:
        assert markers == []


# -- the state machine -----------------------------------------------------

steps = st.sampled_from([0.0, 0.0, 0.25, 1.0])
names = st.sampled_from(["flag", "session", "report", "zoom"])
attr_values = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 2**70), st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.dictionaries(st.integers(0, 3), st.tuples(st.integers(0, 3)), max_size=2),
)
attr_dicts = st.dictionaries(st.sampled_from(["entry", "path", "fsm", "n"]),
                             attr_values, max_size=3)


class _TextMachine(RuleBasedStateMachine):
    """Drives the text collector and the reference with the same calls.

    Chunks of four spans, so short runs seal chunks, hold open spans
    across chunk boundaries and leave a chunk filling."""

    max_spans = 100_000
    chunk_spans = 4

    def __init__(self) -> None:
        super().__init__()
        self._saved_chunk = trace._CHUNK_SPANS
        trace._CHUNK_SPANS = self.chunk_spans
        self.text = TraceCollector(scope="s1->s2", max_spans=self.max_spans)
        self.ref = _ObjectCollector(scope="s1->s2", max_spans=self.max_spans)
        self.now = 0.0
        self.handed_out: list[int | None] = [None, 999]

    def teardown(self) -> None:
        trace._CHUNK_SPANS = self._saved_chunk

    def _both(self, method: str, *args, **kwargs):
        got = getattr(self.text, method)(*args, **kwargs)
        assert got == getattr(self.ref, method)(*args, **kwargs)
        return got

    @rule(dt=steps, cause=st.sampled_from(["fault", "detection"]),
          name=st.sampled_from([None, "entry_loss"]), attrs=attr_dicts)
    def begin_episode(self, dt, cause, name, attrs):
        self.now += dt
        self._both("begin_episode", self.now, cause, name, **attrs)

    @rule(dt=steps, attrs=attr_dicts)
    def ensure_episode(self, dt, attrs):
        self.now += dt
        self._both("ensure_episode", self.now, "divergence", **attrs)

    @rule(dt=steps, name=names, cat=st.sampled_from(CATEGORIES),
          parent=st.integers(0, 3), attrs=attr_dicts)
    def emit(self, dt, name, cat, parent, attrs):
        """``parent``: 0 parents to the root, otherwise a handed-out id."""
        self.now += dt
        parent_id = (self.handed_out[-parent]
                     if 0 < parent <= len(self.handed_out) else None)
        self.handed_out.append(
            self._both("emit", name, self.now, category=cat, parent=parent_id,
                       **attrs))

    @rule(dt=steps, name=names, cat=st.sampled_from(CATEGORIES),
          attrs=attr_dicts)
    def open_span(self, dt, name, cat, attrs):
        self.now += dt
        self.handed_out.append(
            self._both("open_span", name, self.now, category=cat, **attrs))

    @rule(dt=steps, which=st.integers(0, 8))
    def close_span(self, dt, which):
        self.now += dt
        self._both("close_span", self.handed_out[-1 - which % len(self.handed_out)],
                   self.now)

    @rule(dt=steps)
    def end_episode(self, dt):
        self.now += dt
        self._both("end_episode", self.now)
        assert not self.text.active

    @rule(dt=steps)
    def finalize(self, dt):
        self.now += dt
        self.text.finalize(self.now)
        self.ref.end_episode(self.now)
        assert self.text._open == {}

    @invariant()
    def text_equals_the_objects_encoded(self):
        text, ref = self.text, self.ref
        expected = ref.to_jsonl()
        check_chunks(text, expected)  # mid-run: open spans read "end": null
        assert text.to_jsonl() == expected
        check_chunks(text, expected)  # asking twice changes nothing
        assert text.span_dicts() == [s.to_dict(ref.scope) for s in ref.spans]
        assert text.spans == ref.spans
        assert text.traces() == ref.traces()
        assert text.counts() == ref.counts()
        assert len(text) == len(ref.spans)
        assert text.suppressed == ref.suppressed
        assert text.active == (ref._root is not None)
        assert health._trace_stats(text) == grouped_trace_stats(ref.spans)

    @invariant()
    def a_sealed_chunk_is_bytes(self):
        """A full chunk with no span left open is compressed text."""
        text = self.text
        recorded = min(text._next_span - 1, text.max_spans)
        for k, chunk in enumerate(text._chunks[:recorded // trace._CHUNK_SPANS]):
            assert isinstance(chunk, bytes) == (k not in text._waiting)

    @invariant()
    def the_packed_trace_is_the_text(self):
        """The packed chunks are ``jsonl_chunks()`` compressed, and a
        payload carrying them merges to the same text.  (The result
        cache's JSON round trip of such a payload is
        ``tests/runtime/test_cache.py``'s.)"""
        packed = self.text.zlib_chunks()
        assert [zlib.decompress(chunk).decode()
                for chunk in packed] == self.text.jsonl_chunks()
        payload = {"metrics": None, "trace_packed": packed}
        merged = trace_text(
            merge_link_results({"s1->s2": payload})["trace_parts"])
        assert merged == self.ref.to_jsonl()

    @invariant()
    def only_open_spans_and_the_filling_chunk_are_objects(self):
        chunks = self.text._chunks
        assert all(len(chunk) == trace._CHUNK_SPANS for chunk in chunks[:-1]
                   if isinstance(chunk, list))
        full = [chunk for chunk in chunks if isinstance(chunk, list)
                and len(chunk) == trace._CHUNK_SPANS]
        held = [slot for chunk in full for slot in chunk
                if isinstance(slot, Span)]
        assert all(span.end is None for span in held)
        assert {span.span for span in held} <= set(self.text._open)
        assert self.text._waiting == {
            k: sum(isinstance(slot, Span) for slot in chunk)
            for k, chunk in enumerate(chunks) if isinstance(chunk, list)
            and len(chunk) == trace._CHUNK_SPANS}


_SETTINGS = settings(max_examples=60, stateful_step_count=30, deadline=None)


class _CappedAt3(_TextMachine):
    max_spans = 3


class _CappedAt0(_TextMachine):
    max_spans = 0


TestTextCollector = _TextMachine.TestCase
TestTextCollector.settings = _SETTINGS
TestTextCollectorCapped3 = _CappedAt3.TestCase
TestTextCollectorCapped3.settings = _SETTINGS
TestTextCollectorCapped0 = _CappedAt0.TestCase
TestTextCollectorCapped0.settings = _SETTINGS


# -- health summaries against the grouped computation -----------------------


class TestHealthSummaries:
    """``_trace_stats`` reads the collector's summaries; on real runs they
    give what grouping the decoded spans gave."""

    @staticmethod
    def _checked(monkeypatch) -> list[tuple]:
        seen: list[tuple] = []

        def compare(collector, _stats=health._trace_stats):
            got = _stats(collector)
            assert got == grouped_trace_stats(collector.spans)
            seen.append(got)
            return got

        monkeypatch.setattr(health, "_trace_stats", compare)
        return seen

    def test_short_serve(self, monkeypatch):
        from repro.service.soak import ServeConfig, run_serve

        seen = self._checked(monkeypatch)
        short = dataclasses.replace(
            ServeConfig.quick(seed=3), duration_s=3600.0, health_every_s=1800.0,
            churn_every_s=1200.0, supervise_every_s=300.0, grey_start_s=600.0)
        assert run_serve(short).ok
        assert len(seen) == 2 * 8  # two grid points, eight links
        assert sum(n_spans for *_rest, n_spans in seen) > 5000

    def test_traced_ring_closed_loop(self, monkeypatch):
        from repro.experiments import fabric
        from repro.telemetry import Telemetry

        seen = self._checked(monkeypatch)
        config = dataclasses.replace(fabric.FabricExpConfig(), duration_s=3.0,
                                     trace=True)
        fabric.run_ring_case(config, telemetry=Telemetry(scope="ring"))
        assert any(latencies for latencies, *_rest in seen)

    def test_a_suppressed_detect_does_not_count(self):
        """The cap hits mid-episode: the flag after it is not a flag."""
        tc = TraceCollector(scope="a->b", max_spans=3)
        ref = _ObjectCollector(scope="a->b", max_spans=3)
        for collector in (tc, ref):
            collector.begin_episode(1.0, cause="fault")
            collector.emit("report", 1.1, category="control")
            collector.emit("report", 1.2, category="control")
            collector.emit("flag", 1.5, category="detect")  # suppressed
            collector.begin_episode(2.0, cause="detection")  # root suppressed
            collector.emit("flag", 2.0, category="detect")
            collector.end_episode(3.0)
        assert tc.suppressed == 3
        assert health._trace_stats(tc) == grouped_trace_stats(ref.spans) == (
            [], 0, 1, 3)


# -- the closed-loop page is the page its export renders ----------------------


def test_closed_loop_html_is_what_its_jsonl_renders(tmp_path):
    """``fabric --trace`` renders its page from the collectors' decoded
    views, so the page is the one a reader of its trace JSONL renders —
    the path the serve report and the sharded runs take: attrs in
    key-sorted order, values as JSON gives them back."""
    from repro.experiments import fabric
    from repro.obs.report import render_html
    from repro.telemetry import Telemetry

    config = dataclasses.replace(fabric.FabricExpConfig(), duration_s=3.0,
                                 trace=True)
    case = fabric.run_ring_case(config, telemetry=Telemetry(scope="ring"))
    fabric._write_trace_artifacts({"cases": {"ring": case}}, tmp_path)
    read_back = spans_from_jsonl(
        (tmp_path / "fabric-traces-ring.jsonl").read_text())
    assert len(read_back) > 100
    assert all(list(d["attrs"]) == sorted(d["attrs"]) for d in read_back)
    page = render_html([{"name": "ring", "health": case["obs"]["health"],
                         "spans": read_back}])
    assert (tmp_path / "fabric-report.html").read_text() == page


# -- the footprint fence ------------------------------------------------------


def test_a_long_open_episode_keeps_its_open_spans_and_one_chunk():
    """20 000 instants and 5 000 open/close pairs under one open root:
    what stays a ``Span`` is the open spans and the filling chunk,
    everything else is text.  The object collector held all 25 001 until
    export."""
    def spans_alive() -> int:
        gc.collect()
        return sum(type(obj) is Span for obj in gc.get_objects())

    before = spans_alive()
    tc = TraceCollector(scope="s2->s1")
    tc.begin_episode(0.0, cause="fault", link="s2->s1")
    t = 0.0
    for i in range(5_000):
        t += 1e-3
        session = tc.open_span("session", t, category="protocol", n=i)
        for _ in range(4):
            tc.emit("report", t, category="control", parent=session,
                    fsm="s2->s1/dedicated", path=(i, 1))
        tc.close_span(session, t)
    still_open = tc.open_span("zoom", t, category="zoom")
    alive = spans_alive() - before
    assert len(tc) == 25_002 and len(tc._open) == 2 and still_open
    assert alive <= len(tc._open) + trace._CHUNK_SPANS
