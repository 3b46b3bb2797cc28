"""TraceCollector: episodes, spans, determinism, exports."""

from __future__ import annotations

import json

import pytest

from repro.obs import trace
from repro.obs.trace import (
    _CHUNK_SPANS,
    CATEGORIES,
    TRUNCATION_EVENT,
    Span,
    TraceCollector,
    chrome_trace,
    chrome_trace_from_dicts,
    spans_from_jsonl,
    spans_to_jsonl,
)


class TestEpisodeLifecycle:
    def test_inactive_by_default(self):
        tc = TraceCollector(scope="s1->s2")
        assert not tc.active
        assert tc.trace_id is None

    def test_trace_id_minting(self):
        tc = TraceCollector(scope="s1->s2")
        assert tc.begin_episode(1.0, cause="fault") == "s1->s2#001"
        tc.end_episode(2.0)
        assert tc.begin_episode(3.0, cause="fault") == "s1->s2#002"

    def test_unscoped_collector_mints_generic_ids(self):
        tc = TraceCollector()
        assert tc.begin_episode(0.0, cause="fault") == "trace#001"

    def test_emit_outside_episode_is_noop(self):
        tc = TraceCollector()
        assert tc.emit("flag", 1.0, category="detect") is None
        assert tc.open_span("zoom", 1.0, category="zoom") is None
        assert len(tc) == 0

    def test_ensure_episode_opens_once(self):
        tc = TraceCollector(scope="x")
        first = tc.ensure_episode(1.0, cause="detection")
        again = tc.ensure_episode(2.0, cause="detection")
        assert first == again == "x#001"
        assert len(tc) == 1  # only the root span

    def test_end_episode_closes_open_spans(self):
        tc = TraceCollector()
        tc.begin_episode(1.0, cause="fault")
        span = tc.open_span("session", 1.1, category="protocol")
        tc.end_episode(2.0)
        assert all(s.end == 2.0 for s in tc.spans)
        assert span is not None
        assert not tc.active

    def test_active_flips_exactly_with_the_episode(self):
        tc = TraceCollector(scope="x")
        assert tc.active is False
        tc.begin_episode(1.0, cause="fault")
        assert tc.active is True and tc.trace_id == "x#001"
        tc.emit("flag", 1.1, category="detect")
        span = tc.open_span("session", 1.2, category="protocol")
        tc.close_span(span, 1.3)
        assert tc.active is True
        # an overlapping episode becomes current; one end closes both
        tc.begin_episode(1.4, cause="fault")
        assert tc.active is True and tc.trace_id == "x#002"
        tc.end_episode(2.0)
        assert tc.active is False and tc.trace_id is None
        assert tc.emit("late", 2.1, category="detect") is None
        tc.ensure_episode(3.0, cause="detection")
        assert tc.active is True
        tc.finalize(4.0)
        assert tc.active is False
        tc.finalize(5.0)
        assert tc.active is False
        assert "active" in vars(tc)  # a plain attribute, not a property

    def test_finalize_is_idempotent_on_empty(self):
        tc = TraceCollector()
        tc.finalize(0.0)
        tc.finalize(1.0)
        assert len(tc) == 0


class TestSpanRecording:
    def test_spans_parent_to_root_by_default(self):
        tc = TraceCollector()
        tc.begin_episode(1.0, cause="fault")
        root = tc.spans[0]
        span = tc.emit("flag", 1.5, category="detect")
        assert tc.spans[-1].parent == root.span
        assert span == tc.spans[-1].span

    def test_explicit_parenting(self):
        tc = TraceCollector()
        tc.begin_episode(1.0, cause="fault")
        session = tc.open_span("session", 1.1, category="protocol")
        tc.emit("fancy_start", 1.1, category="control", parent=session)
        assert tc.spans[-1].parent == session

    def test_close_span_tolerates_none_and_unknown(self):
        tc = TraceCollector()
        tc.close_span(None, 1.0)
        tc.begin_episode(1.0, cause="fault")
        tc.close_span(999, 2.0)  # never opened

    def test_monotone_timestamps_enforced(self):
        tc = TraceCollector()
        tc.begin_episode(5.0, cause="fault")
        with pytest.raises(ValueError, match="monotone"):
            tc.emit("flag", 4.0, category="detect")

    def test_max_spans_bound(self):
        tc = TraceCollector(max_spans=3)
        tc.begin_episode(0.0, cause="fault")
        for i in range(5):
            tc.emit(f"e{i}", float(i), category="chaos")
        assert len(tc.spans) == 3
        assert tc.suppressed == 3

    def test_attrs_are_json_safe(self):
        tc = TraceCollector()
        tc.begin_episode(0.0, cause="fault", path=(1, 2), extra={"k": (3,)})
        attrs = tc.spans[0].attrs
        json.dumps(attrs)  # must not raise
        assert attrs["path"] == [1, 2]
        assert attrs["extra"] == {"k": [3]}

    def test_overlapping_episodes_each_get_a_trace(self):
        tc = TraceCollector(scope="l")
        tc.begin_episode(1.0, cause="fault")
        tc.begin_episode(2.0, cause="fault")
        tc.emit("flag", 3.0, category="detect")
        assert tc.spans[-1].trace == "l#002"
        assert set(tc.traces()) == {"l#001", "l#002"}


class TestQueries:
    def test_counts_by_category(self):
        tc = TraceCollector()
        tc.begin_episode(0.0, cause="fault")
        tc.emit("a", 1.0, category="detect")
        tc.emit("b", 1.0, category="detect")
        assert tc.counts() == {"cause": 1, "detect": 2}

    def test_duration_of_open_span_is_zero(self):
        span = Span(trace="t", span=1, parent=None, name="x", cat="cause",
                    start=2.0)
        assert span.duration == 0.0


class TestSerialization:
    @pytest.mark.parametrize("obj", [
        {"b": 1, "a": [1.5, None, True, "x\u00e9\n\"q"], "c": {"z": 1e300, "y": -0.0}},
        {"start": 0.1 + 0.2, "end": None, "attrs": {"inf": float("inf"),
                                                    "nan": float("nan")}},
        {"attrs": {"hash_path": [3, 1], "nested": {"k": [{"deep": "\u2603"}]}}},
    ])
    def test_span_lines_are_the_sorted_encoders_text(self, obj):
        """The prebuilt C encoder writes what ``json.JSONEncoder(
        sort_keys=True).encode`` does, byte for byte."""
        assert trace._encode(obj) == json.JSONEncoder(sort_keys=True).encode(obj)

    def _collector(self):
        tc = TraceCollector(scope="s1->s2")
        tc.begin_episode(1.0, cause="fault", link="s1->s2")
        tc.open_span("session", 1.1, category="protocol")
        tc.emit("flag", 1.5, category="detect")
        tc.finalize(2.0)
        return tc

    def test_jsonl_is_key_sorted_and_stable(self):
        tc = self._collector()
        text = tc.to_jsonl()
        assert text == tc.to_jsonl()
        for line in text.strip().splitlines():
            obj = json.loads(line)
            assert list(obj) == sorted(obj)
            assert obj["scope"] == "s1->s2"

    def test_identical_runs_serialize_byte_identically(self):
        assert self._collector().to_jsonl() == self._collector().to_jsonl()

    def test_spans_to_jsonl_empty(self):
        assert spans_to_jsonl([]) == ""

    def test_chrome_trace_shape(self):
        doc = chrome_trace([self._collector()])
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"  # thread_name metadata first
        assert events[0]["args"]["name"] == "s1->s2 s1->s2#001"
        kinds = {e["ph"] for e in events[1:]}
        assert kinds == {"X", "i"}  # durative root+session, instant flag
        x = next(e for e in events if e["ph"] == "X")
        assert x["ts"] == pytest.approx(1.0 * 1e6)

    def test_chrome_trace_from_dicts_matches_collector_path(self):
        tc = self._collector()
        assert chrome_trace([tc]) == chrome_trace_from_dicts(tc.span_dicts())

    def test_to_jsonl_is_the_dict_path_encoded_span_by_span(self):
        tc = self._collector()
        assert tc.to_jsonl() == spans_to_jsonl(tc.span_dicts())
        assert spans_from_jsonl(tc.to_jsonl()) == tc.span_dicts()
        assert TraceCollector(scope="idle").to_jsonl() == ""


class TestSlottedSpan:
    """``Span`` carries no ``__dict__`` (the ``spans`` view of a busy link
    decodes tens of thousands); its exports are what they were, recorded
    before the class was slotted."""

    def _collector(self):
        return TestSerialization()._collector()

    def test_no_instance_dict_and_end_stays_writable(self):
        span = Span("t", 1, None, "x", "cause", 2.0)
        assert not hasattr(span, "__dict__")
        assert span.end is None and span.attrs == {}
        span.end = 3.0
        assert span.duration == 1.0
        with pytest.raises(AttributeError):
            span.colour = "red"

    def test_to_dict_pinned(self):
        assert self._collector().spans[1].to_dict("s1->s2") == {
            "scope": "s1->s2", "trace": "s1->s2#001", "span": 2, "parent": 1,
            "name": "session", "cat": "protocol", "start": 1.1, "end": 2.0,
            "attrs": {}}

    def test_jsonl_pinned(self):
        assert self._collector().to_jsonl() == (
            '{"attrs": {"cause": "fault", "link": "s1->s2"}, "cat": "cause", '
            '"end": 2.0, "name": "fault", "parent": null, "scope": "s1->s2", '
            '"span": 1, "start": 1.0, "trace": "s1->s2#001"}\n'
            '{"attrs": {}, "cat": "protocol", "end": 2.0, "name": "session", '
            '"parent": 1, "scope": "s1->s2", "span": 2, "start": 1.1, '
            '"trace": "s1->s2#001"}\n'
            '{"attrs": {}, "cat": "detect", "end": 1.5, "name": "flag", '
            '"parent": 1, "scope": "s1->s2", "span": 3, "start": 1.5, '
            '"trace": "s1->s2#001"}\n')

    def test_chrome_trace_pinned(self):
        assert chrome_trace([self._collector()]) == {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"args": {"name": "s1->s2 s1->s2#001"}, "name": "thread_name",
                 "ph": "M", "pid": 1, "tid": 1},
                {"args": {"cause": "fault", "link": "s1->s2", "span": 1},
                 "cat": "cause", "dur": 1000000.0, "name": "fault", "ph": "X",
                 "pid": 1, "tid": 1, "ts": 1000000.0},
                {"args": {"parent": 1, "span": 2}, "cat": "protocol",
                 "dur": 899999.9999999999, "name": "session", "ph": "X",
                 "pid": 1, "tid": 1, "ts": 1100000.0},
                {"args": {"parent": 1, "span": 3}, "cat": "detect",
                 "name": "flag", "ph": "i", "pid": 1, "s": "t", "tid": 1,
                 "ts": 1500000.0},
            ]}


class TestTruncationMarker:
    """A collector that hit ``max_spans`` says so in the text — the only
    thing that leaves a probe (docs/TELEMETRY.md: never silently
    dropped)."""

    def _truncated(self):
        tc = TraceCollector(scope="s1->s2", max_spans=3)
        tc.begin_episode(0.0, cause="fault")
        for i in range(5):
            tc.emit(f"e{i}", float(i), category="chaos")
        tc.finalize(5.0)
        return tc

    def test_marker_closes_the_text(self):
        tc = self._truncated()
        lines = tc.to_jsonl().splitlines()
        assert len(lines) == 4 and tc.to_jsonl().endswith("\n")
        assert json.loads(lines[-1]) == {
            "event": "trace_truncated", "scope": "s1->s2", "suppressed": 3,
            "max_spans": 3}
        assert "".join(line + "\n" for line in lines[:3]) == spans_to_jsonl(
            tc.span_dicts())

    def test_marker_alone_when_nothing_fit(self):
        tc = TraceCollector(scope="x", max_spans=0)
        tc.begin_episode(0.0, cause="fault")
        assert tc.to_jsonl().count("\n") == 1
        assert spans_from_jsonl(tc.to_jsonl()) == []

    def test_reparse_skips_the_marker(self):
        tc = self._truncated()
        assert spans_from_jsonl(tc.to_jsonl()) == tc.span_dicts()


class TestJsonlChunks:
    """The chunks a probe ships are :meth:`to_jsonl`'s bytes in pieces."""

    def _collector(self, n_spans, max_spans=100_000):
        tc = TraceCollector(scope="s1->s2", max_spans=max_spans)
        if n_spans:
            tc.begin_episode(0.0, cause="fault")
            for i in range(n_spans - 1):
                tc.emit("report", i * 1e-3, category="control", path=(i, 1))
            tc.finalize(float(n_spans))
        return tc

    @pytest.mark.parametrize("n_spans", [0, 3, 2 * _CHUNK_SPANS + 1],
                             ids=["empty", "one-chunk", "busy"])
    def test_join_is_the_one_encoding(self, n_spans):
        tc = self._collector(n_spans)
        chunks = tc.jsonl_chunks()
        assert "".join(chunks) == tc.to_jsonl() == spans_to_jsonl(
            tc.span_dicts())
        assert all(chunk.endswith("\n") for chunk in chunks)
        assert all(chunk.count("\n") <= _CHUNK_SPANS for chunk in chunks)
        assert not any(TRUNCATION_EVENT in chunk for chunk in chunks)

    def test_capped_collector_closes_with_the_marker_chunk(self):
        tc = self._collector(_CHUNK_SPANS + 10, max_spans=_CHUNK_SPANS + 1)
        chunks = tc.jsonl_chunks()
        assert all(c.endswith("\n") for c in chunks)
        assert all(c.count("\n") <= _CHUNK_SPANS for c in chunks)
        assert not any(TRUNCATION_EVENT in c for c in chunks[:-1])
        assert json.loads(chunks[-1]) == {
            "event": "trace_truncated", "scope": "s1->s2", "suppressed": 9,
            "max_spans": _CHUNK_SPANS + 1}
        assert "".join(chunks) == tc.to_jsonl() == (
            spans_to_jsonl(tc.span_dicts()) + chunks[-1])


def test_category_vocabulary_is_closed():
    assert "cause" in CATEGORIES and "reroute" in CATEGORIES
    assert len(set(CATEGORIES)) == len(CATEGORIES)
