"""Span schema: the validator matches the published JSON-Schema document."""

from __future__ import annotations

import json

from repro.obs.schema import (
    TRACE_SPAN_SCHEMA,
    validate_jsonl,
    validate_span,
    validate_spans,
)
from repro.obs.trace import CATEGORIES, TraceCollector


def _valid_span(**overrides):
    span = {
        "scope": "s1->s2",
        "trace": "s1->s2#001",
        "span": 2,
        "parent": 1,
        "name": "flag",
        "cat": "detect",
        "start": 1.0,
        "end": 1.0,
        "attrs": {"entry": "victim"},
    }
    span.update(overrides)
    return span


class TestValidateSpan:
    def test_valid_span_passes(self):
        assert validate_span(_valid_span()) == []

    def test_root_span_passes(self):
        assert validate_span(
            _valid_span(span=1, parent=None, cat="cause")) == []

    def test_open_span_passes(self):
        assert validate_span(_valid_span(end=None)) == []

    def test_non_object_rejected(self):
        assert validate_span([1, 2]) != []

    def test_missing_key_rejected(self):
        span = _valid_span()
        del span["cat"]
        assert any("missing" in p for p in validate_span(span))

    def test_unknown_key_rejected(self):
        problems = validate_span(_valid_span(extra=1))
        assert any("unknown key" in p for p in problems)

    def test_unknown_category_rejected(self):
        assert validate_span(_valid_span(cat="nope")) != []

    def test_bool_is_not_a_timestamp(self):
        assert validate_span(_valid_span(start=True)) != []

    def test_end_before_start_rejected(self):
        problems = validate_span(_valid_span(start=2.0, end=1.0))
        assert any("precedes" in p for p in problems)

    def test_parent_must_precede_span(self):
        assert validate_span(_valid_span(span=2, parent=5)) != []

    def test_validate_spans_prefixes_index(self):
        problems = validate_spans([_valid_span(), _valid_span(cat="bad")])
        assert problems and all(p.startswith("span[1]") for p in problems)


class TestValidateJsonl:
    def test_collector_output_validates(self):
        tc = TraceCollector(scope="s1->s2")
        tc.begin_episode(1.0, cause="fault")
        tc.open_span("session", 1.1, category="protocol")
        tc.emit("flag", 1.5, category="detect")
        tc.finalize(2.0)
        assert validate_jsonl(tc.to_jsonl()) == []

    def test_invalid_json_line_reported_with_lineno(self):
        problems = validate_jsonl("not json\n")
        assert problems and problems[0].startswith("line 1")

    def test_blank_lines_skipped(self):
        assert validate_jsonl("\n\n") == []

    def test_truncated_collector_output_validates(self):
        tc = TraceCollector(scope="s1->s2", max_spans=2)
        tc.begin_episode(0.0, cause="fault")
        for i in range(4):
            tc.emit(f"e{i}", float(i), category="chaos")
        tc.finalize(4.0)
        assert tc.suppressed == 3
        assert validate_jsonl(tc.to_jsonl()) == []

    def test_other_event_lines_are_still_invalid_spans(self):
        line = json.dumps({"event": "something_else", "scope": ""})
        assert validate_jsonl(line + "\n")


def test_schema_document_matches_validator():
    assert set(TRACE_SPAN_SCHEMA["required"]) == set(_valid_span())
    assert set(TRACE_SPAN_SCHEMA["properties"]) == set(_valid_span())
    assert TRACE_SPAN_SCHEMA["properties"]["cat"]["enum"] == list(CATEGORIES)
    assert TRACE_SPAN_SCHEMA["additionalProperties"] is False
