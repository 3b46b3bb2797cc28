"""Trace span schema + a dependency-free validator.

:data:`TRACE_SPAN_SCHEMA` is the JSON-Schema document describing one
span line of a trace JSONL export (docs/TELEMETRY.md reproduces it, and
the ``trace_truncated`` marker that may close the text); the CI
``fabric-smoke`` job validates every emitted trace line against it via
``fancy-repro report --validate``.  The container image deliberately has
no ``jsonschema`` package, so :func:`validate_span` implements the
subset the schema actually uses (types, required keys, enums, closed
properties) in plain python, plus the two cross-field constraints JSON
Schema cannot express cheaply: ``end >= start`` and non-negative sim
time.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import Any

from .trace import CATEGORIES, TRUNCATION_EVENT

__all__ = ["TRACE_SPAN_SCHEMA", "validate_span", "validate_spans",
           "validate_jsonl"]

#: JSON Schema (draft-07 vocabulary) for one serialized span.
TRACE_SPAN_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "FANcY detection-trace span",
    "type": "object",
    "required": ["scope", "trace", "span", "parent", "name", "cat",
                 "start", "end", "attrs"],
    "additionalProperties": False,
    "properties": {
        "scope": {"type": "string"},
        "trace": {"type": "string", "minLength": 1},
        "span": {"type": "integer", "minimum": 1},
        "parent": {"type": ["integer", "null"], "minimum": 1},
        "name": {"type": "string", "minLength": 1},
        "cat": {"type": "string", "enum": list(CATEGORIES)},
        "start": {"type": "number", "minimum": 0},
        "end": {"type": ["number", "null"], "minimum": 0},
        "attrs": {"type": "object"},
    },
}

_REQUIRED: tuple[str, ...] = tuple(TRACE_SPAN_SCHEMA["required"])


def _is_number(value: Any) -> bool:
    # bool is an int subclass; a span stamped `True` is a bug, not a time.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_span(obj: Any) -> list[str]:
    """Problems with one decoded span object; empty list means valid."""
    if not isinstance(obj, dict):
        return [f"span must be an object, got {type(obj).__name__}"]
    problems = [f"missing required key {key!r}"
                for key in _REQUIRED if key not in obj]
    problems.extend(f"unknown key {key!r}" for key in obj
                    if key not in _REQUIRED)
    if problems:
        return problems

    if not isinstance(obj["scope"], str):
        problems.append("scope must be a string")
    if not isinstance(obj["trace"], str) or not obj["trace"]:
        problems.append("trace must be a non-empty string")
    if not isinstance(obj["span"], int) or isinstance(obj["span"], bool) \
            or obj["span"] < 1:
        problems.append("span must be an integer >= 1")
    parent = obj["parent"]
    if parent is not None and (not isinstance(parent, int)
                               or isinstance(parent, bool) or parent < 1):
        problems.append("parent must be null or an integer >= 1")
    if not isinstance(obj["name"], str) or not obj["name"]:
        problems.append("name must be a non-empty string")
    if obj["cat"] not in CATEGORIES:
        problems.append(f"cat {obj['cat']!r} not in {CATEGORIES}")
    if not _is_number(obj["start"]) or obj["start"] < 0:
        problems.append("start must be a number >= 0")
    end = obj["end"]
    if end is not None:
        if not _is_number(end):
            problems.append("end must be null or a number")
        elif _is_number(obj["start"]) and end < obj["start"]:
            problems.append(f"end {end} precedes start {obj['start']}")
    if not isinstance(obj["attrs"], dict):
        problems.append("attrs must be an object")
    if parent is not None and isinstance(obj.get("span"), int) \
            and not isinstance(parent, bool) and isinstance(parent, int) \
            and parent >= obj["span"]:
        problems.append(f"parent {parent} does not precede span {obj['span']}")
    return problems


def validate_spans(objs: Iterable[Any]) -> list[str]:
    """Validate many spans; problems are prefixed with their index."""
    problems: list[str] = []
    for i, obj in enumerate(objs):
        problems.extend(f"span[{i}]: {p}" for p in validate_span(obj))
    return problems


def validate_jsonl(text: str) -> list[str]:
    """Validate a trace JSONL document line by line (1-based line refs)."""
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc.msg})")
            continue
        if isinstance(obj, dict) and obj.get("event") == TRUNCATION_EVENT:
            continue  # a truncated collector's closing marker, not a span
        problems.extend(f"line {lineno}: {p}" for p in validate_span(obj))
    return problems
