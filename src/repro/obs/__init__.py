"""``repro.obs`` — causal detection tracing + operator surface.

Three layers (docs/TELEMETRY.md):

* :mod:`repro.obs.trace` — deterministic span collection per detection
  episode, JSONL + Chrome-trace exports (:class:`TraceCollector` rides
  every :class:`~repro.telemetry.Telemetry` session);
* :mod:`repro.obs.health` — :class:`FabricHealthReport` scoring each
  monitored link healthy/degraded/flagged/rerouted from monitor state
  and traces;
* :mod:`repro.obs.report` — the self-contained offline HTML dashboard
  behind ``fancy-repro report --html``.

Import discipline: this module eagerly exposes only the trace/schema
layer, which depends on nothing inside :mod:`repro` —
``repro.telemetry`` imports it, so pulling :mod:`repro.obs.health`
(which imports the fabric subsystem, which imports telemetry) in here
would be a cycle.  Health/report symbols resolve lazily.
"""

from __future__ import annotations

from typing import Any

from .schema import TRACE_SPAN_SCHEMA, validate_jsonl, validate_span, validate_spans
from .trace import (
    CATEGORIES,
    Span,
    TraceCollector,
    chrome_trace,
    chrome_trace_from_dicts,
    spans_from_jsonl,
    spans_to_jsonl,
)

__all__ = [
    "CATEGORIES",
    "Span",
    "TraceCollector",
    "chrome_trace",
    "chrome_trace_from_dicts",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "TRACE_SPAN_SCHEMA",
    "validate_span",
    "validate_spans",
    "validate_jsonl",
    "FabricHealthReport",
    "LinkHealth",
    "render_html",
]


def __getattr__(name: str) -> Any:
    if name in ("FabricHealthReport", "LinkHealth"):
        from . import health

        return getattr(health, name)
    if name == "render_html":
        from .report import render_html

        return render_html
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
