"""``repro.obs`` — causal detection tracing + operator surface.

Three layers (docs/TELEMETRY.md):

* :mod:`repro.obs.trace` — deterministic span collection per detection
  episode, JSONL + Chrome-trace exports (:class:`TraceCollector` rides
  every :class:`~repro.telemetry.Telemetry` session);
* :mod:`repro.obs.health` — :class:`FabricHealthReport` scoring each
  monitored link healthy/degraded/flagged/rerouted from monitor state
  and traces;
* :mod:`repro.obs.report` — the self-contained offline HTML dashboard
  that ``fancy-repro fabric --trace --out`` and ``fancy-repro serve
  --out`` write.

Import discipline: the trace/schema layer depends on nothing inside
:mod:`repro` and ``repro.telemetry`` imports it, while
:mod:`repro.obs.health` imports the fabric subsystem, which imports
telemetry.  Every name here resolves on first use, so loading
``repro.obs.trace`` never reaches the fabric.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".health": ("FabricHealthReport", "LinkHealth"),
    ".report": ("render_html",),
    ".schema": (
        "TRACE_SPAN_SCHEMA", "validate_jsonl", "validate_span", "validate_spans",
    ),
    ".trace": (
        "CATEGORIES", "Span", "TraceCollector", "chrome_trace",
        "chrome_trace_from_dicts", "spans_from_jsonl", "spans_to_jsonl",
    ),
})
