"""First-class telemetry for the FANcY reproduction.

The paper's headline claims are observability claims — detection-latency
CDFs (Fig. 9/10), control-message overhead (Table 4), sessions to
detection for the zooming tree — and this package is their single source
of truth:

* :mod:`~repro.telemetry.registry` — counters, gauges and log-scale
  histograms; a count the pipeline already keeps is read out of its
  stats holder when the registry is read, never counted twice;
* :mod:`~repro.telemetry.timeline` — the protocol state-machine
  timeline: every FSM transition, session open/close, zooming descent,
  failure injection and detection, monotonically timestamped;
* :mod:`~repro.telemetry.export` — Prometheus text format and JSONL
  exporters plus the event-loop :func:`hotspots` profile;
* :mod:`~repro.telemetry.session` — the :class:`Telemetry` bundle that
  instrumented components accept as ``telemetry=``; it also carries a
  :class:`~repro.obs.trace.TraceCollector` (re-exported here) stringing
  each detection episode into a causal trace — see :mod:`repro.obs`.

See ``docs/TELEMETRY.md`` for the metric catalogue, the trace schema
and workflows.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "..obs.trace": ("Span", "TraceCollector"),
    ".export": ("hotspots", "to_jsonl", "to_prometheus"),
    ".registry": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "merge_snapshots",
    ),
    ".session": ("Telemetry",),
    ".timeline": ("DetectionRecord", "StateTimeline", "TimelineEvent"),
})
