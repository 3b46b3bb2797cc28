"""The per-simulation telemetry session object.

A :class:`Telemetry` bundles what one simulation run emits:

* a :class:`~repro.telemetry.registry.MetricsRegistry` (counters,
  gauges, log-scale histograms),
* a :class:`~repro.telemetry.timeline.StateTimeline` (FSM transitions,
  session lifecycle, zooming descent, failure injection → detection),
* the ``profile`` switch that turns on per-callback wall-time
  histograms in the event engine.

Every instrumented component (`Simulator`, `Link`, `Switch`, the FANcY
FSMs, `FancyLinkMonitor`) takes ``telemetry=None``; passing a session
switches structured signals on, ``None`` keeps the hot paths free.

The **registry can be shared across runs** while timelines cannot: a
timeline is monotonically timestamped and every simulation restarts its
clock at zero.  :meth:`Telemetry.fork` hands out a sibling session with
the same registry (and profile flag) but a fresh timeline *and a fresh
trace collector* — what ``run_cell`` uses to aggregate metrics over a
cell's repetitions, and what the fabric deployment uses to give each of
its 64 link monitors a private timeline/trace with shared counters.
Forks take a ``scope`` (the fabric passes the link id) that names the
trace ids minted by :attr:`Telemetry.traces` and labels the
``telemetry_timeline_truncated_total`` counter, making bounded-
suppression drops visible per fork instead of silent.
"""

from __future__ import annotations

from typing import Optional

from ..obs.trace import TraceCollector
from .registry import MetricsRegistry
from .timeline import StateTimeline

__all__ = ["Telemetry"]


class Telemetry:
    """One simulation's metrics registry + timeline + traces + profile."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        timeline: Optional[StateTimeline] = None,
        profile: bool = False,
        traces: Optional[TraceCollector] = None,
        scope: str = "",
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timeline = timeline if timeline is not None else StateTimeline()
        self.profile = profile
        self.scope = scope
        self.traces = traces if traces is not None else TraceCollector(scope=scope)
        # Surface the timeline's bounded-suppression drops as a registry
        # counter (labelled per scope so fabric forks stay attributable).
        self.timeline.bind_suppression_counter(self.metrics.counter(
            "telemetry_timeline_truncated_total",
            "Timeline events dropped by the bounded-suppression cap",
            scope=scope or "root"))

    def fork(self, scope: Optional[str] = None) -> "Telemetry":
        """Sibling session: shared registry, fresh timeline and traces,
        each with this session's cap."""
        scope = self.scope if scope is None else scope
        return Telemetry(
            metrics=self.metrics,
            timeline=StateTimeline(max_events=self.timeline.max_events),
            profile=self.profile,
            traces=TraceCollector(scope=scope,
                                  max_spans=self.traces.max_spans),
            scope=scope,
        )

    def detection_records(self):
        return self.timeline.detection_records()

    def snapshot(self) -> dict:
        """JSON-serializable metrics snapshot (rides the JSONL run log)."""
        return self.metrics.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Telemetry(instruments={len(self.metrics)}, "
                f"timeline_events={len(self.timeline)}, profile={self.profile})")
