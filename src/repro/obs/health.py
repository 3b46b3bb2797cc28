"""Fabric health: per-link scored status rolled up from metrics + traces.

:class:`FabricHealthReport` condenses what a :class:`~repro.fabric.
deployment.FabricDeployment` knows after (or during) a run into the
operator's status lattice, worst evidence wins:

``rerouted``        the controller installed a repair path around this
                    link
``declared``        LINK_DOWN stands — the protocol declared the link
                    dead (or its degradation ladder walked to DECLARED)
``flagged``         the monitor holds an active flag (dedicated entry
                    or tree leaf) nobody rerouted yet
``freeze``          the degradation ladder froze window advancement:
                    control-channel impairment persisted and flags are
                    held for re-validation (docs/ROBUSTNESS.md)
``use_last_state``  the ladder is serving the last verified counter
                    snapshot while the control channel recovers
``degraded``        protocol hardening fired (corrupt/stale rejections),
                    a switch restarted, an invariant breached, or the
                    telemetry timeline truncated — the link works but
                    something is off or under-observed
``healthy``         none of the above

Detection latency is derived from traces, not wall-math: each episode
whose root cause is a ``fault`` span contributes ``first flag span −
root span`` (the paper's injection→flag latency, per link, per
episode).  Episodes whose root is *not* a fault were opened lazily by a
detection with no known cause — the false-positive sentinel count the
ring soak watches (``s2->s3`` must stay at zero).

Everything here reads per-link state held on the monitors and their
private telemetry forks; the shared metrics registry is deliberately
not consulted for per-link numbers (its counters aggregate across all
64 forks of a fat tree and cannot be re-attributed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.output import FailureKind

__all__ = ["STATUSES", "LinkHealth", "FabricHealthReport"]

#: Status lattice, benign to severe (worst evidence wins).
STATUSES = ("healthy", "degraded", "use_last_state", "freeze", "flagged",
            "declared", "rerouted")


@dataclass
class LinkHealth:
    """Scored health of one monitored directed link."""

    link_id: str
    status: str
    flagged_entries: list[str] = field(default_factory=list)
    flagged_leaf_paths: int = 0
    link_down: bool = False
    detections: dict[str, int] = field(default_factory=dict)
    sessions_completed: int = 0
    rejected_corrupt: int = 0
    rejected_stale: int = 0
    restarts: int = 0
    timeline_truncated: int = 0
    rerouted_entries: list[str] = field(default_factory=list)
    #: episodes rooted at a fault span, with their injection→flag latency
    #: (None while undetected).
    detection_latencies: list[float] = field(default_factory=list)
    #: detection-opened episodes with no fault root — FP-sentinel signal.
    unattributed_detections: int = 0
    traces: int = 0
    spans: int = 0
    #: degradation-ladder rung (``None`` when no ladder is attached).
    ladder_state: str | None = None
    #: exhaustions the ladder absorbed instead of declaring LINK_DOWN.
    absorbed_exhaustions: int = 0
    #: online invariant breaches on this link, per invariant id.
    invariant_breaches: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "link": self.link_id,
            "status": self.status,
            "flagged_entries": list(self.flagged_entries),
            "flagged_leaf_paths": self.flagged_leaf_paths,
            "link_down": self.link_down,
            "detections": dict(self.detections),
            "sessions_completed": self.sessions_completed,
            "rejected_corrupt": self.rejected_corrupt,
            "rejected_stale": self.rejected_stale,
            "restarts": self.restarts,
            "timeline_truncated": self.timeline_truncated,
            "rerouted_entries": list(self.rerouted_entries),
            "detection_latencies": list(self.detection_latencies),
            "unattributed_detections": self.unattributed_detections,
            "traces": self.traces,
            "spans": self.spans,
            "ladder_state": self.ladder_state,
            "absorbed_exhaustions": self.absorbed_exhaustions,
            "invariant_breaches": dict(self.invariant_breaches),
        }


def _fsm_sum(monitor: Any, attr: str) -> int:
    total = 0
    for fsm in (monitor.dedicated_sender, monitor.tree_sender,
                monitor.dedicated_receiver, monitor.tree_receiver):
        if fsm is not None:
            total += getattr(fsm, attr, 0)
    return total


def _trace_stats(collector: Any) -> tuple[list[float], int, int, int]:
    """(fault latencies, unattributed episodes, n_traces, n_spans), from
    the collector's per-episode summaries — its spans are never decoded."""
    latencies: list[float] = []
    unattributed = 0
    summaries = collector.trace_summaries()
    for cause, start, first_flag in summaries.values():
        if cause == "fault":
            if first_flag is not None:
                latencies.append(first_flag - start)
        else:
            unattributed += 1
    return latencies, unattributed, len(summaries), len(collector)


class FabricHealthReport:
    """Per-link :class:`LinkHealth` rows plus a fabric-wide summary."""

    def __init__(self, links: list[LinkHealth],
                 topology: list[dict[str, Any]] | None = None,
                 sim_time: float = 0.0) -> None:
        self.links = links
        self.topology = topology or []
        self.sim_time = sim_time

    # -- construction ------------------------------------------------------

    @classmethod
    def from_deployment(cls, deployment: Any, controller: Any = None,
                        sim_time: float | None = None,
                        ladders: dict[str, Any] | None = None,
                        breaches: dict[str, dict[str, int]] | None = None,
                        ) -> "FabricHealthReport":
        """Score every monitored link of a fabric deployment.

        ``controller`` (a :class:`~repro.fabric.reroute.
        FabricRerouteController`) contributes the rerouted status;
        without one, flags stay at ``flagged``.  ``ladders`` maps link
        id to its :class:`~repro.service.ladder.DegradationLadder` (the
        serve supervisor's degraded-mode rungs become statuses);
        ``breaches`` maps link id to per-invariant breach counts from
        the online supervision layer.
        """
        rerouted_by_link: dict[str, list[str]] = {}
        if controller is not None:
            for (link_id, entry) in controller.reroute_times:
                rerouted_by_link.setdefault(link_id, []).append(repr(entry))
        completed = deployment.sessions_completed()

        links: list[LinkHealth] = []
        for link_id, monitor in deployment.monitors.items():
            detections: dict[str, int] = {}
            for report in monitor.log.reports:
                kind = report.kind.value
                detections[kind] = detections.get(kind, 0) + 1
            telemetry = monitor.telemetry
            truncated = 0
            latencies: list[float] = []
            unattributed = n_traces = n_spans = 0
            if telemetry is not None:
                truncated = getattr(telemetry.timeline, "suppressed", 0)
                collector = getattr(telemetry, "traces", None)
                if collector is not None:
                    latencies, unattributed, n_traces, n_spans = (
                        _trace_stats(collector))
            health = LinkHealth(
                link_id=link_id,
                status="healthy",
                flagged_entries=[repr(e) for e in monitor.flagged_entries()],
                flagged_leaf_paths=len(monitor.flagged_leaf_paths()),
                link_down=bool(detections.get(FailureKind.LINK_DOWN.value)),
                detections=detections,
                sessions_completed=completed.get(link_id, 0),
                rejected_corrupt=_fsm_sum(monitor, "rejected_corrupt"),
                rejected_stale=_fsm_sum(monitor, "rejected_stale"),
                restarts=_fsm_sum(monitor, "restarts"),
                timeline_truncated=truncated,
                rerouted_entries=sorted(rerouted_by_link.get(link_id, [])),
                detection_latencies=latencies,
                unattributed_detections=unattributed,
                traces=n_traces,
                spans=n_spans,
            )
            ladder = (ladders or {}).get(link_id)
            if ladder is not None:
                health.ladder_state = ladder.state.value
                health.absorbed_exhaustions = sum(
                    fsm.absorbed_exhaustions
                    for fsm in (monitor.dedicated_sender, monitor.tree_sender)
                    if fsm is not None)
            health.invariant_breaches = dict(
                (breaches or {}).get(link_id, {}))
            health.status = _score(health)
            links.append(health)

        topology = []
        graph = getattr(deployment.net, "graph", None)
        if graph is not None:
            monitored = set(deployment.monitors)
            for node in graph.nodes:
                neighbors = list(graph.neighbors(node))
                topology.append({
                    "node": node,
                    "degree": len(neighbors),
                    "neighbors": neighbors,
                    "monitored_out": sum(
                        1 for n in neighbors if f"{node}->{n}" in monitored),
                })
        if sim_time is None:
            sim_time = deployment.net.sim.now
        return cls(links, topology=topology, sim_time=sim_time)

    # -- queries -----------------------------------------------------------

    def status_of(self, link_id: str) -> str:
        for link in self.links:
            if link.link_id == link_id:
                return link.status
        raise KeyError(link_id)

    def counts(self) -> dict[str, int]:
        """Links per status, every status present (ladder order)."""
        out = {status: 0 for status in STATUSES}
        for link in self.links:
            out[link.status] += 1
        return out

    def summary(self) -> dict[str, Any]:
        latencies = [lat for link in self.links
                     for lat in link.detection_latencies]
        breach_totals: dict[str, int] = {}
        for link in self.links:
            for invariant, n in link.invariant_breaches.items():
                breach_totals[invariant] = breach_totals.get(invariant, 0) + n
        return {
            "invariant_breaches": dict(sorted(breach_totals.items())),
            "absorbed_exhaustions": sum(link.absorbed_exhaustions
                                        for link in self.links),
            "sim_time": self.sim_time,
            "links": len(self.links),
            "status": self.counts(),
            "detections": sum(sum(link.detections.values())
                              for link in self.links),
            "sessions_completed": sum(link.sessions_completed
                                      for link in self.links),
            "unattributed_detections": sum(link.unattributed_detections
                                           for link in self.links),
            "detection_latency": {
                "count": len(latencies),
                "min": min(latencies) if latencies else None,
                "mean": (sum(latencies) / len(latencies)) if latencies
                        else None,
                "max": max(latencies) if latencies else None,
            },
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "summary": self.summary(),
            "links": [link.to_dict() for link in self.links],
            "topology": list(self.topology),
        }

    def render_text(self) -> str:
        """Compact fixed-width table (the CLI's non-HTML output)."""
        summary = self.summary()
        status = " ".join(f"{k}={v}" for k, v in summary["status"].items())
        lines = [
            f"fabric health @ t={summary['sim_time']:.2f}s — "
            f"{summary['links']} links, {status}",
            f"{'link':<14} {'status':<9} {'sessions':>8} {'flags':>6} "
            f"{'latency':>9}  rerouted",
        ]
        for link in self.links:
            lat = (f"{min(link.detection_latencies) * 1e3:.0f} ms"
                   if link.detection_latencies else "-")
            flags = len(link.flagged_entries) + link.flagged_leaf_paths
            lines.append(
                f"{link.link_id:<14} {link.status:<9} "
                f"{link.sessions_completed:>8} {flags:>6} {lat:>9}  "
                f"{','.join(link.rerouted_entries) or '-'}"
            )
        if summary["unattributed_detections"]:
            lines.append(f"!! {summary['unattributed_detections']} "
                         "unattributed detection(s) — check FP sentinels")
        if summary["invariant_breaches"]:
            counts = " ".join(f"{k}={v}" for k, v in
                              summary["invariant_breaches"].items())
            lines.append(f"!! invariant breaches: {counts}")
        return "\n".join(lines)


def _score(health: LinkHealth) -> str:
    if health.rerouted_entries:
        return "rerouted"
    if health.link_down or health.ladder_state == "declared":
        return "declared"
    if (health.flagged_entries or health.flagged_leaf_paths
            or health.detections):
        return "flagged"
    if health.ladder_state == "freeze":
        return "freeze"
    if health.ladder_state == "use_last_state":
        return "use_last_state"
    if (health.rejected_corrupt or health.rejected_stale or health.restarts
            or health.timeline_truncated or health.unattributed_detections
            or health.invariant_breaches):
        return "degraded"
    return "healthy"
