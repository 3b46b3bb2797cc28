"""Fabric-wide FANcY deployment: one monitor per selected directed link.

A :class:`FabricDeployment` instantiates a :class:`~repro.core.detector.
FancyLinkMonitor` on each requested directed link ``A->B`` of a
:class:`~repro.fabric.graph.FabricNetwork` — upstream side in A's egress
pipeline on the port facing B, receiver side in B's ingress pipeline on
the port facing A, exactly the §3 placement the single-link experiments
use.  Monitors are mutually safe on a shared switch: egress tagging is
per-port (one monitor claims each egress port) and control messages are
dispatched by FSM id, so a 64-link fabric runs 64 independent counting
sessions concurrently.

Per-link seeds derive from ``stable_seed(config.seed, "fabric",
link_id)`` — adding or removing a monitored link never reshuffles the
hash seeds of the others.  When a telemetry session is supplied, each
monitor gets a :meth:`~repro.telemetry.session.Telemetry.fork`: shared
metrics registry, private timeline and trace collector scoped to the
link id (so minted trace ids read ``"s1->s2#001"``).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping
from typing import Any

from ..core.detector import FancyConfig, FancyLinkMonitor
from ..runtime.jobs import stable_seed
from .graph import FabricNetwork

__all__ = ["FabricDeployment"]


class FabricDeployment:
    """FANcY monitors over a fabric's links.

    Args:
        net: the materialized fabric.
        config: base monitor configuration; each link's monitor gets a
            copy with a link-derived hash seed.
        links: directed links to monitor — ``"A->B"`` ids or ``(a, b)``
            pairs; an empty selection raises ``ValueError``.  Defaults to
            every directed switch-switch link.
        telemetry: optional shared telemetry session; monitors receive
            per-link forks off its registry.
    """

    def __init__(
        self,
        net: FabricNetwork,
        config: FancyConfig | None = None,
        links: Iterable[Any] | None = None,
        telemetry: Any | None = None,
    ) -> None:
        self.net = net
        self.telemetry = telemetry
        base = config if config is not None else FancyConfig()
        if links is None:
            wanted = net.directed_link_ids()
        else:
            wanted = [sel if isinstance(sel, str) else net.link_id(*sel)
                      for sel in links]
            if not wanted:
                raise ValueError("deployment needs at least one link")
        self.monitors: dict[str, FancyLinkMonitor] = {}
        for link_id in wanted:
            a, b = net.endpoints(link_id)
            cfg = dataclasses.replace(
                base, seed=stable_seed(base.seed, "fabric", link_id, bits=31)
            )
            fork = telemetry.fork(scope=link_id) if telemetry is not None else None
            self.monitors[link_id] = FancyLinkMonitor(
                net.sim,
                net.switch(a), net.port_to(a, b),
                net.switch(b), net.port_to(b, a),
                config=cfg, telemetry=fork,
            )

    # -- lifecycle --------------------------------------------------------

    def start(self, stagger_s: float = 0.0) -> None:
        """Open all counting sessions, optionally staggered.

        Staggering desynchronizes session boundaries across links (the
        realistic operating mode); the offsets follow monitor insertion
        order, so a given deployment always staggers identically.
        """
        for i, monitor in enumerate(self.monitors.values()):
            monitor.start(delay=i * stagger_s)

    def stop(self) -> None:
        for monitor in self.monitors.values():
            monitor.stop()

    def bind_fluid(self, engine: Any, loss_seeds: Mapping[str, int]) -> None:
        """Bind ``engine``'s fluid flows to the monitors whose link they cross.

        Each monitor gets the flows whose baseline ECMP path crosses its
        link, grouped by delay chain (:meth:`~repro.fabric.graph.
        FabricNetwork.delay_legs`).  Per-window loss draws on a link seed
        from ``loss_seeds[link_id]`` — a pure function of the base seed
        and the link id, never of worker or shard count.
        """
        for link_id, monitor in self.monitors.items():
            by_legs: dict[tuple[float, ...], list[Any]] = {}
            for flow in engine.flows:
                legs = self.net.delay_legs(flow.entry, flow.flow_id, link_id,
                                           flow.packet_size)
                if legs is not None:
                    by_legs.setdefault(legs, []).append(flow)
            for legs, flows in by_legs.items():
                engine.bind_monitor(
                    monitor, flows, legs,
                    loss_model=self.net.links[link_id].loss_model,
                    loss_seed=loss_seeds[link_id])

    def update_entries(self, entries: Iterable[Any]) -> dict[str, bool]:
        """Rotate the dedicated entry set on every monitor (entry churn).

        Per-link swap timing follows :meth:`~repro.core.detector.
        FancyLinkMonitor.update_entries` — each monitor defers to its own
        next verified-Report boundary.  Returns, per link, whether the
        swap applied immediately (True) or was deferred (False).
        """
        wanted = list(entries)
        return {link_id: monitor.update_entries(wanted)
                for link_id, monitor in self.monitors.items()}

    # -- queries ----------------------------------------------------------

    def monitor(self, a: str, b: str) -> FancyLinkMonitor:
        return self.monitors[self.net.link_id(a, b)]

    @property
    def n_sessions(self) -> int:
        """Concurrent per-link counting sessions (monitors deployed)."""
        return len(self.monitors)

    def flagged(self) -> dict[str, list[Any]]:
        """Flagged entries per link, links in insertion order.

        Dedicated flags come first.  While the link's tree holds a
        flagged leaf, they are followed by every registered entry whose
        forward ECMP DAG crosses the link and whose hash path hits the
        output Bloom filter — the check the data plane makes per packet.
        """
        out: dict[str, list[Any]] = {}
        for link_id, monitor in self.monitors.items():
            entries = list(monitor.flagged_entries())
            if monitor.flagged_leaf_paths():
                entries += [entry for entry in self.net.entry_dst
                            if entry not in entries
                            and monitor.entry_is_flagged(entry)
                            and link_id in self.net.entry_links(entry)]
            if entries:
                out[link_id] = entries
        return out

    def detection_records(self) -> list[tuple[str, str, str, float, int]]:
        """Every failure report as a sorted, comparable tuple.

        ``(link_id, kind, entry, time, session)`` — the determinism
        contract of the fabric experiments: equal seeds must produce an
        identical record list.
        """
        records = [
            (link_id, report.kind.value, repr(report.entry), report.time,
             report.session_id if report.session_id is not None else -1)
            for link_id, monitor in self.monitors.items()
            for report in monitor.log.reports
        ]
        return sorted(records)

    def sessions_completed(self) -> dict[str, int]:
        """Completed sender sessions per link (dedicated + tree FSMs)."""
        out: dict[str, int] = {}
        for link_id, monitor in self.monitors.items():
            total = 0
            for fsm in (monitor.dedicated_sender, monitor.tree_sender):
                if fsm is not None:
                    total += fsm.sessions_completed
            out[link_id] = total
        return out
