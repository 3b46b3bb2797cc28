"""Online invariant supervision for long-running serves.

A service meant to run simulated days cannot wait for teardown to learn
of a breach: a liveness deadlock at hour 2 must surface at hour 2, not
in a post-run report.  :class:`InvariantSupervisor` owns one
:class:`~repro.chaos.invariants.LinkInvariantObserver` per monitored
link and ticks them on a simulated-clock cadence; every breach is
exported as ``fancy_invariant_breach_total{invariant=,link=}`` and fed
into the health report (the serve driver attaches breach counts to each
link's :class:`~repro.obs.health.LinkHealth`).

Tick evaluation covers the invariants that hold at every instant
(liveness, session monotonicity, incremental attribution,
in-flight-tolerant corruption accounting); the drain-only
arithmetic (eventual detection, per-link conservation, exact corruption
equality) runs once in :meth:`InvariantSupervisor.finalize`.
"""

from __future__ import annotations

from typing import Any

from repro.chaos.invariants import LinkInvariantObserver, Violation
from repro.chaos.schedule import FaultSpec

__all__ = ["InvariantSupervisor"]


class InvariantSupervisor:
    """Periodic I1–I6 evaluation over a set of link observers.

    Args:
        sim: the simulation whose clock drives the tick cadence.
        telemetry: optional session; breaches are metered on its
            registry.
        interval_s: simulated seconds between ticks.  Ticks run between
            engine events, so mid-run liveness checks are sound (a
            due-but-unfired timer still counts as pending).
    """

    def __init__(self, sim: Any, telemetry: Any | None = None,
                 interval_s: float = 0.5) -> None:
        self.sim = sim
        self.telemetry = telemetry
        self.interval_s = interval_s
        self.observers: dict[str, LinkInvariantObserver] = {}
        self.stopped = False
        self.finalized = False

    # -- wiring ------------------------------------------------------------

    def watch(
        self,
        link_id: str,
        monitor: Any,
        schedule: list[FaultSpec],
        dedicated: list[Any],
        best_effort: list[Any],
        links: list[Any],
        chaos_models: list[Any],
    ) -> LinkInvariantObserver:
        """Register one link's monitor for continuous supervision."""
        observer = LinkInvariantObserver(
            monitor, schedule, dedicated, best_effort, links, chaos_models,
            link_id=link_id, on_breach=self._on_breach)
        self.observers[link_id] = observer
        return observer

    def _on_breach(self, link_id: str, violation: Violation) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "fancy_invariant_breach_total",
                "Soak-invariant (I1-I6) breaches observed online",
                invariant=violation.invariant, link=link_id).inc()

    # -- lifecycle ---------------------------------------------------------

    def start(self, delay: float | None = None) -> None:
        """Arm the periodic tick (first fire after one interval)."""
        self.sim.schedule(
            self.interval_s if delay is None else delay, self._tick)

    def _tick(self) -> None:
        if self.stopped:
            return
        for link_id in sorted(self.observers):
            self.observers[link_id].tick(self.sim.now)
        self.sim.schedule(self.interval_s, self._tick)

    def finalize(self, horizon: float) -> list[Violation]:
        """Stop ticking and run the drain-time checks on every observer.

        ``horizon`` is the instant traffic stopped (the eventual-
        detection cutoff).  Idempotent: a second call returns the
        accumulated breach list without re-checking.
        """
        self.stopped = True
        if not self.finalized:
            self.finalized = True
            for link_id in sorted(self.observers):
                self.observers[link_id].final(self.sim.now, horizon)
        return self.breaches()

    # -- queries -----------------------------------------------------------

    def breaches(self) -> list[Violation]:
        """All breaches so far, ordered by link then observation order."""
        out: list[Violation] = []
        for link_id in sorted(self.observers):
            out.extend(self.observers[link_id].breaches)
        return out

    def breach_counts(self) -> dict[str, int]:
        """Breach totals per invariant id (``{}`` when all clean)."""
        counts: dict[str, int] = {}
        for violation in self.breaches():
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return dict(sorted(counts.items()))

    def breaches_for(self, link_id: str) -> list[Violation]:
        observer = self.observers.get(link_id)
        return list(observer.breaches) if observer is not None else []
