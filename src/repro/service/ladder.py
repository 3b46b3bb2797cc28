"""Graceful-degradation ladder for control-channel impairment (§4.1+).

The paper's sender FSM has exactly one answer to an unresponsive control
channel: retransmit ``X`` times, then declare LINK_DOWN.  That is
correct when the reverse channel is dead, but an ISP control channel
that *greys* — drops 20% of counter reports while the data link forwards
perfectly — would trip the same declaration and trigger a spurious
reroute.  The ladder interposes a second, slower FSM between impairment
evidence and the declaration:

``HEALTHY → USE_LAST_STATE``
    First retransmission or checksum-rejected report in a phase: the
    link's last *verified* counter snapshot stands in for the one we
    cannot fetch (the sender caches it on every verified Report).

``USE_LAST_STATE → FREEZE``
    Retransmit backoff saturated (factor hit ``backoff_cap``): stop
    trusting window advancement.  Flags raised so far are captured and
    *held* — kept visible, but marked for re-validation.

``FREEZE → DECLARED``
    Retransmit attempts exhausted *and* the link is no longer recently
    verified (see below): today's LINK_DOWN, rerouting proceeds.

``→ HEALTHY`` (recovery)
    Any verified Report steps the ladder back down.  Recovery out of
    FREEZE clears the held flags so the next *live* counting window
    re-validates them: genuine loss re-flags within one window, flags
    that only existed because the control channel was lying are gone.

The DECLARE gate is recency: an exhaustion is *absorbed* (session
aborted and reopened, window discarded, no declaration) while some FSM
on the link produced a verified report less than ``declare_grace_s``
ago and fewer than ``max_absorbed_cycles`` consecutive exhaustions have
been absorbed.  ``declare_grace_s`` must sit below the protocol's
dead-channel floor (≈1.15 s from phase start to exhaustion with the
paper's timers), so a genuinely dead reverse channel is *never*
absorbed — its last verified report is necessarily older than the grace
by the time the first exhaustion fires — and detection latency keeps
the paper's ≤1.2 s bound.

``LADDER_FSM_SPEC`` is the machine-checked contract: fancylint FCY012
extracts every ``_set_state`` call in :class:`DegradationLadder` and
proves the implemented edge set equals this table.
"""

from __future__ import annotations

import enum
from typing import Any

__all__ = [
    "LADDER_FSM_SPEC",
    "LadderState",
    "DegradationLadder",
    "attach_ladder",
]


class LadderState(enum.Enum):
    HEALTHY = "healthy"
    USE_LAST_STATE = "use_last_state"
    FREEZE = "freeze"
    DECLARED = "declared"


#: FCY012 model-checking table (see ``repro.lint.fsm``): rows are
#: ``(from, to, label, kind)``; ``"*"`` means "from any state".  All
#: protocol edges are ``event`` — the ladder owns no timers; it is
#: driven entirely by impairment signals the sender FSMs emit.
LADDER_FSM_SPEC: dict[str, Any] = {
    "role": "ladder",
    "fsm_class": "DegradationLadder",
    "state_enum": "LadderState",
    "initial": "HEALTHY",
    "terminal": ("DECLARED",),
    "lifecycle_methods": ("reset",),
    "backoff_helper": None,
    "transitions": (
        ("HEALTHY", "USE_LAST_STATE", "control_impaired", "event"),
        ("USE_LAST_STATE", "FREEZE", "impairment_persists", "event"),
        ("FREEZE", "DECLARED", "attempts_exhausted", "event"),
        ("USE_LAST_STATE", "HEALTHY", "recovered", "event"),
        ("FREEZE", "HEALTHY", "recovered", "event"),
        ("*", "HEALTHY", "reset", "lifecycle"),
    ),
}


class DegradationLadder:
    """Per-link degraded-mode FSM, fed by sender impairment signals.

    Args:
        monitor: the :class:`~repro.core.detector.FancyLinkMonitor`
            whose control-channel health this ladder tracks.
        link_id: label for telemetry (``fancy_ladder_transitions_total``
            and timeline/trace records).
        declare_grace_s: how recently the link must have produced a
            verified report for an exhaustion to be absorbed.  Must stay
            below the protocol's dead-channel exhaustion floor.
        max_absorbed_cycles: consecutive absorbed exhaustions allowed
            before the ladder lets the declaration through anyway (a
            channel that exhausts every phase is dead for all practical
            purposes, however fresh the other FSM's reports are).
    """

    def __init__(
        self,
        monitor: Any,
        link_id: str = "link",
        declare_grace_s: float = 1.0,
        max_absorbed_cycles: int = 3,
    ) -> None:
        self.monitor = monitor
        self.link_id = link_id
        self.declare_grace_s = declare_grace_s
        self.max_absorbed_cycles = max_absorbed_cycles
        self.state = LadderState.HEALTHY
        #: Simulated time of the most recent verified counter report on
        #: any of the link's FSMs; ``None`` until the first one lands —
        #: a link never verified alive gets no absorption grace.
        self.last_report_at: float | None = None
        #: Consecutive exhaustions absorbed without an intervening
        #: verified report.
        self.absorbed_streak = 0
        #: Dedicated flags captured when the ladder froze; cleared (for
        #: re-validation by the next live window) on recovery.
        self.held_flags: tuple[Any, ...] = ()
        #: Flags cleared by the most recent FREEZE→HEALTHY recovery
        #: (observability for tests and the health report).
        self.revalidated: tuple[Any, ...] = ()
        self.transitions = 0
        self._t = 0.0

    # -- state bookkeeping -------------------------------------------------

    def _set_state(self, new_state: LadderState) -> None:
        old_state = self.state
        self.state = new_state
        if old_state is new_state:
            return
        self.transitions += 1
        telemetry = self.monitor.telemetry
        if telemetry is not None:
            # ``_value_``, not the ``.value`` descriptor: an observer runs
            # no enum frames the ladder does not.
            src, dst = old_state._value_, new_state._value_
            telemetry.metrics.counter(
                "fancy_ladder_transitions_total",
                "Degradation-ladder rung changes, by link and edge",
                link=self.link_id, src=src, dst=dst).inc()
            telemetry.timeline.add(
                self._t, f"ladder:{self.link_id}", "ladder_transition",
                {"from": src, "to": dst})
            traces = telemetry.traces
            if traces is not None and traces.active:
                traces.emit(f"ladder {src}->{dst}", self._t, category="ladder",
                            link=self.link_id)

    # -- impairment signal protocol ---------------------------------------

    def on_signal(self, signal: str, now: float) -> None:
        """Sender impairment tap: route one signal into the ladder.

        Signals (see ``FancySender.impairment_taps``): ``rtx`` — a
        retransmission happened; ``corrupt`` — a checksum-rejected
        control message; ``saturated`` — retransmit backoff hit its
        cap; ``recovered`` — a verified Report closed a window;
        ``absorbed`` — an exhaustion was absorbed (bookkeeping only,
        the rung already moved via :meth:`on_exhaustion`).
        """
        self._t = now
        if self.state is LadderState.DECLARED:
            return
        if signal == "recovered":
            self.last_report_at = now
            self.absorbed_streak = 0
            self._recover(now)
        elif signal == "saturated":
            self._freeze(now)
        elif signal in ("rtx", "corrupt"):
            self._impaired(now)

    def _impaired(self, now: float) -> None:
        """First impairment evidence: fall back to the last snapshot."""
        if self.state is not LadderState.HEALTHY:
            return
        self._set_state(LadderState.USE_LAST_STATE)

    def _freeze(self, now: float) -> None:
        """Persistent impairment: step through to FREEZE, holding flags."""
        if self.state is LadderState.HEALTHY:
            self._set_state(LadderState.USE_LAST_STATE)
        if self.state is LadderState.USE_LAST_STATE:
            self._set_state(LadderState.FREEZE)
            self.held_flags = tuple(self.monitor.flagged_entries())

    def _recover(self, now: float) -> None:
        """Verified report: step back to HEALTHY, re-validating flags."""
        if self.state is LadderState.FREEZE:
            # Flags held across the freeze were raised from windows the
            # impaired control channel may have mangled: clear them and
            # let the next live window re-raise the genuine ones.
            self.revalidated = tuple(
                self.monitor.clear_dedicated_flags(self.held_flags))
            self.held_flags = ()
            self._set_state(LadderState.HEALTHY)
            return
        if self.state is LadderState.USE_LAST_STATE:
            self._set_state(LadderState.HEALTHY)

    # -- declaration gate --------------------------------------------------

    def on_exhaustion(self, fsm_id: str, now: float) -> bool:
        """Absorb-or-declare decision for one exhausted control exchange.

        Installed as ``FancySender.on_exhaustion``; returning True
        aborts the window and reopens a session instead of declaring
        LINK_DOWN.  Absorption requires the link recently verified
        alive and an unexhausted absorb budget — both false for a dead
        reverse channel, so declaration latency keeps its bound.
        """
        self._t = now
        if self.state is LadderState.DECLARED:
            return False
        if self.last_report_at is None:
            return False
        if now - self.last_report_at >= self.declare_grace_s:
            return False
        if self.absorbed_streak >= self.max_absorbed_cycles:
            return False
        self.absorbed_streak += 1
        self._freeze(now)
        return True

    def on_declared(self, fsm_id: str, now: float) -> None:
        """Walk the remaining rungs down to DECLARED (LINK_DOWN stands)."""
        self._t = now
        if self.state is LadderState.DECLARED:
            return
        if self.state is LadderState.HEALTHY:
            self._set_state(LadderState.USE_LAST_STATE)
        if self.state is LadderState.USE_LAST_STATE:
            self._set_state(LadderState.FREEZE)
        if self.state is LadderState.FREEZE:
            self._set_state(LadderState.DECLARED)

    # -- lifecycle ---------------------------------------------------------

    def reset(self, now: float = 0.0) -> None:
        """Operator/recovery reset: back to HEALTHY from any rung."""
        self._t = now
        self.absorbed_streak = 0
        self.held_flags = ()
        self._set_state(LadderState.HEALTHY)

    # -- queries -----------------------------------------------------------

    @property
    def status(self) -> str:
        """Health-report status string for the current rung."""
        return self.state.value

    def snapshot(self) -> Any:
        """Most recent verified remote counter snapshot on the link.

        This is the counter state USE_LAST_STATE serves while a fresh
        report cannot be fetched; ``None`` until a window has verified.
        """
        best_at: float | None = None
        best: Any = None
        for fsm in (self.monitor.dedicated_sender, self.monitor.tree_sender):
            if fsm is None or fsm.last_verified_at is None:
                continue
            if best_at is None or fsm.last_verified_at > best_at:
                best_at = fsm.last_verified_at
                best = fsm.last_verified_snapshot
        return best


def attach_ladder(
    monitor: Any,
    link_id: str = "link",
    declare_grace_s: float = 1.0,
    max_absorbed_cycles: int = 3,
) -> DegradationLadder:
    """Wrap one monitor's sender FSMs in a degradation ladder.

    Registers the ladder as impairment tap and exhaustion gate on both
    sender FSMs and chains itself *before* any existing
    ``on_link_failure`` callback (reroute hooks still fire; the ladder
    records the DECLARE first).
    """
    ladder = DegradationLadder(
        monitor, link_id=link_id, declare_grace_s=declare_grace_s,
        max_absorbed_cycles=max_absorbed_cycles)
    for sender in (monitor.dedicated_sender, monitor.tree_sender):
        if sender is None:
            continue
        sender.impairment_taps.append(ladder.on_signal)
        sender.on_exhaustion = ladder.on_exhaustion
        sender.on_link_failure = _chain_declared(
            ladder, sender.on_link_failure)
    return ladder


def _chain_declared(ladder: DegradationLadder,
                    previous: Any) -> Any:
    def declared(fsm_id: str, now: float) -> None:
        ladder.on_declared(fsm_id, now)
        if previous is not None:
            previous(fsm_id, now)
    return declared
