"""DegradationLadder: rung transitions, the DECLARE gate, recovery.

Unit tests drive the ladder with synthetic impairment signals against a
stub monitor; integration tests attach it to a real
:class:`FancyLinkMonitor` on the two-switch topology and grey/kill the
reverse (control) channel — the scenarios of docs/ROBUSTNESS.md:

* 20% control loss on a perfect data link must never reach DECLARED;
* a genuinely dead reverse channel must still declare LINK_DOWN within
  the paper's ≤1.2 s bound (counting window + capped-backoff floor);
* control-channel flapping cycles the ladder up and down repeatedly
  without a spurious declaration, and FREEZE-held flags are re-validated
  (cleared, then re-raised only by genuine loss) on recovery.
"""

from __future__ import annotations

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams
from repro.core.output import FailureKind
from repro.service.ladder import DegradationLadder, LadderState, attach_ladder
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import (
    ControlPlaneFailure,
    EntryLossFailure,
    IntermittentFailure,
)
from repro.simulator.topology import TwoSwitchTopology

SMALL_TREE = HashTreeParams(width=8, depth=2, split=2, pipelined=True)


class StubSender:
    def __init__(self):
        self.impairment_taps = []
        self.on_exhaustion = None
        self.on_link_failure = None
        self.last_verified_snapshot = None
        self.last_verified_at = None
        self.absorbed_exhaustions = 0


class StubMonitor:
    """Just enough FancyLinkMonitor surface for the ladder."""

    def __init__(self):
        self.telemetry = None
        self.dedicated_sender = StubSender()
        self.tree_sender = StubSender()
        self._flags = ["victim"]
        self.cleared = []

    def flagged_entries(self):
        return list(self._flags)

    def clear_dedicated_flags(self, entries):
        cleared = [e for e in entries if e in self._flags]
        self._flags = [e for e in self._flags if e not in cleared]
        self.cleared.extend(cleared)
        return cleared


class TestRungTransitions:
    def _ladder(self, **kw):
        return DegradationLadder(StubMonitor(), link_id="a->b", **kw)

    def test_starts_healthy(self):
        assert self._ladder().state is LadderState.HEALTHY

    def test_rtx_steps_to_use_last_state(self):
        ladder = self._ladder()
        ladder.on_signal("rtx", 1.0)
        assert ladder.state is LadderState.USE_LAST_STATE
        assert ladder.transitions == 1

    def test_corrupt_also_steps_down(self):
        ladder = self._ladder()
        ladder.on_signal("corrupt", 1.0)
        assert ladder.state is LadderState.USE_LAST_STATE

    def test_saturation_freezes_and_holds_flags(self):
        ladder = self._ladder()
        ladder.on_signal("rtx", 1.0)
        ladder.on_signal("saturated", 1.2)
        assert ladder.state is LadderState.FREEZE
        assert ladder.held_flags == ("victim",)

    def test_saturation_from_healthy_walks_both_rungs(self):
        ladder = self._ladder()
        ladder.on_signal("saturated", 1.0)
        assert ladder.state is LadderState.FREEZE
        assert ladder.transitions == 2

    def test_recovery_from_use_last_state(self):
        ladder = self._ladder()
        ladder.on_signal("rtx", 1.0)
        ladder.on_signal("recovered", 1.3)
        assert ladder.state is LadderState.HEALTHY
        assert ladder.last_report_at == 1.3

    def test_recovery_from_freeze_revalidates_held_flags(self):
        ladder = self._ladder()
        ladder.on_signal("saturated", 1.0)
        assert ladder.held_flags == ("victim",)
        ladder.on_signal("recovered", 2.0)
        assert ladder.state is LadderState.HEALTHY
        assert ladder.held_flags == ()
        # the flags were cleared on the monitor for re-validation by the
        # next live window
        assert ladder.revalidated == ("victim",)
        assert ladder.monitor.cleared == ["victim"]
        assert ladder.monitor.flagged_entries() == []

    def test_declared_is_terminal_for_signals(self):
        ladder = self._ladder()
        ladder.on_declared("fsm", 1.0)
        assert ladder.state is LadderState.DECLARED
        ladder.on_signal("recovered", 2.0)
        assert ladder.state is LadderState.DECLARED

    def test_on_declared_walks_every_remaining_rung(self):
        ladder = self._ladder()
        ladder.on_declared("fsm", 1.0)
        # HEALTHY -> USE_LAST_STATE -> FREEZE -> DECLARED
        assert ladder.transitions == 3

    def test_reset_returns_to_healthy_from_any_rung(self):
        ladder = self._ladder()
        ladder.on_declared("fsm", 1.0)
        ladder.reset(now=2.0)
        assert ladder.state is LadderState.HEALTHY
        assert ladder.absorbed_streak == 0
        assert ladder.held_flags == ()


class TestDeclareGate:
    def _ladder(self, **kw):
        return DegradationLadder(StubMonitor(), link_id="a->b",
                                 declare_grace_s=1.0, **kw)

    def test_never_verified_link_is_not_absorbed(self):
        ladder = self._ladder()
        assert ladder.on_exhaustion("fsm", 5.0) is False

    def test_recent_report_absorbs(self):
        ladder = self._ladder()
        ladder.on_signal("recovered", 4.5)
        assert ladder.on_exhaustion("fsm", 5.0) is True
        assert ladder.absorbed_streak == 1
        # absorption is impairment evidence: the ladder froze
        assert ladder.state is LadderState.FREEZE

    def test_stale_report_declares(self):
        ladder = self._ladder()
        ladder.on_signal("recovered", 1.0)
        assert ladder.on_exhaustion("fsm", 2.5) is False

    def test_absorb_budget_is_bounded(self):
        ladder = self._ladder(max_absorbed_cycles=2)
        ladder.on_signal("recovered", 10.0)
        assert ladder.on_exhaustion("fsm", 10.1) is True
        assert ladder.on_exhaustion("fsm", 10.2) is True
        assert ladder.on_exhaustion("fsm", 10.3) is False

    def test_verified_report_resets_absorb_budget(self):
        ladder = self._ladder(max_absorbed_cycles=1)
        ladder.on_signal("recovered", 10.0)
        assert ladder.on_exhaustion("fsm", 10.1) is True
        ladder.on_signal("recovered", 10.5)
        assert ladder.absorbed_streak == 0
        assert ladder.on_exhaustion("fsm", 10.6) is True

    def test_snapshot_prefers_freshest_fsm(self):
        ladder = self._ladder()
        ladder.monitor.dedicated_sender.last_verified_snapshot = {"d": 1}
        ladder.monitor.dedicated_sender.last_verified_at = 1.0
        ladder.monitor.tree_sender.last_verified_snapshot = {"t": 2}
        ladder.monitor.tree_sender.last_verified_at = 2.0
        assert ladder.snapshot() == {"t": 2}


def deploy(sim, reverse_loss_model=None, data_loss_model=None,
           grace=1.0, entries=("hp",)):
    topo = TwoSwitchTopology(sim, loss_model=data_loss_model,
                             reverse_loss_model=reverse_loss_model)
    config = FancyConfig(high_priority=list(entries), tree_params=SMALL_TREE,
                         twait_s=0.015)
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                               config)
    ladder = attach_ladder(monitor, link_id="a->b", declare_grace_s=grace)
    for i, entry in enumerate(entries):
        FlowGenerator(sim, topo.source, entry, rate_bps=2e6,
                      flows_per_second=20, seed=7 + i,
                      flow_id_base=(i + 1) * 1_000_000, destination=topo.sink).start()
    return topo, monitor, ladder


class TestOnTheWire:
    def test_grey_control_channel_never_declares(self, sim):
        """20% control loss, perfect data plane: no LINK_DOWN, ever."""
        grey = ControlPlaneFailure(0.2, start_time=0.5, seed=11)
        _, monitor, ladder = deploy(sim, reverse_loss_model=grey)
        monitor.start()
        sim.run(until=30.0)
        assert monitor.log.by_kind(FailureKind.LINK_DOWN) == []
        assert ladder.state is not LadderState.DECLARED
        assert monitor.flagged_entries() == []
        assert grey.drops > 0  # the fault genuinely bit

    def test_dead_reverse_channel_declares_within_bound(self, sim):
        """A dead control channel keeps the paper's ≤1.2 s declaration.

        Floor: one 50 ms counting window plus the capped-backoff
        retransmit budget 23 × 50 ms = 1.15 s.  The ladder must not
        absorb (its last verified report is older than the grace by the
        time the exhaustion fires).
        """
        dead = ControlPlaneFailure(1.0, start_time=2.0, seed=3)
        _, monitor, ladder = deploy(sim, reverse_loss_model=dead)
        monitor.start()
        sim.run(until=5.0)
        downs = monitor.log.by_kind(FailureKind.LINK_DOWN)
        assert downs, "dead reverse channel must declare LINK_DOWN"
        assert downs[0].time - 2.0 <= 1.201
        assert ladder.state is LadderState.DECLARED

    def test_flap_schedule_cycles_ladder_without_declaring(self, sim):
        """Control flapping cycles the ladder >= 3 times, never DECLARED.

        0.6 s of dead control every 1.5 s: long enough to saturate the
        backoff (sends at +0.05/+0.15/+0.35 into the dead window) and
        reach FREEZE, short enough that the retransmit budget (1.15 s)
        never exhausts before the channel returns and a verified report
        steps the ladder back down.
        """
        flap = IntermittentFailure(ControlPlaneFailure(1.0, seed=5),
                                   period_s=1.5, on_fraction=0.4,
                                   phase_s=0.25)
        _, monitor, ladder = deploy(sim, reverse_loss_model=flap)
        recoveries = []
        original = ladder.on_signal

        def spy(signal, now):
            before = ladder.state
            original(signal, now)
            if (signal == "recovered" and before is not LadderState.HEALTHY
                    and ladder.state is LadderState.HEALTHY):
                recoveries.append((before, now))
            ladder.on_signal = spy  # keep self-installed across swaps

        for sender in (monitor.dedicated_sender, monitor.tree_sender):
            sender.impairment_taps[:] = [
                spy if tap == original else tap
                for tap in sender.impairment_taps]
        monitor.start()
        sim.run(until=10.0)
        assert monitor.log.by_kind(FailureKind.LINK_DOWN) == []
        assert ladder.state is not LadderState.DECLARED
        assert len(recoveries) >= 3, (
            f"expected >=3 full ladder cycles, saw {len(recoveries)}")

    def test_frozen_flags_revalidated_against_live_window(self, sim):
        """Genuine loss re-flags after a FREEZE recovery; ghosts do not.

        A persistent 100% entry-loss fault flags ``hp``.  Control then
        goes dead long enough to FREEZE the ladder (holding the flag)
        and comes back before exhaustion — the dead window (0.6 s) stays
        under the 0.75 s send spread, so the 5th retransmit always lands
        on a live channel; recovery clears the held flag and the very
        next live verified window re-raises it, because the loss is
        real.
        """
        data_loss = EntryLossFailure({"hp"}, 1.0, start_time=1.0, seed=1)
        flap = IntermittentFailure(ControlPlaneFailure(1.0, seed=5),
                                   period_s=4.0, on_fraction=0.15,
                                   phase_s=2.0)
        _, monitor, ladder = deploy(sim, reverse_loss_model=flap,
                                    data_loss_model=data_loss)
        monitor.start()
        sim.run(until=2.0)
        assert monitor.entry_is_flagged("hp")  # flagged before the freeze
        sim.run(until=2.55)  # inside the dead window: saturation -> FREEZE
        assert ladder.state is LadderState.FREEZE
        assert "hp" in ladder.held_flags
        sim.run(until=3.5)  # control back: recovery clears held flags
        assert ladder.state is LadderState.HEALTHY
        assert "hp" in ladder.revalidated
        sim.run(until=6.0)  # next live windows re-raise the genuine flag
        assert monitor.entry_is_flagged("hp")
        assert monitor.log.by_kind(FailureKind.LINK_DOWN) == []
