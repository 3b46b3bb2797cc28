"""Unit tests for the I1/I2/I5/I6 invariant checkers.

The end-to-end behaviour of the invariants (including I3/I4 attribution
on real schedules) is covered by ``test_harness.py``; here the individual
checkers are exercised against minimal fakes and a real link, proving
each one passes on consistent state and produces a precise violation on
tampered state.
"""

from __future__ import annotations

import types

from repro.chaos.invariants import (
    SessionTracker,
    check_attribution,
    check_conservation,
    check_integrity,
    check_liveness,
)
from repro.chaos.perturbations import ChaosModel, Duplicate
from repro.chaos.schedule import FaultSpec
from repro.core.hashtree import HashTree, HashTreeParams
from repro.core.output import FailureKind, FailureLog, FailureReport
from repro.core.protocol import ReceiverState, SenderState
from repro.simulator.link import Link
from repro.simulator.packet import Packet, PacketKind


def fsm(**attrs):
    defaults = dict(fsm_id="d", session_id=1, restarts=0, _timer=None,
                    rejected_corrupt=0)
    defaults.update(attrs)
    return types.SimpleNamespace(**defaults)


def monitor(sender=None, receiver=None):
    return types.SimpleNamespace(
        dedicated_sender=sender, tree_sender=None,
        dedicated_receiver=receiver, tree_receiver=None)


class _Sink:
    def receive(self, packet, in_port):
        pass


class TestLiveness:
    def test_idle_and_failed_need_no_timer(self):
        m = monitor(sender=fsm(state=SenderState.IDLE),
                    receiver=fsm(state=ReceiverState.IDLE))
        assert check_liveness(m, 1.0) == []
        m = monitor(sender=fsm(state=SenderState.FAILED))
        assert check_liveness(m, 1.0) == []

    def test_timer_driven_state_without_timer_is_deadlock(self):
        for state in (SenderState.WAIT_ACK, SenderState.COUNTING,
                      SenderState.WAIT_REPORT):
            m = monitor(sender=fsm(state=state, _timer=None))
            violations = check_liveness(m, 2.0)
            assert [v.invariant for v in violations] == ["I1"]
            assert "deadlocked" in violations[0].detail
        m = monitor(receiver=fsm(state=ReceiverState.WAIT_TO_SEND))
        assert [v.invariant for v in check_liveness(m, 2.0)] == ["I1"]

    def test_armed_timer_is_alive(self):
        m = monitor(sender=fsm(state=SenderState.WAIT_ACK, _timer=object()))
        assert check_liveness(m, 2.0) == []


class TestSessionMonotonicity:
    def test_forward_progress_is_clean(self):
        sender = fsm(state=SenderState.COUNTING, session_id=3)
        m = monitor(sender=sender)
        tracker = SessionTracker(m)
        sender.session_id = 7
        assert tracker.check(m, 1.0) == []

    def test_sender_regression_flagged_even_across_restart(self):
        sender = fsm(state=SenderState.COUNTING, session_id=5)
        m = monitor(sender=sender)
        tracker = SessionTracker(m)
        sender.session_id = 2
        sender.restarts = 1  # sender epochs persist: restart is no excuse
        violations = tracker.check(m, 1.0)
        assert [v.invariant for v in violations] == ["I2"]
        assert "5 -> 2" in violations[0].detail

    def test_receiver_regression_allowed_only_across_restart(self):
        receiver = fsm(state=ReceiverState.IDLE, session_id=5)
        m = monitor(receiver=receiver)
        tracker = SessionTracker(m)
        receiver.session_id = 0
        receiver.restarts = 1  # stateless reboot: legitimate reset
        assert tracker.check(m, 1.0) == []
        receiver.session_id = 4
        assert tracker.check(m, 2.0) == []  # re-baselined after the restart
        receiver.session_id = 1  # regression with no restart this interval
        assert [v.invariant for v in tracker.check(m, 3.0)] == ["I2"]


class _CountingTree:
    """A real hash tree that counts its ``hash_path`` calls."""

    def __init__(self):
        self.tree = HashTree(HashTreeParams(width=8, depth=2, split=2,
                                            pipelined=True), seed=1)
        self.calls = 0

    def hash_path(self, entry):
        self.calls += 1
        return self.tree.hash_path(entry)


class TestIncrementalAttribution:
    """``since`` at the end of the log: nothing to attribute, nothing hashed."""

    DEDICATED = ["hp0", "hp1"]
    BEST_EFFORT = [f"be{i}" for i in range(6)]

    def _setup(self):
        tree = _CountingTree()
        mon = types.SimpleNamespace(
            tree_strategy=types.SimpleNamespace(tree=tree))
        schedule = [FaultSpec("entry_loss", "link:a->b", params={
            "entries": ["be3"], "rate": 1.0, "start": 1.0, "end": None})]
        return tree, mon, schedule

    def test_tick_without_a_new_report_hashes_nothing(self):
        tree, mon, schedule = self._setup()
        log = FailureLog()
        args = (schedule, mon, self.DEDICATED, self.BEST_EFFORT, "a->b")
        assert check_attribution(log, *args) == []
        log.record(FailureReport(FailureKind.TREE_LEAF, 2.0,
                                 hash_path=tree.tree.hash_path("be3")))
        assert check_attribution(log, *args, since=1) == []
        assert check_attribution(log, *args, since=5) == []
        assert tree.calls == 0

    def test_a_late_tree_leaf_report_is_still_attributed(self):
        tree, mon, schedule = self._setup()
        log = FailureLog()
        args = (schedule, mon, self.DEDICATED, self.BEST_EFFORT, "a->b")
        explained = FailureReport(FailureKind.TREE_LEAF, 2.0,
                                  hash_path=tree.tree.hash_path("be3"))
        other = next(e for e in self.BEST_EFFORT
                     if tree.tree.hash_path(e) != explained.hash_path)
        invented = FailureReport(FailureKind.TREE_LEAF, 2.5,
                                 hash_path=tree.tree.hash_path(other))
        log.record(explained)
        assert check_attribution(log, *args, since=0) == []
        assert tree.calls == len(self.DEDICATED) + len(self.BEST_EFFORT)
        log.record(invented)
        violations = check_attribution(log, *args, since=1)
        assert [v.invariant for v in violations] == ["I3"]
        assert violations[0].time == 2.5
        assert "tree_leaf" in violations[0].detail
        # incremental == whole-log, report for report
        assert check_attribution(log, *args) == violations


class TestConservation:
    def run_link(self, sim, chaos=None):
        link = Link(sim, _Sink(), 0, bandwidth_bps=None, delay_s=0.001)
        if chaos is not None:
            chaos.attach(link)
        for i in range(40):
            link.send(Packet(PacketKind.DATA, "e", 400, seq=i))
        sim.run()  # full drain: conservation only holds on a quiet wire
        return link

    def test_clean_link_conserves(self, sim):
        link = self.run_link(sim)
        assert check_conservation([link], sim.now) == []

    def test_duplication_enters_the_ledger(self, sim):
        link = self.run_link(sim, ChaosModel([Duplicate(1.0, seed=3)]))
        assert link.chaos.dup_scheduled == 40
        assert check_conservation([link], sim.now) == []

    def test_tampered_stats_violate(self, sim):
        link = self.run_link(sim)
        link.stats.delivered -= 1  # simulate a lost-accounting bug
        violations = check_conservation([link], sim.now)
        assert [v.invariant for v in violations] == ["I5"]
        assert "delivered" in violations[0].detail


class TestIntegrity:
    def chaos_with_corruptions(self, n):
        model = ChaosModel([])
        model.corrupted_control = n
        return model

    def test_balanced_ledger_passes(self):
        m = monitor(sender=fsm(state=SenderState.IDLE, rejected_corrupt=2),
                    receiver=fsm(state=ReceiverState.IDLE,
                                 rejected_corrupt=1))
        assert check_integrity(m, [self.chaos_with_corruptions(3)], 1.0) == []

    def test_acted_on_corruption_flagged(self):
        m = monitor(sender=fsm(state=SenderState.IDLE, rejected_corrupt=0))
        violations = check_integrity(m, [self.chaos_with_corruptions(2)], 1.0)
        assert [v.invariant for v in violations] == ["I6"]
        assert "2" in violations[0].detail
