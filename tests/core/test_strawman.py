"""Tests for the §4.1 strawman protocol — including the failure modes
that motivated FANcY's stop-and-wait design."""

from __future__ import annotations

import pytest

from repro.core.strawman import StrawmanLinkMonitor, StrawmanSender
from repro.simulator.apps import FlowGenerator
from repro.simulator.engine import Simulator
from repro.simulator.failures import ControlPlaneFailure, EntryLossFailure
from repro.simulator.packet import PacketKind
from repro.simulator.topology import TwoSwitchTopology


def deploy(sim, loss_model=None, reverse_loss_model=None, history=2,
           entries=("e",)):
    topo = TwoSwitchTopology(sim, loss_model=loss_model,
                             reverse_loss_model=reverse_loss_model)
    detections = []
    monitor = StrawmanLinkMonitor(
        sim, topo.upstream, 1, topo.downstream, 1, list(entries),
        history=history,
        on_detection=lambda e, lost, sid: detections.append((e, lost, sid)),
    )
    for i, entry in enumerate(entries):
        FlowGenerator(sim, topo.source, entry, rate_bps=1e6, flows_per_second=10,
                      seed=i + 1, flow_id_base=(i + 1) * 1_000_000, destination=topo.sink).start()
    monitor.start()
    return topo, monitor, detections


class TestHappyPath:
    def test_detects_gray_failure(self, sim):
        failure = EntryLossFailure({"e"}, 0.3, start_time=1.0, seed=1)
        _, monitor, detections = deploy(sim, loss_model=failure)
        sim.run(until=4.0)
        assert detections
        assert monitor.sender.flagged_entries == ["e"]

    def test_no_loss_no_detection(self, sim):
        _, monitor, detections = deploy(sim)
        sim.run(until=3.0)
        assert detections == []
        assert monitor.sender.sessions_checked > 10

    def test_counting_is_continuous(self, sim):
        """The strawman's one advantage over stop-and-wait: no gaps."""
        _, monitor, _ = deploy(sim)
        sim.run(until=3.0)
        # Loss-free reverse channel: essentially every session that carried
        # traffic is verified (rare long traffic gaps can delay the in-band
        # rotation signal past the eviction horizon).
        assert monitor.sender.sessions_lost <= 2
        assert monitor.sender.sessions_checked > 20

    def test_sessions_rotate_on_schedule(self, sim):
        _, monitor, _ = deploy(sim)
        sim.run(until=1.0)
        # 50 ms sessions: ~20 rotations in 1 s.
        assert 15 <= monitor.sender.session_id <= 25


class TestWeaknesses:
    def test_lost_reports_lose_measurements(self, sim):
        """§4.1: if a counter sent by the downstream is lost, all
        measurements for that session are lost — no retransmission."""
        reverse_failure = ControlPlaneFailure(0.5, kinds={PacketKind.FANCY_REPORT},
                                              seed=2)
        _, monitor, _ = deploy(sim, reverse_loss_model=reverse_failure)
        sim.run(until=4.0)
        assert monitor.sender.sessions_lost > 5

    def test_reverse_blackhole_blinds_monitor(self, sim):
        """A gray failure on the reverse direction makes the forward link
        unmonitorable — the exact scenario §4.1 calls out."""
        data_failure = EntryLossFailure({"e"}, 0.5, start_time=1.0, seed=1)
        reverse_dead = ControlPlaneFailure(1.0, seed=2)
        _, monitor, detections = deploy(sim, loss_model=data_failure,
                                        reverse_loss_model=reverse_dead)
        sim.run(until=4.0)
        assert detections == []          # failure present but invisible
        assert monitor.sender.sessions_lost > 0

    def test_history_bounds_memory_times_k(self):
        """§4.1: reliability across k sessions costs k× the memory."""
        sim = Simulator()
        sender = StrawmanSender(sim, lambda *a: None, ["e"], history=8)
        assert sender.memory_counter_sets == 8

    def test_larger_history_tolerates_more_report_loss(self):
        """With history k, bursts of up to k-1 lost reports are mostly
        absorbed; a 2-session history under the same loss pattern is not."""

        def run(history: int) -> tuple[int, int]:
            sim = Simulator()
            drop_pattern = iter([True, True, False] * 1000)
            reverse = ControlPlaneFailure(1.0, kinds={PacketKind.FANCY_REPORT},
                                          seed=3)
            orig = reverse.matches
            reverse.matches = lambda p: orig(p) and next(drop_pattern)
            _, monitor, _ = deploy(sim, reverse_loss_model=reverse,
                                   history=history)
            sim.run(until=3.0)
            return monitor.sender.sessions_lost, monitor.sender.sessions_checked

        lost_small, _ = run(history=2)
        lost_big, checked_big = run(history=4)
        assert lost_big < lost_small
        assert lost_big <= 2          # isolated jitter at most
        assert checked_big > 20

    def test_minimum_history_is_two(self, sim):
        with pytest.raises(ValueError):
            StrawmanSender(sim, lambda *a: None, ["e"], history=1)


class TestComparisonWithFancy:
    def test_fancy_survives_where_strawman_goes_blind(self, sim):
        """Same lossy reverse channel: FANcY's stop-and-wait retransmits
        and keeps detecting; the strawman drops sessions."""
        from repro.core.detector import FancyConfig, FancyLinkMonitor

        data_failure = EntryLossFailure({"e"}, 0.5, start_time=1.0, seed=1)
        reverse = ControlPlaneFailure(0.6, kinds={PacketKind.FANCY_REPORT}, seed=2)
        topo = TwoSwitchTopology(sim, loss_model=data_failure,
                                 reverse_loss_model=reverse)
        fancy = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                                 FancyConfig(high_priority=["e"], tree_params=None))
        FlowGenerator(sim, topo.source, "e", rate_bps=1e6, flows_per_second=10,
                      seed=1, destination=topo.sink).start()
        fancy.start()
        sim.run(until=6.0)
        assert fancy.entry_is_flagged("e")
