"""Tests for the partial-deployment congestion guard (§4.3 fn. 2)."""

from __future__ import annotations


from repro.core.congestion import GuardedSenderStrategy, QueueGuard
from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.output import FailureKind
from repro.fabric import FabricNetwork, line
from repro.simulator.apps import FlowGenerator
from repro.simulator.engine import Simulator
from repro.simulator.failures import EntryLossFailure


def partial_monitor(sim, net, config):
    """FANcY only at the two ends of ``net``'s line, control messages
    (which carry no entry) routed across the legacy switches between."""
    first, last = net.graph.nodes[0], net.graph.nodes[-1]
    net.add_entry(None, first, last)
    return FancyLinkMonitor(
        sim, net.switch(first), net.port_to(first, net.graph.nodes[1]),
        net.switch(last), net.port_to(last, net.graph.nodes[-2]), config)


class TestQueueGuard:
    def test_no_traffic_no_congestion(self, sim):
        net = FabricNetwork(sim, line(3))
        guard = QueueGuard(sim, net.switches.values(), threshold_packets=10)
        guard.start()
        sim.run(until=1.0)
        assert guard.congested_intervals == []
        assert guard.samples > 100

    def test_detects_congested_interval(self, sim):
        # 2 Mbps bottleneck chain, 10 Mbps offered: queues build fast.
        net = FabricNetwork(sim, line(3), link_bandwidth_bps=2e6)
        net.add_entry("e", "s0", "s2")
        guard = QueueGuard(sim, net.switches.values(), threshold_packets=10)
        guard.start()
        FlowGenerator(sim, net.host("s0"), "e", rate_bps=10e6, flows_per_second=20,
                      seed=1).start()
        sim.run(until=2.0)
        guard.stop()
        assert guard.congested_intervals or guard.currently_congested is False
        assert guard.congested_during(0.0, 2.0)

    def test_congested_during_window_logic(self, sim):
        guard = QueueGuard(sim, [])
        guard.congested_intervals = [(1.0, 2.0)]
        assert guard.congested_during(0.5, 1.5)
        assert guard.congested_during(1.5, 3.0)
        assert not guard.congested_during(2.5, 3.0)
        assert not guard.congested_during(0.0, 0.9)

    def test_open_interval_counts(self, sim):
        guard = QueueGuard(sim, [])
        guard._congested_since = 1.0
        assert guard.congested_during(1.5, 2.0)


class RecordingStrategy:
    def __init__(self):
        self.ended = []

    def begin_session(self, sid):
        pass

    def process_packet(self, p, sid, entry=None):
        return True

    def end_session(self, remote, sid):
        self.ended.append(sid)
        return ["finding"]


class TestGuardedStrategy:
    def test_clean_session_passes_through(self, sim):
        inner = RecordingStrategy()
        guard = QueueGuard(sim, [])
        guarded = GuardedSenderStrategy(inner, guard, sim)
        guarded.begin_session(1)
        assert guarded.end_session(None, 1) == ["finding"]
        assert inner.ended == [1]

    def test_congested_session_discarded(self, sim):
        inner = RecordingStrategy()
        guard = QueueGuard(sim, [])
        guard._congested_since = 0.0  # congested right now
        guarded = GuardedSenderStrategy(inner, guard, sim)
        guarded.begin_session(1)
        assert guarded.end_session(None, 1) == []
        assert inner.ended == []
        assert guarded.sessions_discarded == 1

    def test_attribute_delegation(self, sim):
        inner = RecordingStrategy()
        guarded = GuardedSenderStrategy(inner, QueueGuard(sim, []), sim)
        assert guarded.ended == []


class TestPartialDeploymentScenario:
    def _run(self, with_guard: bool) -> FancyLinkMonitor:
        sim = Simulator()
        # Bottlenecked middle hop: heavy congestion, NO gray failure.
        # Small TM queues keep drops (not just delay) flowing, and the
        # retransmission timeout is sized above the worst-case queueing
        # delay so the protocol itself survives the congestion.  The
        # bottleneck must sit at a *legacy* (middle) switch: s1's TM drops
        # happen between the two counting points, unlike s0's own TM.
        net = FabricNetwork(sim, line(4), tm_queue_packets=30)
        net.link("s1", "s2").bandwidth_bps = 1.5e6
        net.add_entry("e", "s0", "s3")
        monitor = partial_monitor(
            sim, net, FancyConfig(high_priority=["e"], tree_params=None,
                                  rtx_timeout_s=0.4))
        if with_guard:
            # Threshold low enough that the guard trips before the first
            # congestion-dirtied session closes.
            guard = QueueGuard(sim, net.switches.values(), threshold_packets=5,
                               sample_interval_s=0.002)
            guard.start()
            monitor.attach_congestion_guard(guard)
        FlowGenerator(sim, net.host("s0"), "e", rate_bps=8e6, flows_per_second=20,
                      seed=1).start()
        monitor.start()
        sim.run(until=4.0)
        return monitor

    def test_unguarded_partial_deployment_misattributes_congestion(self):
        """Without the guard, mid-path TM drops look like a gray failure —
        exactly why footnote 2 exists."""
        monitor = self._run(with_guard=False)
        assert monitor.log.by_kind(FailureKind.DEDICATED_ENTRY)

    def test_guard_suppresses_congestion_false_alarms(self):
        monitor = self._run(with_guard=True)
        assert not monitor.log.by_kind(FailureKind.DEDICATED_ENTRY)
        assert monitor.dedicated_sender.strategy.sessions_discarded > 0

    def test_guard_does_not_mask_real_failures_on_clean_path(self):
        """On an uncongested path, real gray failures still surface."""
        sim = Simulator()
        net = FabricNetwork(sim, line(4))
        net.link("s1", "s2").loss_model = EntryLossFailure(
            {"e"}, 0.5, start_time=1.0, seed=1)
        net.add_entry("e", "s0", "s3")
        monitor = partial_monitor(
            sim, net, FancyConfig(high_priority=["e"], tree_params=None))
        guard = QueueGuard(sim, net.switches.values(), threshold_packets=20)
        guard.start()
        monitor.attach_congestion_guard(guard)
        FlowGenerator(sim, net.host("s0"), "e", rate_bps=1e6, flows_per_second=10,
                      seed=1).start()
        monitor.start()
        sim.run(until=5.0)
        assert monitor.entry_is_flagged("e")
