"""Integration tests for FancyLinkMonitor on the simulator."""

from __future__ import annotations

import pytest

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams
from repro.core.output import FailureKind
from repro.fabric import FabricNetwork, line
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import ControlPlaneFailure, EntryLossFailure
from repro.simulator.topology import TwoSwitchTopology

SMALL_TREE = HashTreeParams(width=16, depth=3, split=2, pipelined=True)


def build(sim, loss_model=None, reverse_loss_model=None, high_priority=(),
          tree=SMALL_TREE, **cfg_kw):
    topo = TwoSwitchTopology(sim, loss_model=loss_model,
                             reverse_loss_model=reverse_loss_model)
    config = FancyConfig(high_priority=list(high_priority), tree_params=tree,
                         **cfg_kw)
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1, config)
    return topo, monitor


def traffic(sim, topo, entries, rate=1e6, fps=10, seed=0):
    for i, entry in enumerate(entries):
        FlowGenerator(sim, topo.source, entry, rate_bps=rate,
                      flows_per_second=fps, seed=seed + i,
                      flow_id_base=(i + 1) * 1_000_000).start()


class TestDedicatedPath:
    def test_detects_failure_on_dedicated_entry(self, sim):
        failure = EntryLossFailure({"hp"}, 0.2, start_time=1.0, seed=1)
        topo, monitor = build(sim, loss_model=failure, high_priority=["hp"],
                              tree=None)
        traffic(sim, topo, ["hp"])
        monitor.start()
        sim.run(until=4.0)
        report = monitor.log.first_report(kind=FailureKind.DEDICATED_ENTRY,
                                          entry="hp")
        assert report is not None
        assert report.time >= 1.0
        assert monitor.entry_is_flagged("hp")

    def test_detection_latency_about_one_session(self, sim):
        failure = EntryLossFailure({"hp"}, 1.0, start_time=1.0, seed=1)
        topo, monitor = build(sim, loss_model=failure, high_priority=["hp"],
                              tree=None)
        traffic(sim, topo, ["hp"], rate=2e6, fps=20)
        monitor.start()
        sim.run(until=3.0)
        dt = monitor.log.detection_time(1.0, kind=FailureKind.DEDICATED_ENTRY,
                                        entry="hp")
        # §5.1.1: roughly exchange frequency (50 ms) + open/close (~40 ms).
        assert dt is not None and dt < 0.4

    def test_no_failure_no_reports(self, sim):
        topo, monitor = build(sim, high_priority=["hp"], tree=None)
        traffic(sim, topo, ["hp"])
        monitor.start()
        sim.run(until=3.0)
        assert len(monitor.log) == 0

    def test_healthy_entries_not_flagged(self, sim):
        failure = EntryLossFailure({"bad"}, 1.0, start_time=1.0, seed=1)
        topo, monitor = build(sim, loss_model=failure,
                              high_priority=["bad", "good"], tree=None)
        traffic(sim, topo, ["bad", "good"])
        monitor.start()
        sim.run(until=4.0)
        assert monitor.entry_is_flagged("bad")
        assert not monitor.entry_is_flagged("good")


class TestTreePath:
    def test_detects_best_effort_failure(self, sim):
        failure = EntryLossFailure({"be3"}, 0.5, start_time=1.0, seed=1)
        topo, monitor = build(sim, loss_model=failure)
        traffic(sim, topo, [f"be{i}" for i in range(6)])
        monitor.start()
        sim.run(until=6.0)
        hp = monitor.tree_strategy.tree.hash_path("be3")
        report = monitor.log.first_report(kind=FailureKind.TREE_LEAF, hash_path=hp)
        assert report is not None
        assert monitor.entry_is_flagged("be3")

    def test_tree_detection_latency_about_three_sessions(self, sim):
        failure = EntryLossFailure({"be0"}, 1.0, start_time=1.0, seed=1)
        topo, monitor = build(sim, loss_model=failure)
        traffic(sim, topo, ["be0", "be1"], rate=2e6, fps=20)
        monitor.start()
        sim.run(until=6.0)
        hp = monitor.tree_strategy.tree.hash_path("be0")
        dt = monitor.log.detection_time(1.0, kind=FailureKind.TREE_LEAF,
                                        hash_path=hp)
        # §5.1.2: lower bound ≈ 3 × 200 ms zooming; allow protocol overhead.
        assert dt is not None
        assert 0.3 < dt < 1.5

    def test_dedicated_entry_never_counted_by_tree(self, sim):
        failure = EntryLossFailure({"hp"}, 1.0, start_time=1.0, seed=1)
        topo, monitor = build(sim, loss_model=failure, high_priority=["hp"])
        traffic(sim, topo, ["hp", "be0"])
        monitor.start()
        sim.run(until=5.0)
        assert monitor.log.by_kind(FailureKind.DEDICATED_ENTRY)
        assert not monitor.log.by_kind(FailureKind.TREE_LEAF)

    def test_both_structures_work_together(self, sim):
        failure = EntryLossFailure({"hp", "be0"}, 1.0, start_time=1.0, seed=1)
        topo, monitor = build(sim, loss_model=failure, high_priority=["hp"])
        traffic(sim, topo, ["hp", "be0", "be1"])
        monitor.start()
        sim.run(until=6.0)
        assert monitor.entry_is_flagged("hp")
        assert monitor.entry_is_flagged("be0")
        assert not monitor.entry_is_flagged("be1")


class TestControlResilience:
    def test_survives_lossy_control_channel(self, sim):
        """Control-message losses must not break detection (§4.1)."""
        data_failure = EntryLossFailure({"hp"}, 1.0, start_time=1.0, seed=1)
        ctrl_failure = ControlPlaneFailure(0.3, seed=2)
        from repro.simulator.failures import CompositeFailure
        topo, monitor = build(
            sim,
            loss_model=CompositeFailure([data_failure, ctrl_failure]),
            reverse_loss_model=ControlPlaneFailure(0.3, seed=3),
            high_priority=["hp"], tree=None,
        )
        traffic(sim, topo, ["hp"])
        monitor.start()
        sim.run(until=6.0)
        assert monitor.entry_is_flagged("hp")

    def test_dead_link_reported_as_link_down(self, sim):
        dead = ControlPlaneFailure(1.0)
        topo, monitor = build(sim, loss_model=dead, high_priority=["hp"],
                              tree=None)
        monitor.start()
        sim.run(until=3.0)
        assert monitor.log.by_kind(FailureKind.LINK_DOWN)


class TestPartialDeployment:
    def test_monitor_across_chain_detects_midpath_failure(self, sim):
        """§4.3: FANcY at the ends of a path detects failures anywhere on
        it, without pinpointing the hop."""
        net = FabricNetwork(sim, line(4))
        net.link("s1", "s2").loss_model = EntryLossFailure(
            {"hp"}, 0.5, start_time=1.0, seed=1)
        net.add_entry("hp", "s0", "s3")
        net.add_entry(None, "s0", "s3")  # routes the entry-less control messages
        config = FancyConfig(high_priority=["hp"], tree_params=None)
        monitor = FancyLinkMonitor(sim, net.switch("s0"), net.port_to("s0", "s1"),
                                   net.switch("s3"), net.port_to("s3", "s2"), config)
        FlowGenerator(sim, net.host("s0"), "hp", rate_bps=1e6, flows_per_second=10,
                      seed=1).start()
        monitor.start()
        sim.run(until=5.0)
        assert monitor.entry_is_flagged("hp")


class TestCongestionImmunity:
    def test_tm_drops_not_reported_as_gray_failure(self, sim):
        """§3: counters sit after the upstream TM, so congestion drops in
        the TM are invisible to FANcY."""
        topo = TwoSwitchTopology(sim, link_bandwidth_bps=2e6,
                                 tm_queue_packets=5)
        config = FancyConfig(high_priority=["hp"], tree_params=None)
        monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                                   config)
        # Offer 10 Mbps into a 2 Mbps link: heavy TM drops.
        FlowGenerator(sim, topo.source, "hp", rate_bps=10e6,
                      flows_per_second=20, seed=1).start()
        monitor.start()
        sim.run(until=4.0)
        assert topo.upstream.stats.dropped_tm > 0
        assert monitor.log.first_report(kind=FailureKind.DEDICATED_ENTRY) is None


class TestLifecycle:
    def test_stop_halts_sessions(self, sim):
        topo, monitor = build(sim, high_priority=["hp"], tree=None)
        monitor.start()
        sim.run(until=0.5)
        monitor.stop()
        before = monitor.dedicated_sender.session_id
        sim.run(until=2.0)
        assert monitor.dedicated_sender.session_id == before

    def test_staggered_start(self, sim):
        topo, monitor = build(sim, high_priority=["hp"], tree=None)
        monitor.start(delay=1.0)
        sim.run(until=0.5)
        assert monitor.dedicated_sender.session_id == 0
        sim.run(until=2.0)
        assert monitor.dedicated_sender.session_id >= 1

    def test_flagged_views(self, sim):
        failure = EntryLossFailure({"hp", "be0"}, 1.0, start_time=0.5, seed=1)
        topo, monitor = build(sim, loss_model=failure, high_priority=["hp"])
        traffic(sim, topo, ["hp", "be0"])
        monitor.start()
        sim.run(until=5.0)
        assert monitor.flagged_entries() == ["hp"]
        assert monitor.tree_strategy.tree.hash_path("be0") in monitor.flagged_leaf_paths()


class TestPortClaim:
    def test_second_monitor_on_same_port_rejected(self, sim):
        """Packets have one tag field: two monitors on one egress port
        would corrupt each other's counts, so the claim fails loudly."""
        topo = TwoSwitchTopology(sim)
        FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                         FancyConfig(high_priority=["e"], tree_params=None))
        with pytest.raises(RuntimeError, match="already has a counting monitor"):
            FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                             FancyConfig(high_priority=["e"], tree_params=None))

    def test_different_ports_coexist(self, sim):
        from repro.simulator.link import connect_duplex
        from repro.simulator.switch import Switch

        topo = TwoSwitchTopology(sim)
        other = Switch(sim, "C")
        connect_duplex(sim, topo.upstream, 5, other, 5)
        FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                         FancyConfig(high_priority=["e"], tree_params=None))
        FancyLinkMonitor(sim, topo.upstream, 5, other, 5,
                         FancyConfig(high_priority=["e"], tree_params=None))
