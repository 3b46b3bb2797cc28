"""Integration tests: per-port monitoring on a star, intermittent
failures, and the Figure 1 input-translation glue."""

from __future__ import annotations

import pytest

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.entries import MonitoringInput
from repro.core.memory import MemoryBudgetError
from repro.core.output import FailureKind
from repro.fabric import FabricDeployment, FabricNetwork, star
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import EntryLossFailure, IntermittentFailure
from repro.simulator.topology import TwoSwitchTopology


class TestStar:
    def _build(self, sim, n_peers=3):
        net = FabricNetwork(sim, star(n_peers))
        entries = {}
        for i in range(n_peers):
            peer_entries = [f"peer{i}/e{j}" for j in range(2)]
            for entry in peer_entries:
                net.add_entry(entry, "hub", f"peer{i}")
            entries[i] = peer_entries
            for j, entry in enumerate(peer_entries):
                FlowGenerator(sim, net.host("hub"), entry, rate_bps=1e6,
                              flows_per_second=10, seed=i * 10 + j,
                              flow_id_base=(i * 10 + j + 1) * 1_000_000).start()
        return net, entries

    def test_traffic_reaches_correct_peer(self, sim):
        net, entries = self._build(sim)
        sim.run(until=2.0)
        for i in entries:
            assert net.host(f"peer{i}").packets_received > 0

    def test_per_port_monitors_localize_to_the_right_port(self, sim):
        """The hub monitors every port, like the paper's 64-port switch;
        a failure on one port flags only that port's monitor."""
        net, entries = self._build(sim)
        net.link("hub", "peer1").loss_model = EntryLossFailure(
            {"peer1/e0"}, 0.5, start_time=1.0, seed=1)
        deployment = FabricDeployment(
            net,
            config=FancyConfig(
                high_priority=[e for es in entries.values() for e in es],
                tree_params=None,
            ),
            links=[("hub", f"peer{i}") for i in entries],
        )
        deployment.start()
        sim.run(until=5.0)
        flagged = [link_id for link_id, flags in deployment.flagged().items()
                   if "peer1/e0" in flags]
        assert flagged == ["hub->peer1"]
        assert deployment.monitors["hub->peer1"].up_port == 2

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            star(0)
        net = FabricNetwork(sim, star(2))
        with pytest.raises(KeyError):
            net.port_to("hub", "peer5")


class TestIntermittentFailures:
    def test_drops_only_in_on_windows(self):
        inner = EntryLossFailure({"e"}, 1.0)
        flaky = IntermittentFailure(inner, period_s=1.0, on_fraction=0.5)
        from repro.simulator.packet import Packet, PacketKind

        pkt = Packet(PacketKind.DATA, "e", 1500)
        assert flaky(pkt, 0.2) is True      # on-window
        assert flaky(pkt, 0.7) is False     # off-window
        assert flaky(pkt, 1.3) is True      # next period

    def test_validation(self):
        inner = EntryLossFailure({"e"}, 1.0)
        with pytest.raises(ValueError):
            IntermittentFailure(inner, period_s=0, on_fraction=0.5)
        with pytest.raises(ValueError):
            IntermittentFailure(inner, period_s=1, on_fraction=0)

    def test_fancy_detects_intermittent_failure(self, sim):
        """§2.1's hardest case: a failure that appears intermittently is
        still caught whenever an on-window overlaps counting sessions."""
        inner = EntryLossFailure({"e"}, 1.0, seed=1)
        flaky = IntermittentFailure(inner, period_s=1.0, on_fraction=0.3,
                                    phase_s=1.0)
        topo = TwoSwitchTopology(sim, loss_model=flaky)
        monitor = FancyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            FancyConfig(high_priority=["e"], tree_params=None),
        )
        FlowGenerator(sim, topo.source, "e", rate_bps=1e6, flows_per_second=10,
                      seed=1).start()
        monitor.start()
        sim.run(until=6.0)
        reports = monitor.log.by_kind(FailureKind.DEDICATED_ENTRY)
        assert reports
        # Reports cluster in on-windows: every report's session saw drops.
        assert monitor.entry_is_flagged("e")


class TestConfigFromMonitoringInput:
    def test_figure1_contract_roundtrip(self):
        spec = MonitoringInput(
            high_priority=[f"hp{i}" for i in range(100)],
            best_effort=[f"be{i}" for i in range(50)],
            memory_bytes=20 * 1024,
        )
        config = FancyConfig.from_monitoring_input(spec, seed=7)
        assert list(config.high_priority) == list(spec.high_priority)
        assert config.tree_params is not None
        assert config.tree_params.depth == 3 and config.tree_params.split == 2
        assert config.seed == 7

    def test_figure1_error_on_budget_overflow(self):
        """Figure 1: 'The system returns an error, if the set of
        high-priority entries cannot be supported with the memory
        budget.'"""
        spec = MonitoringInput(
            high_priority=[f"hp{i}" for i in range(2000)],
            memory_bytes=1024,
        )
        with pytest.raises(MemoryBudgetError):
            FancyConfig.from_monitoring_input(spec)

    def test_dedicated_only_input(self):
        spec = MonitoringInput(high_priority=["a", "b"], memory_bytes=4096)
        config = FancyConfig.from_monitoring_input(spec)
        assert config.tree_params is None

    def test_config_runs_end_to_end(self, sim):
        spec = MonitoringInput(high_priority=["hp"], best_effort=["be"],
                               memory_bytes=20 * 1024)
        failure = EntryLossFailure({"be"}, 0.5, start_time=1.0, seed=1)
        topo = TwoSwitchTopology(sim, loss_model=failure)
        monitor = FancyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            FancyConfig.from_monitoring_input(spec),
        )
        for i, entry in enumerate(("hp", "be")):
            FlowGenerator(sim, topo.source, entry, rate_bps=1e6,
                          flows_per_second=10, seed=i,
                          flow_id_base=(i + 1) * 1_000_000).start()
        monitor.start()
        sim.run(until=5.0)
        assert monitor.entry_is_flagged("be")
        assert not monitor.entry_is_flagged("hp")
