"""Tests for FabricDeployment: per-link monitors off one registry."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.fabric.builders import fat_tree, line, ring
from repro.fabric.deployment import FabricDeployment
from repro.fabric.graph import FabricNetwork
from repro.simulator.apps import FlowGenerator
from repro.simulator.engine import Simulator
from repro.simulator.failures import EntryLossFailure
from repro.simulator.udp import UdpSource
from repro.telemetry import Telemetry


def monitored_ring(sim, links=None, telemetry=None):
    net = FabricNetwork(sim, ring(4), telemetry=telemetry)
    config = FancyConfig(high_priority=["e"], tree_params=None,
                         dedicated_session_s=0.05, seed=9)
    return net, FabricDeployment(net, config=config, links=links,
                                 telemetry=telemetry)


class TestConstruction:
    def test_defaults_to_every_directed_link(self, sim):
        net, dep = monitored_ring(sim)
        assert dep.n_sessions == 8  # 4 undirected ring edges, both ways
        assert sorted(dep.monitors) == sorted(net.directed_link_ids())

    def test_link_selection_accepts_ids_and_pairs(self, sim):
        _net, dep = monitored_ring(sim, links=["s0->s1", ("s1", "s2")])
        assert list(dep.monitors) == ["s0->s1", "s1->s2"]
        assert dep.monitor("s0", "s1") is dep.monitors["s0->s1"]

    def test_per_link_seeds_differ(self, sim):
        _net, dep = monitored_ring(sim)
        seeds = {m.config.seed for m in dep.monitors.values()}
        assert len(seeds) == dep.n_sessions

    def test_empty_deployment_rejected(self, sim):
        net = FabricNetwork(sim, ring(4))
        with pytest.raises(ValueError):
            FabricDeployment(net, links=[])

    def test_telemetry_forks_share_registry(self, sim):
        telemetry = Telemetry()
        net, dep = monitored_ring(sim, links=["s0->s1", "s1->s2"],
                                  telemetry=telemetry)
        forks = [m.telemetry for m in dep.monitors.values()]
        assert all(f is not None for f in forks)
        assert all(f.metrics is telemetry.metrics for f in forks)
        # Private timelines: one monitor's state events don't pollute
        # another's detection records.
        assert forks[0].timeline is not forks[1].timeline


class TestDetection:
    def run_faulty_ring(self, sim, seed=9):
        net, dep = monitored_ring(sim)
        net.add_entry("e", "s0", "s2")
        net.link("s1", "s2").loss_model = EntryLossFailure(
            {"e"}, 1.0, start_time=0.4, seed=5)
        UdpSource(sim, net.host("s0").send, "e", flow_id=1,
                  rate_bps=640_000, packet_size=400, seed=seed).start()
        dep.start(stagger_s=0.002)
        sim.run(until=1.5)
        return net, dep

    def test_flag_attributed_to_failed_link_only(self, sim):
        _net, dep = self.run_faulty_ring(sim)
        assert dep.flagged() == {"s1->s2": ["e"]}
        assert dep.monitor("s1", "s2").entry_is_flagged("e")
        assert not dep.monitor("s0", "s1").entry_is_flagged("e")

    def test_sessions_complete_on_every_link(self, sim):
        _net, dep = self.run_faulty_ring(sim)
        completed = dep.sessions_completed()
        assert set(completed) == set(dep.monitors)
        assert all(n > 0 for n in completed.values())

    def test_detection_records_deterministic(self):
        from repro.simulator.engine import Simulator

        runs = []
        for _ in range(2):
            sim = Simulator()
            _net, dep = self.run_faulty_ring(sim)
            runs.append(dep.detection_records())
        assert runs[0] == runs[1]
        assert runs[0], "expected at least one detection record"
        assert all(rec[0] == "s1->s2" for rec in runs[0])

    def test_stop_halts_new_sessions(self, sim):
        net, dep = monitored_ring(sim, links=["s0->s1"])
        dep.start()
        sim.run(until=0.3)
        dep.stop()
        sim.run()  # drain: must terminate without monitors rescheduling
        assert sim.now < 10.0


ENTRIES = ["e0", "e1", "e2"]


def build_chain(sim, failure_hop=1, loss_rate=0.5):
    """Per-link FANcY on every forward link of ``line(4)``, with ``e1``
    lossy on the hop ``s{failure_hop} -> s{failure_hop + 1}``."""
    net = FabricNetwork(sim, line(4))
    net.link(f"s{failure_hop}", f"s{failure_hop + 1}").loss_model = \
        EntryLossFailure({"e1"}, loss_rate, start_time=1.0, seed=1)
    for entry in ENTRIES:
        net.add_entry(entry, "s0", "s3")
    path = list(net.switches)
    deployment = FabricDeployment(
        net, config=FancyConfig(high_priority=ENTRIES, tree_params=None),
        links=list(zip(path, path[1:])),
    )
    for i, entry in enumerate(ENTRIES):
        FlowGenerator(sim, net.host("s0"), entry, rate_bps=1e6, flows_per_second=10,
                      seed=i + 1, flow_id_base=(i + 1) * 1_000_000,
                      destination=net.host("s3")).start()
    return net, deployment


def localize(deployment, entry):
    """Links whose monitor flags ``entry``: the operator's localization."""
    return [link_id for link_id, entries in deployment.flagged().items()
            if entry in entries]


class TestFullDeployment:
    """§4.3: FANcY at every switch localizes a failure to one hop."""

    def test_monitors_every_link(self, sim):
        _net, deployment = build_chain(sim)
        assert list(deployment.monitors) == ["s0->s1", "s1->s2", "s2->s3"]

    def test_failure_localized_to_exactly_one_link(self, sim):
        """The whole point of per-link deployment: the failing hop is
        pinpointed, not just 'somewhere on the path'."""
        _net, deployment = build_chain(sim, failure_hop=1)
        deployment.start()
        sim.run(until=5.0)
        assert localize(deployment, "e1") == ["s1->s2"]

    def test_healthy_entries_nowhere_flagged(self, sim):
        _net, deployment = build_chain(sim)
        deployment.start()
        sim.run(until=5.0)
        assert localize(deployment, "e0") == []
        assert localize(deployment, "e2") == []

    def test_reports_attributed_to_raising_link(self, sim):
        _net, deployment = build_chain(sim, failure_hop=2)
        deployment.start()
        sim.run(until=5.0)
        raising = {link_id for link_id, *_ in deployment.detection_records()}
        assert raising == {"s2->s3"}

    def test_flagged_entries_view(self, sim):
        _net, deployment = build_chain(sim, failure_hop=0)
        deployment.start()
        sim.run(until=5.0)
        assert deployment.flagged() == {"s0->s1": ["e1"]}

    def test_staggered_start(self, sim):
        _net, deployment = build_chain(sim)
        deployment.start(stagger_s=0.01)
        sim.run(until=5.0)
        assert localize(deployment, "e1")

    def test_distinct_seeds_across_links(self, sim):
        net = FabricNetwork(sim, line(3))
        deployment = FabricDeployment(
            net, config=FancyConfig(high_priority=[]),
            links=["s0->s1", "s1->s2"])
        monitors = list(deployment.monitors.values())
        paths = {m.tree_strategy.tree.hash_path("e") for m in monitors}
        assert len(paths) == len(monitors)  # independent hash functions

    def test_stop_all(self, sim):
        _net, deployment = build_chain(sim)
        deployment.start()
        sim.run(until=1.0)
        deployment.stop()
        sessions = [m.dedicated_sender.session_id for m in deployment.monitors.values()]
        sim.run(until=3.0)
        assert [m.dedicated_sender.session_id
                for m in deployment.monitors.values()] == sessions


class TestPartialDeployment:
    """§4.3: one monitor across the ends of a line of legacy switches."""

    def _run(self, control_route: bool) -> FancyLinkMonitor:
        sim = Simulator()
        net = FabricNetwork(sim, line(4))
        net.link("s1", "s2").loss_model = EntryLossFailure(
            {"hp"}, 0.5, start_time=1.0, seed=1)
        net.add_entry("hp", "s0", "s3")
        if control_route:
            net.add_entry(None, "s0", "s3")
        monitor = FancyLinkMonitor(
            sim, net.switch("s0"), net.port_to("s0", "s1"),
            net.switch("s3"), net.port_to("s3", "s2"),
            FancyConfig(high_priority=["hp"], tree_params=None),
        )
        FlowGenerator(sim, net.host("s0"), "hp", rate_bps=1e6,
                      flows_per_second=10, seed=1, destination=net.host("s3")).start()
        monitor.start()
        sim.run(until=5.0)
        return monitor

    def test_legacy_switches_drop_control_without_its_route(self):
        monitor = self._run(control_route=False)
        assert monitor.dedicated_sender.sessions_completed == 0
        assert not monitor.entry_is_flagged("hp")

    def test_control_route_completes_sessions_and_flags(self):
        monitor = self._run(control_route=True)
        assert monitor.dedicated_sender.sessions_completed > 0
        assert monitor.entry_is_flagged("hp")


class TestFootprint:
    """What a monitor holds before it has found anything.

    The default tree's Appendix A.3 budget (7 nodes of 190 counters per
    side), the 100 K-cell output Bloom filter and the zoom tie-break RNG
    are allocated on first use, so the k = 4 fat tree's 64 idle monitors
    hold their roots and FSMs only.  Measured with ``tracemalloc`` around
    the deployment's construction: ≈ 45.3 KB per link when every store was
    allocated up front, ≈ 8.3 KB when each is allocated on first use.
    """

    #: Bytes per monitored link; between the two measurements above.
    MAX_BYTES_PER_LINK = 12_000

    def test_idle_monitors_hold_only_their_roots(self):
        net = FabricNetwork(Simulator(), fat_tree(4))
        gc.collect()
        tracemalloc.start()
        try:
            dep = FabricDeployment(net, config=FancyConfig())
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dep.n_sessions == 64
        assert all(m.tree_strategy is not None for m in dep.monitors.values())
        assert held / dep.n_sessions <= self.MAX_BYTES_PER_LINK, held
