"""Tests for the fabric detection→reroute control plane."""

from __future__ import annotations

from repro.core.detector import FancyConfig
from repro.core.hashtree import HashTreeParams
from repro.fabric.builders import ring
from repro.fabric.deployment import FabricDeployment
from repro.fabric.graph import FabricGraph, FabricNetwork
from repro.fabric.reroute import (
    FabricRerouteController,
    LfaTable,
    SelectiveRerouteApp,
)
from repro.simulator.failures import EntryLossFailure
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.udp import UdpSource


def path_graph(n: int) -> FabricGraph:
    g = FabricGraph("path")
    for i in range(n - 1):
        g.add_edge(f"p{i}", f"p{i + 1}")
    return g


class TestLfaTable:
    def test_repair_path_avoids_directed_link(self):
        lfa = LfaTable(ring(6))
        path = lfa.repair_path("s1", "s2", failed=("s1", "s2"))
        assert path == ["s1", "s0", "s5", "s4", "s3", "s2"]
        assert lfa.backup_next_hop("s1", "s2", ("s1", "s2")) == "s0"
        assert lfa.protectable(("s1", "s2"), "s2")

    def test_reverse_direction_stays_usable(self):
        lfa = LfaTable(ring(6))
        # Pruning s1->s2 must not prune s2->s1.
        assert lfa.repair_path("s2", "s1", failed=("s1", "s2")) == ["s2", "s1"]

    def test_unprotectable_on_a_path_graph(self):
        lfa = LfaTable(path_graph(3))
        assert lfa.repair_path("p1", "p2", failed=("p1", "p2")) is None
        assert not lfa.protectable(("p1", "p2"), "p2")

    def test_cache_returns_same_object(self):
        lfa = LfaTable(ring(6))
        first = lfa.repair_path("s1", "s2", ("s1", "s2"))
        assert lfa.repair_path("s1", "s2", ("s1", "s2")) is first


class TestSelectiveRerouteApp:
    def test_front_of_chain_beats_base_forwarder(self, sim):
        net = FabricNetwork(sim, ring(4))
        net.add_entry("e", "s0", "s2")
        app = SelectiveRerouteApp(net.switch("s0"))
        detour = net.port_to("s0", "s3")
        app.set_override("e", detour)
        data = Packet(kind=PacketKind.DATA, entry="e", flow_id=1, size=100)
        assert net.switch("s0").forwarding_override(data) == detour
        assert app.rerouted_packets == 1

    def test_only_forward_data_is_steered(self, sim):
        net = FabricNetwork(sim, ring(4))
        net.add_entry("e", "s0", "s2")
        app = SelectiveRerouteApp(net.switch("s0"))
        app.set_override("e", net.port_to("s0", "s3"))
        ack = Packet(kind=PacketKind.DATA, entry="e", flow_id=1, size=100,
                     reverse=True)
        assert app._decide(ack) is None
        assert app.rerouted_packets == 0

    def test_first_wins_sticky(self, sim):
        net = FabricNetwork(sim, ring(4))
        app = SelectiveRerouteApp(net.switch("s0"))
        app.set_override("e", 1)
        app.set_override("e", 2)  # concurrent second repair path loses
        assert app.overrides["e"] == 1
        app.clear("e")
        app.set_override("e", 2)
        assert app.overrides["e"] == 2

    def test_uninstall_restores_chain(self, sim):
        net = FabricNetwork(sim, ring(4))
        sw = net.switch("s0")
        before = list(sw._override_chain)
        app = SelectiveRerouteApp(sw)
        app.uninstall()
        assert list(sw._override_chain) == before


class TestClosedLoop:
    def wire(self, sim):
        net = FabricNetwork(sim, ring(6))
        net.add_entry("victim", "s0", "s2")
        net.add_entry("innocent", "s0", "s2")
        config = FancyConfig(high_priority=["victim", "innocent"],
                             tree_params=None, dedicated_session_s=0.05,
                             seed=11)
        dep = FabricDeployment(net, config=config)
        ctl = FabricRerouteController(net, dep, poll_interval_s=0.05)
        net.link("s1", "s2").loss_model = EntryLossFailure(
            {"victim"}, 1.0, start_time=0.5, seed=3)
        for i, entry in enumerate(["victim", "innocent"]):
            UdpSource(sim, net.host("s0").send, entry, flow_id=i,
                      rate_bps=640_000, packet_size=400,
                      seed=13 + i).start()
        dep.start(stagger_s=0.001)
        ctl.start()
        return net, dep, ctl

    def test_victim_rerouted_innocent_untouched(self, sim):
        net, dep, ctl = self.wire(sim)
        sim.run(until=2.0)
        assert ("s1->s2", "victim") in ctl.reroute_times
        assert ctl.reroute_time("victim") is not None
        assert ctl.reroute_time("innocent") is None
        assert ctl.rerouted_packets > 0
        # The repair path actually carries traffic the long way round.
        assert net.link("s0", "s5").stats.delivered > 0

    def test_reroute_latency_within_one_poll_of_flag(self, sim):
        _net, dep, ctl = self.wire(sim)
        sim.run(until=2.0)
        from repro.core.output import FailureKind

        flag = dep.monitors["s1->s2"].log.first_report(
            FailureKind.DEDICATED_ENTRY, "victim")
        installed = ctl.reroute_times[("s1->s2", "victim")]
        assert flag is not None
        assert 0.0 <= installed - flag.time <= ctl.poll_interval_s + 1e-9

    def test_unknown_entry_is_unprotectable(self, sim):
        net = FabricNetwork(sim, ring(4))
        dep = FabricDeployment(net, config=FancyConfig(
            high_priority=["ghost"], tree_params=None))
        ctl = FabricRerouteController(net, dep)
        ctl._install("s0->s1", "ghost")
        assert ("s0->s1", "ghost") in ctl.unprotectable
        assert ctl.reroute_times == {}

    def test_unprotectable_link_recorded(self, sim):
        net = FabricNetwork(sim, path_graph(3))
        net.add_entry("e", "p0", "p2")
        dep = FabricDeployment(net, config=FancyConfig(
            high_priority=["e"], tree_params=None))
        ctl = FabricRerouteController(net, dep)
        ctl._install("p1->p2", "e")  # cut edge: no repair path exists
        assert ("p1->p2", "e") in ctl.unprotectable


class TestTreeFlags:
    """Entries the tree covers reroute too (§6.1: an output Bloom filter hit)."""

    def test_tree_flag_installs_repair_path_for_victim_only(self, sim):
        net = FabricNetwork(sim, ring(4))
        net.add_entry("victim", "s0", "s1")
        net.add_entry("innocent", "s0", "s1")
        config = FancyConfig(
            high_priority=[],
            tree_params=HashTreeParams(width=16, depth=2, split=1),
            tree_session_s=0.05, seed=5)
        dep = FabricDeployment(net, config=config, links=["s0->s1"])
        ctl = FabricRerouteController(net, dep, poll_interval_s=0.01)
        net.link("s0", "s1").loss_model = EntryLossFailure(
            {"victim"}, 1.0, start_time=0.3, seed=3)
        for i, entry in enumerate(["victim", "innocent"]):
            UdpSource(sim, net.host("s0").send, entry, flow_id=i,
                      rate_bps=640_000, packet_size=400,
                      seed=13 + i).start()
        dep.start()
        ctl.start()
        sim.run(until=1.5)

        monitor = dep.monitors["s0->s1"]
        tree = monitor.tree_strategy.tree
        assert tree.hash_path("victim") != tree.hash_path("innocent")
        assert monitor.flagged_entries() == []
        assert dep.flagged() == {"s0->s1": ["victim"]}
        assert ("s0->s1", "victim") in ctl.reroute_times
        assert ctl.reroute_time("innocent") is None
        # The repair path s0 -> s3 -> s2 -> s1 carries the victim.
        assert ctl.apps["s0"].overrides == {"victim": net.port_to("s0", "s3")}
        assert net.link("s0", "s3").stats.delivered > 0
