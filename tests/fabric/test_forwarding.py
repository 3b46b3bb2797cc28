"""What the per-packet path resolves once: the forwarder's per-flow ECMP
memo, the reroute app's lazy override-chain membership, and the ingress
hook classes (docs/PERFORMANCE.md, "Per-hop budget")."""

from __future__ import annotations

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.fabric.builders import fat_tree, ring
from repro.fabric.deployment import FabricDeployment
from repro.fabric.graph import FabricNetwork, flowlet_port
from repro.fabric.reroute import FabricRerouteController, SelectiveRerouteApp
from repro.simulator.apps import Host
from repro.simulator.failures import EntryLossFailure
from repro.simulator.link import connect_duplex
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.switch import Switch
from repro.simulator.topology import PORT_TO_PEER, TwoSwitchTopology
from repro.simulator.udp import UdpSource

ENTRIES = {f"hp/{i}": (f"edge{i % 4}-0", f"edge{(i + 1) % 4}-1") for i in range(4)}


def fat_tree_net(sim, entries=ENTRIES):
    net = FabricNetwork(sim, fat_tree(4))
    for entry, (src, dst) in entries.items():
        net.add_entry(entry, src, dst)
    return net


def packet(entry, flow_id, reverse):
    kind = PacketKind.ACK if reverse else PacketKind.DATA
    return Packet(kind, entry, 100, flow_id=flow_id, reverse=reverse)


class TestForwardingMemo:
    def assert_forwarders_match_definition(self, net, entries):
        for entry in entries:
            for reverse in (False, True):
                table = net._entry_ports[(entry, reverse)]
                for flow_id in range(6):
                    for node, ports in table.items():
                        want = flowlet_port(node, entry, flow_id, reverse, ports)
                        forward = net.switch(node).forwarding_override
                        # Twice: the first call fills the memo, the second reads it.
                        assert forward(packet(entry, flow_id, reverse)) == want
                        assert forward(packet(entry, flow_id, reverse)) == want
                    path = net.flow_path(entry, flow_id, reverse)
                    for node, nxt in zip(path, path[1:]):
                        port = net.switch(node).forwarding_override(
                            packet(entry, flow_id, reverse))
                        assert port == net.port_to(node, nxt)

    def test_every_node_entry_flow_direction_matches_flowlet_port(self, sim):
        net = fat_tree_net(sim)
        self.assert_forwarders_match_definition(net, ENTRIES)

    def test_late_add_entry_invalidates_the_memo(self, sim):
        net = fat_tree_net(sim)
        self.assert_forwarders_match_definition(net, ENTRIES)
        assert all(net._port_memos.values())
        # Unknown before registration: falls through, and is not memoised.
        forward = net.switch("core0").forwarding_override
        assert forward(packet("late", 0, False)) is None
        net.add_entry("late", "edge0-1", "edge2-0")
        assert not any(net._port_memos.values())
        self.assert_forwarders_match_definition(net, [*ENTRIES, "late"])

    def test_memo_holds_one_port_per_node_and_flow(self, sim):
        net = fat_tree_net(sim)
        forward = net.switch("agg0-0").forwarding_override
        for _ in range(50):
            forward(packet("hp/0", 7, False))
        assert list(net._port_memos["agg0-0"]) == [("hp/0", 7, False)]


class TestRerouteChainMembership:
    def test_joins_on_first_override_and_leaves_with_the_last(self, sim):
        net = FabricNetwork(sim, ring(4))
        net.add_entry("e", "s0", "s2")
        net.add_entry("f", "s0", "s2")
        sw = net.switch("s0")
        forwarder = sw.forwarding_override
        app = SelectiveRerouteApp(sw)
        assert sw._override_chain == [forwarder]
        assert sw.forwarding_override is forwarder

        app.set_override("e", net.port_to("s0", "s3"))
        app.set_override("f", net.port_to("s0", "s3"))
        assert sw._override_chain == [app._decide, forwarder]
        app.clear("e")
        assert sw._override_chain == [app._decide, forwarder]
        app.clear("f")
        assert sw._override_chain == [forwarder]
        assert sw.forwarding_override is forwarder

        app.set_override("e", net.port_to("s0", "s3"))  # re-joins
        assert sw._override_chain == [app._decide, forwarder]
        app.clear()
        assert sw._override_chain == [forwarder]

        app.set_override("e", net.port_to("s0", "s3"))
        app.uninstall()
        assert sw._override_chain == [forwarder]
        assert app.overrides == {}
        app.set_override("f", net.port_to("s0", "s3"))  # and again after uninstall
        assert sw._override_chain == [app._decide, forwarder]

    def test_controller_leaves_untouched_switches_on_the_bare_forwarder(self, sim):
        net = fat_tree_net(sim)
        forwarders = {n: net.switch(n).forwarding_override for n in net.graph.nodes}
        ctl = FabricRerouteController(net, FabricDeployment(
            net, config=FancyConfig(high_priority=list(ENTRIES), tree_params=None)))
        for node, forwarder in forwarders.items():
            assert net.switch(node).forwarding_override is forwarder
        ctl._install("agg0-1->core2", "hp/0")
        steering = [n for n, app in ctl.apps.items() if app.overrides]
        assert steering == ["core3", "agg0-1", "agg1-1"]
        for node, forwarder in forwarders.items():
            chain = net.switch(node)._override_chain
            if node in steering:
                assert chain == [ctl.apps[node]._decide, forwarder]
            else:
                assert chain == [forwarder]


class TestClosedLoopPinned:
    """Values recorded on the parent commit (always-installed ``_decide``,
    per-packet ``flowlet_port``): the lazy chain must steer exactly the
    same packets at exactly the same times."""

    def test_fat_tree_closed_loop_matches_parent(self, sim):
        net = fat_tree_net(sim)
        dep = FabricDeployment(net, config=FancyConfig(
            high_priority=list(ENTRIES), tree_params=None,
            dedicated_session_s=0.05, seed=5))
        ctl = FabricRerouteController(net, dep, poll_interval_s=0.05)
        steered = []
        for app in ctl.apps.values():
            app.on_steered = lambda entry, app=app: (
                steered.append((app.switch.name, entry)), ctl._on_steered(entry))
        path = net.flow_path("hp/0", flow_id=0)
        failed = net.link_id(path[1], path[2])
        net.link(path[1], path[2]).loss_model = EntryLossFailure(
            {"hp/0"}, 1.0, start_time=0.5, seed=3)
        for i, (entry, (src, _dst)) in enumerate(ENTRIES.items()):
            UdpSource(sim, net.host(src).send, entry, flow_id=i, rate_bps=640_000,
                      packet_size=400, jitter=0.1, seed=13 + i).start(delay=0.001 * i)
        dep.start(stagger_s=0.001)
        ctl.start()
        sim.run(until=2.0)

        assert failed == "agg0-1->core2"
        assert ctl.reroute_times == {(failed, "hp/0"): 0.6}
        assert {n: a.rerouted_packets for n, a in ctl.apps.items()
                if a.rerouted_packets} == {"core3": 279, "agg0-1": 281, "agg1-1": 277}
        # Once per entry per steering switch, in path order.
        assert steered == [("agg0-1", "hp/0"), ("core3", "hp/0"), ("agg1-1", "hp/0")]
        assert dep.flagged() == {failed: ["hp/0"]}
        assert sim.events_processed == 28540


class TestIngressHookClasses:
    def wire(self, sim):
        sw = Switch(sim, "sw")
        for port in (0, 1):
            connect_duplex(sim, sw, port, Host(sim, f"h{port}", auto_sink=True), 0,
                           bandwidth_bps=None, delay_s=0.001)
        sw.set_default_route(1)
        return sw

    def test_control_walks_every_hook_in_order_data_skips_control_only(self, sim):
        sw = self.wire(sim)
        calls = []

        def hook(name):
            return lambda p, port: calls.append((name, p.kind)) or True

        sw.add_ingress_hook(0, hook("data-class"))
        sw.add_ingress_hook(0, hook("control-only"), front=True, control_only=True)
        sw.add_ingress_hook(0, hook("late"))
        sw.add_ingress_hook(0, hook("front"), front=True)

        sw.receive(Packet(PacketKind.FANCY_REPORT, None, 64, payload={}), 0)
        assert [name for name, _ in calls] == [
            "front", "control-only", "data-class", "late"]
        calls.clear()
        for kind in (PacketKind.DATA, PacketKind.ACK):
            sw.receive(Packet(kind, "e", 100), 0)
        assert calls == [
            ("front", PacketKind.DATA), ("data-class", PacketKind.DATA),
            ("late", PacketKind.DATA),
            ("front", PacketKind.ACK), ("data-class", PacketKind.ACK),
            ("late", PacketKind.ACK)]
        assert sw.stats.forwarded == 3

    def test_monitor_upstream_ingress_sees_control_first_and_never_data(self, sim):
        topo = TwoSwitchTopology(sim)
        monitor = FancyLinkMonitor(
            sim, topo.upstream, PORT_TO_PEER, topo.downstream, PORT_TO_PEER,
            FancyConfig(high_priority=["e"], tree_params=None,
                        dedicated_session_s=0.05))
        # A's peer port now holds the monitor's control-only tap in front
        # of the topology's reverse-routing hook; count calls to both.
        sw = topo.upstream
        assert [h.__name__ for h in sw._ingress_hooks[PORT_TO_PEER]] == [
            "_upstream_ingress", "_route_reverse_a"]
        assert [h.__name__ for h in sw._data_ingress_hooks[PORT_TO_PEER]] == [
            "_route_reverse_a"]
        calls = []
        for table in (sw._ingress_hooks, sw._data_ingress_hooks):
            table[PORT_TO_PEER] = [
                (lambda p, i, hook=hook: calls.append((hook.__name__, p.kind))
                 or hook(p, i)) for hook in table[PORT_TO_PEER]]
        UdpSource(sim, topo.source.send, "e", flow_id=0, rate_bps=640_000,
                  packet_size=400, seed=1).start()
        monitor.start()
        sim.run(until=0.5)

        seen = {name: {kind for n, kind in calls if n == name}
                for name in ("_upstream_ingress", "_route_reverse_a")}
        # Responses are consumed by the monitor before the reverse-routing
        # hook could misroute them; the sink's ACKs never visit the monitor.
        assert seen["_upstream_ingress"] == {
            PacketKind.FANCY_START_ACK, PacketKind.FANCY_REPORT}
        assert seen["_route_reverse_a"] == {PacketKind.ACK}
        assert monitor.dedicated_sender.sessions_completed >= 5
