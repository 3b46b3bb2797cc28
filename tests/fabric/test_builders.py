"""Tests for the canned topology builders."""

from __future__ import annotations

import pytest

from repro.fabric.builders import abilene, clos, fat_tree, line, random_isp, ring, star
from repro.fabric.graph import PORT_TO_HOST, FabricNetwork
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import EntryLossFailure
from repro.simulator.udp import UdpSource
from repro.telemetry import Telemetry


def is_connected(g) -> bool:
    return len(g.distances(g.nodes[0])) == len(g.nodes)


def closed_loop_completes(sim, net, src, dst) -> None:
    """TCP flows complete only when ACKs cross back ``dst`` -> ``src``."""
    net.add_entry("e", src, dst)
    gen = FlowGenerator(sim, net.host(src), "e", rate_bps=1e6,
                        flows_per_second=5, seed=1, destination=net.host(dst))
    gen.start()
    sim.run(until=4.0)
    assert gen.flows_started > len(gen.active_flows)


def assert_telemetry_threaded(sim, net, tel, src, dst) -> None:
    assert all(sw._telemetry is tel for sw in net.switches.values())
    assert all(tel.metrics.get("link_tx_packets_total", link=link.name)
               for link in net.links.values())
    net.add_entry("e", src, dst)
    FlowGenerator(sim, net.host(src), "e", rate_bps=1e6,
                  flows_per_second=5, seed=1, destination=net.host(dst)).start()
    sim.run(until=1.0)
    received = [m for m in tel.snapshot()["metrics"]
                if m["name"] == "switch_received_total" and m["value"] > 0]
    path = net.graph.shortest_path(src, dst)
    assert {m["labels"]["switch"] for m in received} >= set(path)


class TestLine:
    def test_shape(self):
        g = line(4)
        assert g.nodes == ["s0", "s1", "s2", "s3"]
        assert g.edges() == [("s0", "s1"), ("s1", "s2"), ("s2", "s3")]
        assert [g.degree(n) for n in g.nodes] == [1, 2, 2, 1]

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            line(1)
        assert line(2).edges() == [("s0", "s1")]

    def test_port_conventions(self, sim):
        """Port 0 faces the host; each switch faces its upstream
        neighbor before its downstream one."""
        net = FabricNetwork(sim, line(3))
        first, mid, last = (net.switch(n) for n in ("s0", "s1", "s2"))
        source, sink = net.host("s0"), net.host("s2")
        assert first.links[PORT_TO_HOST].dst is source
        assert last.links[PORT_TO_HOST].dst is sink
        assert net.port_to("s0", "s1") == 1
        assert net.port_to("s1", "s0") == 1
        assert net.port_to("s1", "s2") == 2
        assert net.port_to("s2", "s1") == 1
        assert first.links[1].dst is mid
        assert net.link("s0", "s1").dst_port == 1
        assert net.link("s1", "s2").dst is last
        assert net.link("s1", "s2").dst_port == 1

    def test_traffic_crosses_whole_chain(self, sim):
        net = FabricNetwork(sim, line(4))
        net.add_entry("e", "s0", "s3")
        FlowGenerator(sim, net.host("s0"), "e", rate_bps=1e6,
                      flows_per_second=5, seed=1, destination=net.host("s3")).start()
        sim.run(until=2.0)
        assert net.host("s3").packets_received > 0

    def test_closed_loop_over_chain(self, sim):
        closed_loop_completes(sim, FabricNetwork(sim, line(3)), "s0", "s2")

    def test_failure_at_inner_hop(self, sim):
        net = FabricNetwork(sim, line(4))
        net.link("s1", "s2").loss_model = EntryLossFailure({"e"}, 1.0, start_time=0.0)
        net.add_entry("e", "s0", "s3")
        FlowGenerator(sim, net.host("s0"), "e", rate_bps=1e6,
                      flows_per_second=5, seed=1, destination=net.host("s3")).start()
        sim.run(until=2.0)
        assert net.host("s3").packets_received == 0
        assert net.link("s1", "s2").stats.dropped_failure > 0

    def test_rejects_hop_off_the_line(self, sim):
        net = FabricNetwork(sim, line(3))
        with pytest.raises(KeyError):
            net.link("s2", "s3")

    def test_telemetry_threads_into_switches_and_links(self, sim):
        tel = Telemetry()
        net = FabricNetwork(sim, line(3), telemetry=tel)
        assert_telemetry_threaded(sim, net, tel, "s0", "s2")


class TestStar:
    def test_shape(self):
        g = star(3)
        assert g.nodes == ["hub", "peer0", "peer1", "peer2"]
        assert g.neighbors("hub") == ["peer0", "peer1", "peer2"]
        assert all(g.neighbors(f"peer{i}") == ["hub"] for i in range(3))

    def test_rejects_empty_star(self):
        with pytest.raises(ValueError):
            star(0)
        assert star(1).edges() == [("hub", "peer0")]

    def test_hub_port_convention(self, sim):
        """Hub port 0 faces its host; port i+1 faces peer i."""
        net = FabricNetwork(sim, star(3))
        hub = net.switch("hub")
        source = net.host("hub")
        assert hub.links[PORT_TO_HOST].dst is source
        for i in range(3):
            peer = net.switch(f"peer{i}")
            sink = net.host(f"peer{i}")
            assert net.port_to("hub", f"peer{i}") == i + 1
            assert hub.links[i + 1].dst is peer
            assert peer.links[1].dst is hub
            assert peer.links[PORT_TO_HOST].dst is sink
        with pytest.raises(KeyError):
            net.port_to("hub", "peer3")

    def test_traffic_reaches_addressed_peer_only(self, sim):
        net = FabricNetwork(sim, star(3))
        net.add_entry("e", "hub", "peer1")
        UdpSource(sim, net.host("hub").send, "e", flow_id=1, rate_bps=1e6,
                  packet_size=500, seed=1).start()
        sim.run(until=1.0)
        assert net.host("peer1").packets_received > 0
        assert net.host("peer0").packets_received == 0
        assert net.host("peer2").packets_received == 0

    def test_closed_loop_acks_return(self, sim):
        closed_loop_completes(sim, FabricNetwork(sim, star(2)), "hub", "peer0")

    def test_per_peer_failure_isolated(self, sim):
        net = FabricNetwork(sim, star(2))
        net.link("hub", "peer0").loss_model = EntryLossFailure(
            {"bad"}, 1.0, start_time=0.0)
        net.add_entry("bad", "hub", "peer0")
        net.add_entry("good", "hub", "peer1")
        for i, entry in enumerate(["bad", "good"]):
            UdpSource(sim, net.host("hub").send, entry, flow_id=i, rate_bps=1e6,
                      packet_size=500, seed=1 + i).start()
        sim.run(until=1.0)
        assert net.host("peer0").packets_received == 0
        assert net.link("hub", "peer0").stats.dropped_failure > 0
        assert net.host("peer1").packets_received > 0

    def test_telemetry_threads_into_hub_peers_and_links(self, sim):
        tel = Telemetry()
        net = FabricNetwork(sim, star(2), telemetry=tel)
        assert_telemetry_threaded(sim, net, tel, "hub", "peer0")


class TestRing:
    def test_shape(self):
        g = ring(6)
        assert g.nodes == [f"s{i}" for i in range(6)]
        assert all(g.degree(n) == 2 for n in g.nodes)
        assert len(g.edges()) == 6
        assert g.has_edge("s5", "s0")

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ring(2)


class TestClos:
    def test_full_bipartite(self):
        g = clos(4, 2)
        assert len(g.nodes) == 6
        assert len(g.edges()) == 8
        for i in range(4):
            for j in range(2):
                assert g.has_edge(f"leaf{i}", f"spine{j}")
        # No leaf-leaf or spine-spine edges.
        assert not g.has_edge("leaf0", "leaf1")
        assert not g.has_edge("spine0", "spine1")


class TestFatTree:
    def test_k4_shape(self):
        g = fat_tree(4)
        assert len(g.nodes) == 20          # 4 cores + 4*(2 agg + 2 edge)
        assert len(g.edges()) == 32
        assert len(g.directed_links()) == 64
        assert is_connected(g)

    def test_edge_to_edge_ecmp_width(self):
        g = fat_tree(4)
        # Inter-pod traffic from an edge switch fans out over both
        # in-pod aggregation switches.
        assert g.ecmp_next_hops("edge0-0", "edge1-1") == ["agg0-0", "agg0-1"]

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(3)


class TestAbilene:
    def test_shape(self):
        g = abilene()
        assert len(g.nodes) == 11
        assert len(g.edges()) == 14
        assert is_connected(g)


class TestRandomIsp:
    def test_deterministic_for_seed(self):
        a = random_isp(12, extra_edges=4, seed=7)
        b = random_isp(12, extra_edges=4, seed=7)
        assert a.nodes == b.nodes
        assert a.edges() == b.edges()

    def test_seed_changes_wiring(self):
        a = random_isp(12, extra_edges=4, seed=7)
        b = random_isp(12, extra_edges=4, seed=8)
        assert a.edges() != b.edges()

    def test_always_connected(self):
        for seed in range(5):
            g = random_isp(10, extra_edges=3, seed=seed)
            assert is_connected(g)
            assert len(g.edges()) == 9 + 3
