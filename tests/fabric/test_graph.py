"""Tests for FabricGraph and its materialization as a FabricNetwork."""

from __future__ import annotations

import pytest

from repro.fabric.builders import fat_tree, ring
from repro.fabric.graph import PORT_TO_HOST, FabricGraph, FabricNetwork, flowlet_port
from repro.simulator.udp import UdpSource


def square() -> FabricGraph:
    g = FabricGraph("square")
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "d")
    g.add_edge("d", "a")
    return g


class TestFabricGraph:
    def test_insertion_order_preserved(self):
        g = square()
        assert g.nodes == ["a", "b", "c", "d"]
        assert g.neighbors("a") == ["b", "d"]
        # edges() visits nodes in insertion order and emits each
        # undirected edge once, from the first endpoint seen.
        assert g.edges() == [("a", "b"), ("a", "d"), ("b", "c"), ("c", "d")]

    def test_directed_links_both_ways(self):
        g = square()
        assert len(g.directed_links()) == 2 * len(g.edges())
        assert ("a", "b") in g.directed_links()
        assert ("b", "a") in g.directed_links()

    def test_self_loop_rejected(self):
        g = FabricGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_bfs_distances(self):
        g = square()
        dist = g.distances("c")
        assert dist == {"c": 0, "b": 1, "d": 1, "a": 2}

    def test_distances_with_pruned_directed_link(self):
        g = square()
        dist = g.distances("b", without=("a", "b"))
        # a may no longer forward over a->b: must go a->d->c->b.
        assert dist["a"] == 3

    def test_ecmp_next_hops_tie(self):
        g = square()
        assert g.ecmp_next_hops("a", "c") == ["b", "d"]
        assert g.ecmp_next_hops("a", "b") == ["b"]
        assert g.ecmp_next_hops("a", "a") == []

    def test_shortest_path_avoiding_link(self):
        g = ring(6)
        assert g.shortest_path("s1", "s2") == ["s1", "s2"]
        detour = g.shortest_path("s1", "s2", without=("s1", "s2"))
        assert detour == ["s1", "s0", "s5", "s4", "s3", "s2"]

    def test_disconnected_returns_none(self):
        g = FabricGraph()
        g.add_edge("a", "b")
        g.add_node("z")
        assert g.shortest_path("a", "z") is None
        assert g.ecmp_next_hops("a", "z") == []


class TestFlowletHash:
    def test_stable_per_flow(self):
        ports = (1, 2, 3)
        first = flowlet_port("s0", "e", 7, False, ports)
        assert all(flowlet_port("s0", "e", 7, False, ports) == first
                   for _ in range(10))

    def test_spreads_across_flows(self):
        ports = (1, 2)
        chosen = {flowlet_port("s0", "e", fid, False, ports)
                  for fid in range(64)}
        assert chosen == {1, 2}


class TestFabricNetwork:
    def test_port_conventions(self, sim):
        net = FabricNetwork(sim, square())
        # Port 0 is the host port; neighbor ports follow adjacency order.
        assert net.port_to("a", "b") == PORT_TO_HOST + 1
        assert net.port_to("a", "d") == PORT_TO_HOST + 2
        with pytest.raises(KeyError):
            net.port_to("a", "c")  # not adjacent

    def test_directed_link_objects(self, sim):
        net = FabricNetwork(sim, square())
        assert net.link("a", "b") is not net.link("b", "a")
        assert net.link("a", "b").name == "a->b"
        assert net.endpoints("a->b") == ("a", "b")
        with pytest.raises(KeyError):
            net.endpoints("a->z")

    def test_add_entry_validation(self, sim):
        net = FabricNetwork(sim, square())
        net.add_entry("e", "a", "c")
        with pytest.raises(ValueError):
            net.add_entry("e", "a", "c")  # duplicate
        with pytest.raises(ValueError):
            net.add_entry("f", "a", "a")  # degenerate endpoints

    @pytest.mark.parametrize("src,dst", [("s0", "s9"), ("s9", "s0")])
    def test_add_entry_unknown_node_changes_nothing(self, sim, src, dst):
        net = FabricNetwork(sim, ring(4))
        with pytest.raises(KeyError, match="s9"):
            net.add_entry("e", src, dst)
        assert net.hosts == {}
        assert net.entry_src == {} and net.entry_dst == {}
        net.add_entry("e", "s0", "s2")  # the failed call reserved nothing

    def test_traffic_delivered_across_fabric(self, sim):
        net = FabricNetwork(sim, ring(6))
        net.add_entry("e", "s0", "s2")
        UdpSource(sim, net.host("s0").send, "e", flow_id=1,
                  rate_bps=400_000, packet_size=500, seed=1).start()
        sim.run(until=1.0)
        assert net.host("s2").packets_received > 0
        # The unique shortest path is s0->s1->s2.
        assert net.link("s0", "s1").stats.delivered > 0
        assert net.link("s1", "s2").stats.delivered > 0
        assert net.link("s5", "s4").stats.delivered == 0

    def test_flow_path_matches_wire(self, sim):
        net = FabricNetwork(sim, fat_tree(4))
        net.add_entry("e", "edge0-0", "edge1-1")
        path = net.flow_path("e", flow_id=9)
        assert path[0] == "edge0-0" and path[-1] == "edge1-1"
        UdpSource(sim, net.host("edge0-0").send, "e", flow_id=9,
                  rate_bps=400_000, packet_size=500, seed=2).start()
        sim.run(until=1.0)
        for u, v in zip(path, path[1:]):
            assert net.link(u, v).stats.delivered > 0, f"{u}->{v} idle"

    def test_entry_links_cover_ecmp_dag(self, sim):
        net = FabricNetwork(sim, square())
        net.add_entry("e", "a", "c")
        links = net.entry_links("e")
        assert set(links) == {"a->b", "a->d", "b->c", "d->c"}

    def test_hosts_created_lazily_once(self, sim):
        net = FabricNetwork(sim, square())
        assert net.hosts == {}
        h = net.host("a")
        assert net.host("a") is h

    def test_reverse_path_acks_return(self, sim):
        """auto_sink hosts ACK received DATA; ACKs must reach the source."""
        net = FabricNetwork(sim, ring(6))
        net.add_entry("e", "s0", "s2")
        UdpSource(sim, net.host("s0").send, "e", flow_id=1,
                  rate_bps=200_000, packet_size=500, seed=1).start()
        sim.run(until=1.0)
        # ACKs travel s2 -> s1 -> s0 and terminate at the source host.
        assert net.host("s0").packets_received > 0
