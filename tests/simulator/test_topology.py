"""Tests for the evaluation topologies."""

from __future__ import annotations

import pytest

from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import EntryLossFailure
from repro.simulator.topology import (
    PORT_TO_HOST,
    PORT_TO_PEER,
    ChainTopology,
    StarTopology,
    TwoSwitchTopology,
)
from repro.simulator.udp import UdpSource
from repro.telemetry import Telemetry


class TestTwoSwitchTopology:
    def test_forward_path_delivers(self, sim):
        topo = TwoSwitchTopology(sim)
        FlowGenerator(sim, topo.source, "e", rate_bps=1e6, flows_per_second=5,
                      seed=1).start()
        sim.run(until=2.0)
        assert topo.sink.packets_received > 0

    def test_closed_loop_acks_return(self, sim):
        """Flows must complete, which requires ACKs to cross B->A->source."""
        topo = TwoSwitchTopology(sim)
        gen = FlowGenerator(sim, topo.source, "e", rate_bps=1e6,
                            flows_per_second=5, seed=1)
        gen.start()
        sim.run(until=4.0)
        assert gen.flows_started > len(gen.active_flows)

    def test_failure_on_monitored_link(self, sim):
        failure = EntryLossFailure({"e"}, 1.0, start_time=0.0)
        topo = TwoSwitchTopology(sim, loss_model=failure)
        FlowGenerator(sim, topo.source, "e", rate_bps=1e6, flows_per_second=5,
                      seed=1).start()
        sim.run(until=2.0)
        assert topo.sink.packets_received == 0
        assert topo.monitored_link.stats.dropped_failure > 0

    def test_link_delay_configurable(self, sim):
        topo = TwoSwitchTopology(sim, link_delay_s=0.05)
        assert topo.monitored_link.delay_s == 0.05

    def test_default_link_delay_is_10ms(self, sim):
        """§5: 10 ms inter-switch delay in all experiments."""
        assert TwoSwitchTopology(sim).monitored_link.delay_s == 0.010


class TestChainTopology:
    def test_traffic_crosses_whole_chain(self, sim):
        topo = ChainTopology(sim, n_switches=4)
        FlowGenerator(sim, topo.source, "e", rate_bps=1e6, flows_per_second=5,
                      seed=1).start()
        sim.run(until=2.0)
        assert topo.sink.packets_received > 0

    def test_closed_loop_over_chain(self, sim):
        topo = ChainTopology(sim, n_switches=3)
        gen = FlowGenerator(sim, topo.source, "e", rate_bps=1e6,
                            flows_per_second=5, seed=1)
        gen.start()
        sim.run(until=4.0)
        assert gen.flows_started > len(gen.active_flows)

    def test_failure_at_inner_hop(self, sim):
        failure = EntryLossFailure({"e"}, 1.0, start_time=0.0)
        topo = ChainTopology(sim, n_switches=4, failure_hop=1, loss_model=failure)
        FlowGenerator(sim, topo.source, "e", rate_bps=1e6, flows_per_second=5,
                      seed=1).start()
        sim.run(until=2.0)
        assert topo.sink.packets_received == 0
        assert topo.links[1].stats.dropped_failure > 0

    def test_rejects_short_chain(self, sim):
        with pytest.raises(ValueError):
            ChainTopology(sim, n_switches=1)

    def test_rejects_bad_failure_hop(self, sim):
        with pytest.raises(ValueError):
            ChainTopology(sim, n_switches=3, failure_hop=2)

    def test_first_last_accessors(self, sim):
        topo = ChainTopology(sim, n_switches=3)
        assert topo.first is topo.switches[0]
        assert topo.last is topo.switches[-1]

    def test_port_conventions(self, sim):
        """First switch talks to its host on port 0 and forwards on
        port 1; downstream switches receive the chain on port 2."""
        topo = ChainTopology(sim, n_switches=3)
        first, mid, last = topo.switches
        assert first.links[PORT_TO_HOST].dst is topo.source
        assert first.links[PORT_TO_PEER].dst is mid
        assert topo.links[0].dst is mid
        assert topo.links[0].dst_port == 2
        assert topo.links[1].dst is last
        assert topo.links[1].dst_port == 2
        assert last.links[PORT_TO_HOST].dst is topo.sink

    def test_telemetry_threads_into_switches_and_links(self, sim):
        tel = Telemetry()
        topo = ChainTopology(sim, n_switches=3, telemetry=tel)
        assert all(sw._telemetry is tel for sw in topo.switches)
        assert all(tel.metrics.get("link_tx_packets_total", link=link.name)
                   for link in topo.links)
        FlowGenerator(sim, topo.source, "e", rate_bps=1e6,
                      flows_per_second=5, seed=1).start()
        sim.run(until=1.0)
        received = [m for m in tel.snapshot()["metrics"]
                    if m["name"] == "switch_received_total"
                    and m["value"] > 0]
        switches = {m["labels"]["switch"] for m in received}
        assert {"S0", "S1", "S2"} <= switches


class TestStarTopology:
    def test_traffic_reaches_addressed_peer_only(self, sim):
        topo = StarTopology(sim, n_peers=3)
        topo.route_entries(1, ["e"])
        UdpSource(sim, topo.source.send, "e", flow_id=1, rate_bps=1e6,
                  packet_size=500, seed=1).start()
        sim.run(until=1.0)
        assert topo.sinks[1].packets_received > 0
        assert topo.sinks[0].packets_received == 0
        assert topo.sinks[2].packets_received == 0

    def test_closed_loop_acks_return(self, sim):
        topo = StarTopology(sim, n_peers=2)
        topo.route_entries(0, ["e"])
        gen = FlowGenerator(sim, topo.source, "e", rate_bps=1e6,
                            flows_per_second=5, seed=1)
        gen.start()
        sim.run(until=4.0)
        assert gen.flows_started > len(gen.active_flows)

    def test_hub_port_convention(self, sim):
        """Hub port 0 faces the source host; port i+1 faces peer i."""
        topo = StarTopology(sim, n_peers=3)
        assert topo.hub.links[0].dst is topo.source
        for i, peer in enumerate(topo.peers):
            assert topo.hub_port(i) == i + 1
            assert topo.hub.links[i + 1].dst is peer
            assert peer.links[1].dst is topo.hub
            assert peer.links[0].dst is topo.sinks[i]
        with pytest.raises(IndexError):
            topo.hub_port(3)

    def test_per_peer_failure_isolated(self, sim):
        failure = EntryLossFailure({"bad"}, 1.0, start_time=0.0)
        topo = StarTopology(sim, n_peers=2, loss_models={0: failure})
        topo.route_entries(0, ["bad"])
        topo.route_entries(1, ["good"])
        for i, entry in enumerate(["bad", "good"]):
            UdpSource(sim, topo.source.send, entry, flow_id=i, rate_bps=1e6,
                      packet_size=500, seed=1 + i).start()
        sim.run(until=1.0)
        assert topo.sinks[0].packets_received == 0
        assert topo.links[0].stats.dropped_failure > 0
        assert topo.sinks[1].packets_received > 0

    def test_rejects_empty_star(self, sim):
        with pytest.raises(ValueError):
            StarTopology(sim, n_peers=0)

    def test_telemetry_threads_into_hub_peers_and_links(self, sim):
        tel = Telemetry()
        topo = StarTopology(sim, n_peers=2, telemetry=tel)
        assert topo.hub._telemetry is tel
        assert all(peer._telemetry is tel for peer in topo.peers)
        assert all(tel.metrics.get("link_tx_packets_total", link=link.name)
                   for link in topo.links)
