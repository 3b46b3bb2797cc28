"""Tests for the two-switch evaluation topology."""

from __future__ import annotations

from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import EntryLossFailure
from repro.simulator.topology import TwoSwitchTopology


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
