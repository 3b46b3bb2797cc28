"""Tests for the packet tracer."""

from __future__ import annotations

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import EntryLossFailure, UniformLossFailure
from repro.simulator.link import CHAOS_DROP, Link
from repro.simulator.packet import PacketKind, make_data_packet
from repro.simulator.topology import TwoSwitchTopology
from repro.simulator.tracing import PacketTracer


class _Sink:
    def receive(self, packet, in_port):
        pass


class _DropAll:
    """Chaos model that drops every packet on the wire."""

    def on_wire(self, packet, depart_t, link):
        return CHAOS_DROP


def _send(sim, link, n):
    for seq in range(n):
        link.send(make_data_packet("e", 500, 1, seq, sim.now))
    sim.run()


class TestPacketTracer:
    def test_instant_link_records_every_departure(self, sim):
        """Access links depart at send time; each departure is still
        recorded once, as tx or drop, next to every delivery."""
        link = Link(sim, _Sink(), 0, bandwidth_bps=None, delay_s=0.001,
                    loss_model=UniformLossFailure(0.5, start_time=0.0, seed=3))
        tracer = PacketTracer(sim)
        tracer.attach_link(link)
        _send(sim, link, 20)
        stats = link.stats
        assert stats.tx_packets == 20 and 0 < stats.dropped_failure < 20
        assert tracer.summary() == {"tx": stats.delivered,
                                    "drop": stats.dropped_failure,
                                    "deliver": stats.delivered}

    def test_chaos_drops_are_recorded_as_drops(self, sim):
        link = Link(sim, _Sink(), 0, bandwidth_bps=1e6, delay_s=0.001)
        link.chaos = _DropAll()
        tracer = PacketTracer(sim)
        tracer.attach_link(link)
        _send(sim, link, 5)
        assert link.stats.dropped_chaos == 5
        assert tracer.summary() == {"drop": 5}

    def test_records_link_events(self, sim):
        topo = TwoSwitchTopology(sim)
        tracer = PacketTracer(sim)
        tracer.attach_link(topo.monitored_link)
        FlowGenerator(sim, topo.source, "e", rate_bps=500e3, flows_per_second=5,
                      seed=1, destination=topo.sink).start()
        sim.run(until=1.0)
        summary = tracer.summary()
        assert summary["tx"] > 0
        assert summary["tx"] == summary["deliver"]

    def test_records_drops(self, sim):
        failure = EntryLossFailure({"e"}, 1.0, start_time=0.0)
        topo = TwoSwitchTopology(sim, loss_model=failure)
        tracer = PacketTracer(sim)
        tracer.attach_link(topo.monitored_link)
        FlowGenerator(sim, topo.source, "e", rate_bps=500e3, flows_per_second=5,
                      seed=1, destination=topo.sink).start()
        sim.run(until=1.0)
        assert tracer.summary().get("drop", 0) > 0
        assert tracer.summary().get("deliver", 0) == 0

    def test_predicate_filters(self, sim):
        topo = TwoSwitchTopology(sim)
        tracer = PacketTracer(sim, predicate=lambda p: p.kind.is_control)
        tracer.attach_link(topo.monitored_link)
        monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                                   FancyConfig(high_priority=["e"],
                                               tree_params=None))
        FlowGenerator(sim, topo.source, "e", rate_bps=500e3, flows_per_second=5,
                      seed=1, destination=topo.sink).start()
        monitor.start()
        sim.run(until=0.5)
        assert len(tracer) > 0
        assert all(ev.kind.startswith("fancy_") for ev in tracer.events)

    def test_switch_ingress_recording(self, sim):
        topo = TwoSwitchTopology(sim)
        tracer = PacketTracer(sim)
        tracer.attach_switch(topo.downstream, ports=[1])
        FlowGenerator(sim, topo.source, "e", rate_bps=500e3, flows_per_second=5,
                      seed=1, destination=topo.sink).start()
        sim.run(until=1.0)
        assert tracer.filter(event="ingress")

    def test_packet_journey_ordered(self, sim):
        topo = TwoSwitchTopology(sim)
        tracer = PacketTracer(sim)
        tracer.attach_link(topo.monitored_link)
        tracer.attach_switch(topo.downstream, ports=[1])
        FlowGenerator(sim, topo.source, "e", rate_bps=500e3, flows_per_second=5,
                      seed=1, destination=topo.sink).start()
        sim.run(until=1.0)
        pid = tracer.events[0].pid
        journey = tracer.packet_journey(pid)
        times = [e.time for e in journey]
        assert times == sorted(times)
        assert [e.event for e in journey][:2] == ["tx", "deliver"]

    def test_event_cap(self, sim):
        topo = TwoSwitchTopology(sim)
        tracer = PacketTracer(sim, max_events=5)
        tracer.attach_link(topo.monitored_link)
        FlowGenerator(sim, topo.source, "e", rate_bps=2e6, flows_per_second=10,
                      seed=1, destination=topo.sink).start()
        sim.run(until=1.0)
        assert len(tracer) == 5
        assert tracer.dropped_records > 0

    def test_truncation_marker(self, sim):
        """Hitting max_events leaves an explicit marker in summary/dump."""
        topo = TwoSwitchTopology(sim)
        tracer = PacketTracer(sim, max_events=5)
        tracer.attach_link(topo.monitored_link)
        FlowGenerator(sim, topo.source, "e", rate_bps=2e6, flows_per_second=10,
                      seed=1, destination=topo.sink).start()
        sim.run(until=1.0)
        summary = tracer.summary()
        assert summary["truncated"] == tracer.dropped_records
        text = tracer.dump()
        assert "truncated" in text
        assert str(tracer.dropped_records) in text
        assert "suppressed" in text  # first-N mode keeps the earliest events

    def test_no_marker_below_cap(self, sim):
        topo = TwoSwitchTopology(sim)
        tracer = PacketTracer(sim)
        tracer.attach_link(topo.monitored_link)
        FlowGenerator(sim, topo.source, "e", rate_bps=500e3, flows_per_second=5,
                      seed=1, destination=topo.sink).start()
        sim.run(until=0.5)
        assert "truncated" not in tracer.summary()
        assert "truncated" not in tracer.dump(limit=1000)

    def test_ring_buffer_keeps_most_recent(self, sim):
        topo = TwoSwitchTopology(sim)
        plain = PacketTracer(sim)
        ring = PacketTracer(sim, max_events=5, ring_buffer=True)
        tracer_all = plain
        tracer_all.attach_link(topo.monitored_link)
        ring.attach_link(topo.monitored_link)
        FlowGenerator(sim, topo.source, "e", rate_bps=2e6, flows_per_second=10,
                      seed=1, destination=topo.sink).start()
        sim.run(until=1.0)
        assert len(ring) == 5
        assert ring.dropped_records == len(tracer_all.events) - 5
        # The ring keeps the *last* five events, not the first five.
        kept = list(ring.events)
        assert [e.pid for e in kept] == [e.pid for e in tracer_all.events[-5:]]
        assert kept[0].time >= tracer_all.events[0].time
        assert "evicted" in ring.dump()

    def test_filter_queries(self, sim):
        topo = TwoSwitchTopology(sim)
        tracer = PacketTracer(sim)
        tracer.attach_link(topo.monitored_link)
        FlowGenerator(sim, topo.source, "a", rate_bps=500e3, flows_per_second=5,
                      seed=1, destination=topo.sink).start()
        FlowGenerator(sim, topo.source, "b", rate_bps=500e3, flows_per_second=5,
                      seed=2, flow_id_base=1_000_000, destination=topo.sink).start()
        sim.run(until=1.0)
        only_a = tracer.filter(entry="a")
        assert only_a and all(e.entry == "a" for e in only_a)
        data_only = tracer.filter(kind=PacketKind.DATA)
        assert data_only

    def test_dump_format(self, sim):
        topo = TwoSwitchTopology(sim)
        tracer = PacketTracer(sim)
        tracer.attach_link(topo.monitored_link)
        FlowGenerator(sim, topo.source, "e", rate_bps=500e3, flows_per_second=5,
                      seed=1, destination=topo.sink).start()
        sim.run(until=0.5)
        text = tracer.dump(limit=3)
        assert "tx" in text or "deliver" in text
