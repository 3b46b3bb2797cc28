"""Tests for hosts, flow generation and throughput metering."""

from __future__ import annotations

import pytest

from repro.simulator.apps import FlowGenerator, Host, ThroughputMeter
from repro.simulator.link import connect_duplex
from repro.simulator.packet import Packet, PacketKind


@pytest.fixture
def host_pair(sim):
    src = Host(sim, "src")
    dst = Host(sim, "dst", auto_sink=True)
    connect_duplex(sim, src, 0, dst, 0, bandwidth_bps=None, delay_s=0.001)
    return src, dst


class TestHost:
    def test_auto_sink_terminates_flows_and_acks(self, sim, host_pair):
        src, dst = host_pair
        gen = FlowGenerator(sim, src, "e", rate_bps=1e6, flows_per_second=5, seed=1,
                            destination=dst)
        gen.start()
        sim.run(until=3.0)
        assert dst.packets_received > 0
        assert gen.flows_started >= 10
        # Completed flows are cleaned up from the source's registry.
        assert len(src.flows) <= len(gen.active_flows) + 1

    def test_rx_tap_sees_every_packet(self, sim, host_pair):
        src, dst = host_pair
        seen = []
        dst.rx_tap = seen.append
        FlowGenerator(sim, src, "e", rate_bps=1e6, flows_per_second=5, seed=1,
                      destination=dst).start()
        sim.run(until=2.0)
        assert len(seen) == dst.packets_received

    def test_completed_flows_leave_no_sink_at_the_destination(self, sim, host_pair):
        src, dst = host_pair
        gen = FlowGenerator(sim, src, "e", rate_bps=1e6, flows_per_second=5, seed=1,
                            destination=dst)
        gen.start()
        for until in (1.0, 2.0, 3.0):
            sim.run(until=until)
            assert set(dst.sinks) <= gen.active_flows
            assert set(src.flows) == gen.active_flows
        assert gen.flows_started >= 10
        assert len(dst.sinks) < gen.flows_started // 2

    def test_duplicate_data_after_completion_gets_one_dropped_ack(self, sim, host_pair):
        src, dst = host_pair
        gen = FlowGenerator(sim, src, "e", rate_bps=1e6, flows_per_second=5, seed=1,
                            destination=dst)
        gen.start()
        sim.run(until=2.0)
        done = next(fid for fid in range(gen.flows_started) if fid not in gen.active_flows)
        assert done not in dst.sinks and done not in src.flows
        seen = []
        src.rx_tap = seen.append
        src.send(Packet(PacketKind.DATA, "e", 1500, flow_id=done, seq=0))
        sim.run(until=2.1)
        # A fresh auto-sink ACKs the duplicate; no sender is registered
        # for it at the source any more, so the ACK goes nowhere.
        assert [(p.kind, p.ack) for p in seen if p.flow_id == done] == [(PacketKind.ACK, 1)]
        assert done not in src.flows

    def test_unknown_flow_data_ignored_without_auto_sink(self, sim):
        host = Host(sim, "h", auto_sink=False)
        host.receive(Packet(PacketKind.DATA, "e", 1500, flow_id=1, seq=0), 0)
        assert host.sinks == {}

    def test_control_packets_ignored(self, sim):
        host = Host(sim, "h", auto_sink=True)
        host.receive(Packet(PacketKind.FANCY_START, None, 64), 0)
        assert host.sinks == {}


class TestFlowGenerator:
    def test_flow_arrival_rate(self, sim, host_pair):
        src, dst = host_pair
        gen = FlowGenerator(sim, src, "e", rate_bps=1e6, flows_per_second=10, seed=1,
                            destination=dst)
        gen.start()
        sim.run(until=5.0)
        assert gen.flows_started == pytest.approx(50, abs=2)

    def test_per_flow_rate_split(self, sim, host_pair):
        src, dst = host_pair
        gen = FlowGenerator(sim, src, "e", rate_bps=1e6, flows_per_second=4, destination=dst)
        assert gen.per_flow_rate_bps == 250e3

    def test_packets_per_flow_matches_one_second_duration(self, sim, host_pair):
        src, dst = host_pair
        gen = FlowGenerator(sim, src, "e", rate_bps=1.2e6, flows_per_second=1,
                            packet_size=1500, destination=dst)
        # 1.2 Mbps for 1 s = 100 packets of 1500 B.
        assert gen.packets_per_flow == 100

    def test_max_packets_per_flow_cap(self, sim, host_pair):
        src, dst = host_pair
        gen = FlowGenerator(sim, src, "e", rate_bps=100e6, flows_per_second=1,
                            max_packets_per_flow=50, destination=dst)
        assert gen.packets_per_flow == 50

    def test_tiny_entry_still_sends_one_packet(self, sim, host_pair):
        src, dst = host_pair
        gen = FlowGenerator(sim, src, "e", rate_bps=4e3, flows_per_second=1, destination=dst)
        assert gen.packets_per_flow == 1

    def test_aggregate_rate_close_to_target(self, sim, host_pair):
        src, dst = host_pair
        rate = 2e6
        FlowGenerator(sim, src, "e", rate_bps=rate, flows_per_second=10, seed=2,
                      destination=dst).start()
        sim.run(until=6.0)
        # Measure middle window to skip ramp-up.
        achieved = dst.bytes_received * 8 / 6.0
        assert achieved == pytest.approx(rate, rel=0.35)

    def test_stop_aborts_active_flows(self, sim, host_pair):
        src, dst = host_pair
        gen = FlowGenerator(sim, src, "e", rate_bps=1e6, flows_per_second=5, seed=1,
                            destination=dst)
        gen.start()
        sim.run(until=1.0)
        gen.stop()
        assert gen.active_flows == set()

    def test_rejects_zero_flow_rate(self, sim, host_pair):
        src, dst = host_pair
        with pytest.raises(ValueError):
            FlowGenerator(sim, src, "e", rate_bps=1e6, flows_per_second=0, destination=dst)

    def test_distinct_flow_ids_across_generators(self, sim, host_pair):
        src, dst = host_pair
        g1 = FlowGenerator(sim, src, "a", rate_bps=1e6, flows_per_second=5,
                           flow_id_base=0, seed=1, destination=dst)
        g2 = FlowGenerator(sim, src, "b", rate_bps=1e6, flows_per_second=5,
                           flow_id_base=1_000_000, seed=2, destination=dst)
        g1.start(), g2.start()
        sim.run(until=1.0)
        assert not (g1.active_flows & g2.active_flows)


class TestThroughputMeter:
    def test_bins_bytes_into_intervals(self, sim):
        meter = ThroughputMeter(sim, bin_s=0.1)
        pkt = Packet(PacketKind.DATA, "e", 1250)
        for _ in range(10):
            meter(pkt)
        series = meter.series_bps(until=0.1)
        assert series[0] == (0.0, pytest.approx(10 * 1250 * 8 / 0.1))

    def test_ignores_non_data(self, sim):
        meter = ThroughputMeter(sim, bin_s=0.1)
        meter(Packet(PacketKind.ACK, "e", 64))
        assert meter.series_bps() == []

    def test_per_entry_series(self, sim):
        meter = ThroughputMeter(sim, bin_s=0.1, per_entry=True)
        meter(Packet(PacketKind.DATA, "a", 1000))
        meter(Packet(PacketKind.DATA, "b", 500))
        assert meter.entry_series_bps("a")[0][1] == pytest.approx(1000 * 8 / 0.1)
        assert meter.entry_series_bps("b")[0][1] == pytest.approx(500 * 8 / 0.1)
        assert meter.entry_series_bps("c") == []

    def test_series_fills_empty_bins(self, sim):
        meter = ThroughputMeter(sim, bin_s=0.1)
        meter(Packet(PacketKind.DATA, "e", 1000))
        sim.schedule(0.35, lambda: meter(Packet(PacketKind.DATA, "e", 1000)))
        sim.run()
        series = meter.series_bps(until=0.4)
        assert len(series) == 5
        assert series[1][1] == 0.0 and series[2][1] == 0.0
