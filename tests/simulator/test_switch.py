"""Tests for the P4-like switch: routing, hook pipeline, TM drops."""

from __future__ import annotations

import pytest

from repro.simulator.link import Link, connect_duplex
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.switch import Node, Switch


class Collector(Node):
    def __init__(self, sim, name="rx"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((packet, in_port))


def data(entry="e", size=100):
    return Packet(PacketKind.DATA, entry, size)


@pytest.fixture
def wired(sim):
    """Switch with two output collectors on ports 1 and 2."""
    sw = Switch(sim, "sw")
    out1, out2 = Collector(sim, "o1"), Collector(sim, "o2")
    connect_duplex(sim, sw, 1, out1, 0, bandwidth_bps=None, delay_s=0.0001)
    connect_duplex(sim, sw, 2, out2, 0, bandwidth_bps=None, delay_s=0.0001)
    return sw, out1, out2


class TestRouting:
    def test_route_by_entry(self, sim, wired):
        sw, out1, out2 = wired
        sw.add_route("a", 1)
        sw.add_route("b", 2)
        sw.receive(data("a"), 0)
        sw.receive(data("b"), 0)
        sim.run()
        assert [p.entry for p, _ in out1.received] == ["a"]
        assert [p.entry for p, _ in out2.received] == ["b"]

    def test_default_route(self, sim, wired):
        sw, out1, _ = wired
        sw.set_default_route(1)
        sw.receive(data("unknown"), 0)
        sim.run()
        assert len(out1.received) == 1

    def test_no_route_drops(self, sim, wired):
        sw, out1, out2 = wired
        sw.receive(data("nowhere"), 0)
        sim.run()
        assert out1.received == [] and out2.received == []
        assert sw.stats.dropped_no_route == 1

    def test_add_routes_bulk(self, sim, wired):
        sw, out1, _ = wired
        sw.add_routes(["x", "y", "z"], 1)
        for e in "xyz":
            sw.receive(data(e), 0)
        sim.run()
        assert len(out1.received) == 3

    def test_forwarding_override_wins(self, sim, wired):
        sw, out1, out2 = wired
        sw.add_route("a", 1)
        sw.forwarding_override = lambda p: 2
        sw.receive(data("a"), 0)
        sim.run()
        assert out1.received == []
        assert len(out2.received) == 1

    def test_forwarding_override_none_falls_through(self, sim, wired):
        sw, out1, _ = wired
        sw.add_route("a", 1)
        sw.forwarding_override = lambda p: None
        sw.receive(data("a"), 0)
        sim.run()
        assert len(out1.received) == 1


class TestOverrideChain:
    def test_single_override_is_identity_preserving(self, sim, wired):
        sw, _, _ = wired
        fn = lambda p: 1  # noqa: E731
        sw.add_forwarding_override(fn)
        assert sw.forwarding_override is fn

    def test_chain_first_non_none_wins(self, sim, wired):
        sw, out1, out2 = wired
        sw.add_route("a", 1)
        sw.add_forwarding_override(lambda p: None)
        sw.add_forwarding_override(lambda p: 2)
        sw.receive(data("a"), 0)
        sim.run()
        assert out1.received == []
        assert len(out2.received) == 1

    def test_front_install_takes_precedence(self, sim, wired):
        sw, out1, out2 = wired
        sw.add_forwarding_override(lambda p: 1)
        sw.add_forwarding_override(lambda p: 2, front=True)
        sw.receive(data("a"), 0)
        sim.run()
        assert out1.received == []
        assert len(out2.received) == 1

    def test_duplicate_install_rejected(self, sim, wired):
        sw, _, _ = wired
        fn = lambda p: 1  # noqa: E731
        sw.add_forwarding_override(fn)
        with pytest.raises(ValueError):
            sw.add_forwarding_override(fn)

    def test_remove_missing_is_noop(self, sim, wired):
        sw, _, _ = wired
        sw.remove_forwarding_override(lambda p: 1)
        assert sw.forwarding_override is None

    def test_assignment_resets_chain(self, sim, wired):
        sw, _, _ = wired
        sw.add_forwarding_override(lambda p: 1)
        sw.add_forwarding_override(lambda p: 2)
        fn = lambda p: 1  # noqa: E731
        sw.forwarding_override = fn
        assert sw.forwarding_override is fn
        sw.forwarding_override = None
        assert sw.forwarding_override is None

    def test_whole_chain_none_falls_through_to_routes(self, sim, wired):
        sw, out1, _ = wired
        sw.add_route("a", 1)
        sw.add_forwarding_override(lambda p: None)
        sw.add_forwarding_override(lambda p: None)
        sw.receive(data("a"), 0)
        sim.run()
        assert len(out1.received) == 1


class TestHooks:
    def test_ingress_hook_sees_packet(self, sim, wired):
        sw, out1, _ = wired
        sw.set_default_route(1)
        seen = []
        sw.add_ingress_hook(0, lambda p, port: seen.append((p.entry, port)) or True)
        sw.receive(data("a"), 0)
        sim.run()
        assert seen == [("a", 0)]
        assert len(out1.received) == 1

    def test_ingress_hook_consumes(self, sim, wired):
        sw, out1, _ = wired
        sw.set_default_route(1)
        sw.add_ingress_hook(0, lambda p, port: False)
        sw.receive(data("a"), 0)
        sim.run()
        assert out1.received == []
        assert sw.stats.consumed == 1

    def test_ingress_hooks_port_scoped(self, sim, wired):
        sw, out1, _ = wired
        sw.set_default_route(1)
        sw.add_ingress_hook(5, lambda p, port: False)
        sw.receive(data("a"), 0)  # different port: hook must not fire
        sim.run()
        assert len(out1.received) == 1

    def test_front_hook_runs_first(self, sim, wired):
        sw, _, _ = wired
        sw.set_default_route(1)
        order = []
        sw.add_ingress_hook(0, lambda p, port: order.append("normal") or True)
        sw.add_ingress_hook(0, lambda p, port: order.append("front") or True, front=True)
        sw.receive(data(), 0)
        sim.run()
        assert order == ["front", "normal"]

    def test_egress_hook_sees_packet_after_tm(self, sim, wired):
        sw, out1, _ = wired
        sw.set_default_route(1)
        seen = []
        sw.add_egress_hook(1, lambda p, port: seen.append(port) or True)
        sw.receive(data(), 0)
        sim.run()
        assert seen == [1]
        assert len(out1.received) == 1

    def test_egress_hook_can_drop(self, sim, wired):
        sw, out1, _ = wired
        sw.set_default_route(1)
        sw.add_egress_hook(1, lambda p, port: False)
        sw.receive(data(), 0)
        sim.run()
        assert out1.received == []

    def test_hook_chain_stops_on_consume(self, sim, wired):
        sw, _, _ = wired
        sw.set_default_route(1)
        later = []
        sw.add_ingress_hook(0, lambda p, port: False)
        sw.add_ingress_hook(0, lambda p, port: later.append(1) or True)
        sw.receive(data(), 0)
        sim.run()
        assert later == []


class TestTrafficManager:
    def test_tm_tail_drop_when_queue_full(self, sim):
        sw = Switch(sim, "sw", tm_queue_packets=2)
        rx = Collector(sim)
        # Slow link so the queue builds: 100B at 8000bps = 0.1s per packet.
        link = Link(sim, rx, 0, bandwidth_bps=8_000, delay_s=0.0)
        sw.attach_link(1, link)
        sw.set_default_route(1)
        for _ in range(6):
            sw.receive(data(size=100), 0)
        sim.run()
        assert sw.stats.dropped_tm > 0
        assert sw.stats.forwarded + sw.stats.dropped_tm == 6

    def test_tm_drop_happens_before_egress_hooks(self, sim):
        """Congestion drops must not be seen by FANcY's egress counters."""
        sw = Switch(sim, "sw", tm_queue_packets=1)
        rx = Collector(sim)
        link = Link(sim, rx, 0, bandwidth_bps=8_000, delay_s=0.0)
        sw.attach_link(1, link)
        sw.set_default_route(1)
        egress_seen = []
        sw.add_egress_hook(1, lambda p, port: egress_seen.append(p) or True)
        for _ in range(5):
            sw.receive(data(size=100), 0)
        sim.run()
        assert len(egress_seen) == sw.stats.forwarded
        assert len(egress_seen) < 5

    def test_unlimited_tm_never_drops(self, sim):
        sw = Switch(sim, "sw", tm_queue_packets=None)
        rx = Collector(sim)
        link = Link(sim, rx, 0, bandwidth_bps=8_000, delay_s=0.0)
        sw.attach_link(1, link)
        sw.set_default_route(1)
        for _ in range(50):
            sw.receive(data(size=100), 0)
        sim.run()
        assert sw.stats.dropped_tm == 0
        assert len(rx.received) == 50


class TestInject:
    def test_inject_bypasses_tm_admission(self, sim):
        sw = Switch(sim, "sw", tm_queue_packets=0)  # TM admits nothing
        rx = Collector(sim)
        link = Link(sim, rx, 0, bandwidth_bps=None, delay_s=0.0001)
        sw.attach_link(1, link)
        sw.inject(Packet(PacketKind.FANCY_START, None, 64), 1)
        sim.run()
        assert len(rx.received) == 1

    def test_inject_passes_egress_hooks(self, sim):
        sw = Switch(sim, "sw")
        rx = Collector(sim)
        link = Link(sim, rx, 0, bandwidth_bps=None, delay_s=0.0001)
        sw.attach_link(1, link)
        seen = []
        sw.add_egress_hook(1, lambda p, port: seen.append(p.kind) or True)
        sw.inject(Packet(PacketKind.FANCY_STOP, None, 64), 1)
        sim.run()
        assert seen == [PacketKind.FANCY_STOP]

    def test_data_only_egress_hook_never_sees_control(self, sim, wired):
        sw, out1, _ = wired
        sw.set_default_route(1)
        order = []
        sw.add_egress_hook(1, lambda p, port: order.append(("tap", p.kind)) or True,
                           data_only=True)
        sw.add_egress_hook(1, lambda p, port: order.append(("all", p.kind)) or True)
        sw.inject(Packet(PacketKind.FANCY_START, None, 64), 1)      # injected
        sw.receive(Packet(PacketKind.FANCY_REPORT, None, 64), 0)    # forwarded
        sw.receive(data(), 0)
        sw._egress(Packet(PacketKind.ACK, None, 64, reverse=True), 1)
        sim.run()
        assert order == [
            ("all", PacketKind.FANCY_START), ("all", PacketKind.FANCY_REPORT),
            ("tap", PacketKind.DATA), ("all", PacketKind.DATA),
            ("tap", PacketKind.ACK), ("all", PacketKind.ACK)]
        assert len(out1.received) == 4

    def test_transmit_unknown_port_raises(self, sim):
        sw = Switch(sim, "sw")
        with pytest.raises(KeyError):
            sw.transmit(data(), 9)
