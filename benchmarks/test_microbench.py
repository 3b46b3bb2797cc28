"""Micro-benchmarks of the core data structures and the event engine.

Unlike the experiment benchmarks (single-shot artifact regeneration),
these run proper multi-round timing: they track the per-operation cost of
the structures that sit on the simulated fast path, so regressions in the
simulator's throughput are visible.
"""

from __future__ import annotations

import pytest

from repro.core.bloom import BloomFilter, stable_hash
from repro.core.counters import DedicatedSenderCounters
from repro.core.hashtree import HashTree, HashTreeParams, TreeCounters
from repro.core.protocol import payload_checksum, verify_payload
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.packet import Packet, PacketKind

PARAMS = HashTreeParams(width=190, depth=3, split=2, pipelined=True)


class _CountingSink:
    """Minimal link receiver: counts deliveries."""

    __slots__ = ("received",)

    def __init__(self) -> None:
        self.received = 0

    def receive(self, packet: Packet, in_port: int) -> None:
        self.received += 1


def test_engine_event_throughput(benchmark):
    """Schedule + dispatch cost of the event engine."""

    def run():
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1

        for i in range(10_000):
            sim.schedule(i * 1e-6, tick)
        sim.run()
        return counter[0]

    assert benchmark(run) == 10_000


def test_hash_path_computation(benchmark):
    tree = HashTree(PARAMS, seed=0)
    entries = [f"10.{i % 256}.{i // 256}.0/24" for i in range(1000)]

    def run():
        # Half cached, half fresh: realistic mix.
        tree._cache.clear()
        return sum(tree.hash_path(e)[0] for e in entries)

    benchmark(run)


def test_tree_counter_increment(benchmark):
    counters = TreeCounters(PARAMS)
    counters.activate_node((3,))
    counters.activate_node((3, 7))

    def run():
        for i in range(1000):
            counters.increment_path((3, 7, i % 190))
        return counters.packets

    benchmark(run)


def test_dedicated_counter_tagging(benchmark):
    strategy = DedicatedSenderCounters([f"e{i}" for i in range(500)])
    strategy.begin_session(1)
    packets = [Packet(PacketKind.DATA, f"e{i % 500}", 1500) for i in range(1000)]

    def run():
        hits = 0
        for pkt in packets:
            pkt.clear_tag()
            hits += strategy.process_packet(pkt, 1)
        return hits

    assert benchmark(run) == 1000


def _tree_report_snapshot() -> dict:
    counters = TreeCounters(PARAMS)
    counters.activate_node((3,))
    counters.activate_node((3, 7))
    for i in range(1000):
        counters.increment_path((3, 7, i % 190))
    return counters.snapshot()


@pytest.mark.parametrize("extra", [
    {},
    {"snapshot": list(range(64))},
    {"snapshot": _tree_report_snapshot()},
], ids=["start", "dedicated-report-64", "tree-report-3-nodes"])
def test_control_payload_sign_and_verify(benchmark, extra):
    """The control-plane counterpart of the counter rows above: what one
    message costs to checksum at the sender and re-check at the receiver
    (1000 messages per round, so per-op cost = round time / 1000).  The
    streamed per-field CRC left it where the one-pass encoding had it:
    1.66 / 3.18 / 12.1 us before, 1.75 / 3.21 / 11.9 us after."""
    body = {"fsm": "s1->s2/dedicated", "session": 1234, **extra}

    def run():
        ok = 0
        for _ in range(1000):
            payload = dict(body)
            payload["csum"] = payload_checksum(payload)
            ok += verify_payload(payload)
        return ok

    assert benchmark(run) == 1000


@pytest.mark.parametrize("mode", ["reference", "fused"])
def test_link_pipeline_throughput(benchmark, mode):
    """Per-packet cost of serialize -> propagate -> deliver on an
    uncontended bandwidth link: the reference pipeline pays two heap
    events per packet, the fused path one."""
    fused = mode == "fused"

    def run():
        sim = Simulator()
        sink = _CountingSink()
        link = Link(sim, sink, 0, bandwidth_bps=10e9, delay_s=0.001, fused=fused)
        # 2 us spacing > 1.2 us serialization: every send is uncontended.
        for i in range(2000):
            sim.schedule(i * 2e-6, link.send,
                         Packet(PacketKind.DATA, "e0", 1500, seq=i))
        sim.run()
        return sink.received

    assert benchmark(run) == 2000


@pytest.mark.parametrize("mode", ["reference", "coalesced"])
def test_instant_link_burst_delivery(benchmark, mode):
    """Same-instant bursts on an instant (access) link: the reference
    path schedules one delivery event per packet, the fused path rewrites
    the pending delivery into a single burst event."""
    fused = mode == "coalesced"

    def run():
        sim = Simulator()
        sink = _CountingSink()
        link = Link(sim, sink, 0, bandwidth_bps=None, delay_s=0.001, fused=fused)
        for burst in range(250):
            sim.schedule(burst * 1e-4, _send_burst, link, 8)
        sim.run()
        return sink.received

    def _send_burst(link, n):
        for seq in range(n):
            link.send(Packet(PacketKind.DATA, "e0", 1500, seq=seq))

    assert benchmark(run) == 2000


@pytest.mark.parametrize("kind", ["data", "ack"])
def test_fabric_hop(benchmark, kind):
    """Hops through fully monitored fabric switches: 1000 packets cross a
    k=4 fat tree edge to edge (5 switch hops each, ECMP at two of them)
    with 64 counting monitors and a reroute controller deployed, as in
    the closed-loop experiments.  A DATA hop is arrival event -> ingress
    tap (count) -> forwarder -> egress tap (classify, tag, count) -> link
    send; an ACK hop is forwarded past the same taps uncounted.  Per-hop
    cost = round time / 5000; tests/fabric/test_hop_budget.py pins the
    same path in frames instead of time."""
    from repro.core.detector import FancyConfig
    from repro.fabric.builders import fat_tree
    from repro.fabric.deployment import FabricDeployment
    from repro.fabric.graph import FabricNetwork
    from repro.fabric.reroute import FabricRerouteController

    reverse = kind == "ack"

    def setup():
        sim = Simulator()
        net = FabricNetwork(sim, fat_tree(4))
        for entry in ("hp", "be"):
            net.add_entry(entry, "edge0-0", "edge1-1")
        dep = FabricDeployment(net, config=FancyConfig(
            high_priority=["hp"], tree_params=PARAMS,
            dedicated_session_s=10.0, tree_session_s=10.0))
        FabricRerouteController(net, dep)
        dep.start()
        sim.run(until=0.1)  # Start/StartACK done: every monitor is counting
        net.host("edge1-1").auto_sink = False  # DATA ends at the far host
        send = net.host("edge1-1" if reverse else "edge0-0").send
        for i in range(1000):
            packet = Packet(PacketKind.ACK if reverse else PacketKind.DATA,
                            "hp" if i % 2 else "be", 400, flow_id=i % 4, seq=i,
                            reverse=reverse)
            sim.schedule(i * 1e-6, send, packet)
        received = sum(sw.stats.received for sw in net.switches.values())
        return (sim, net, received), {}

    def run(sim, net, received):
        sim.run(until=1.0)
        return sum(sw.stats.received for sw in net.switches.values()) - received

    assert benchmark.pedantic(run, setup=setup, rounds=20) == 5000


def test_tcp_segment(benchmark):
    """ACKed TCP segments across a tree-monitored two-switch path: one
    paced flow of 2000 segments, each a full round trip (pacing tick,
    three links out with tag + count at A and count at B, sink, ACK and
    three links back, ``on_ack``) — seven engine events.  Per-segment cost
    = round time / 2000; tests/simulator/test_segment_budget.py pins the
    same path in frames instead of time.  Measured 12.8-13.5 us per
    segment before the per-window tag memo / flat send path, 10.4-11.5 us
    after (three interleaved readings, best of 7 rounds of 20000 segments;
    docs/PERFORMANCE.md, "Per-segment budget")."""
    from repro.core.detector import FancyConfig, FancyLinkMonitor
    from repro.simulator.tcp import TcpFlow
    from repro.simulator.topology import TwoSwitchTopology

    def setup():
        sim = Simulator()
        topo = TwoSwitchTopology(sim)
        monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                                   FancyConfig(tree_params=PARAMS, tree_session_s=60.0))
        monitor.start()
        sim.run(until=0.1)  # Start/StartACK done: the tree FSM is counting
        flow = TcpFlow(sim, topo.source.send, "e0", 1, total_packets=2000,
                       rate_bps=1_200_000)
        topo.source.register_flow(flow)
        return (sim, flow, monitor), {}

    def run(sim, flow, monitor):
        flow.start()
        sim.run(until=40.0)
        assert flow.completed and flow.retransmissions == 0
        return monitor.tree_receiver.strategy.counters.packets

    assert benchmark.pedantic(run, setup=setup, rounds=10) == 2000


@pytest.mark.parametrize("mode", ["off", "on", "episode"])
def test_session_exchange(benchmark, mode):
    """Completed counting sessions of one dedicated FSM pair on a
    two-switch monitored link: Start, StartACK, a 50 ms window, Stop,
    T_wait, Report, ``end_session`` and the next ``_open_session`` — four
    control frames signed and re-verified, six engine events.  ``off`` has
    no telemetry, ``on`` a :class:`Telemetry` session on the monitor
    (timeline + control counters, no episode), ``episode`` the same inside
    an open trace episode (eleven spans per session).  Per-session cost =
    round time / 1000; tests/core/test_session_budget.py pins the same
    exchange in frames instead of time.  Measured off / on / episode
    26.0 / 48.7 / 80.6 us per session before the tuple event records,
    streamed CRC and attribute-gated trace path, 23.2 / 35.3 / 61.4 us
    after (best of three interleaved readings; docs/PERFORMANCE.md,
    "Per-session budget")."""
    from repro.core.detector import FancyConfig, FancyLinkMonitor
    from repro.simulator.topology import TwoSwitchTopology
    from repro.telemetry import Telemetry

    def setup():
        sim = Simulator()
        telemetry = None if mode == "off" else Telemetry(scope="A->B")
        topo = TwoSwitchTopology(sim)
        monitor = FancyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            FancyConfig(high_priority=[f"hp{i}" for i in range(8)],
                        tree_params=None),
            telemetry=telemetry)
        monitor.start()
        sim.run(until=1.0)
        if mode == "episode":
            telemetry.traces.begin_episode(sim.now, cause="fault")
        return (sim, monitor.dedicated_sender), {}

    def run(sim, sender):
        done = sender.sessions_completed
        sim.run(until=sim.now + 91.0)  # 90.9 ms per session
        return sender.sessions_completed - done

    assert 1000 <= benchmark.pedantic(run, setup=setup, rounds=10) <= 1002


def test_bloom_filter_add_and_query(benchmark):
    bf = BloomFilter(n_cells=100_000, n_hashes=2)
    items = [(i % 97, i % 53, i % 11) for i in range(500)]

    def run():
        for item in items:
            bf.add(item)
        return sum(1 for item in items if item in bf)

    assert benchmark(run) == 500


def test_stable_hash_cost(benchmark):
    def run():
        return sum(stable_hash(f"prefix-{i}", i % 7) & 1 for i in range(2000))

    benchmark(run)


def test_end_to_end_simulation_throughput(benchmark):
    """Packets-per-wall-second through the full stack (topology + FANcY +
    TCP), the number that bounds every experiment's runtime."""
    from repro.core.detector import FancyConfig, FancyLinkMonitor
    from repro.core.hashtree import HashTreeParams
    from repro.simulator.apps import FlowGenerator
    from repro.simulator.topology import TwoSwitchTopology

    def run():
        sim = Simulator()
        topo = TwoSwitchTopology(sim)
        monitor = FancyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            FancyConfig(high_priority=["e0"],
                        tree_params=HashTreeParams(width=32, depth=3, split=2)),
        )
        for i in range(4):
            FlowGenerator(sim, topo.source, f"e{i}", rate_bps=2e6,
                          flows_per_second=20, seed=i,
                          flow_id_base=(i + 1) * 1_000_000, destination=topo.sink).start()
        monitor.start()
        sim.run(until=2.0)
        return topo.sink.packets_received

    received = benchmark(run)
    assert received > 500
