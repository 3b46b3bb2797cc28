"""Tests for the Reno-style TCP model.

The evaluation leans on two behaviours (§5.2): flows keep sending under
partial loss, and a blackhole collapses an entry's traffic to sparse
RTO-driven retransmissions with exponential backoff.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.tcp import DEFAULT_RTO, MAX_RTO, TcpFlow, TcpSink


class Wire:
    """Lossy in-memory pipe connecting a TcpFlow and a TcpSink."""

    def __init__(self, sim, delay=0.005, drop=None):
        self.sim = sim
        self.delay = delay
        self.drop = drop or (lambda p: False)
        self.flow = None
        self.sink = None
        self.forward_log = []

    def send_data(self, packet):
        self.forward_log.append((self.sim.now, packet))
        if self.drop(packet):
            return
        self.sim.schedule(self.delay, self.sink.on_data, packet)

    def send_ack(self, packet):
        self.sim.schedule(self.delay, self.flow.on_ack, packet)


def make_pair(sim, total=10, rate=1e6, drop=None, delay=0.005):
    wire = Wire(sim, delay=delay, drop=drop)
    flow = TcpFlow(sim, wire.send_data, "e", 1, total_packets=total, rate_bps=rate)
    sink = TcpSink(sim, wire.send_ack, "e", 1)
    wire.flow, wire.sink = flow, sink
    return flow, sink, wire


class TestLossFree:
    def test_flow_completes(self, sim):
        flow, sink, _ = make_pair(sim, total=20)
        flow.start()
        sim.run(until=30.0)
        assert flow.completed
        assert sink.packets_received >= 20
        assert flow.retransmissions == 0

    def test_one_second_flow_duration(self, sim):
        """A flow paced at its rate lasts ≈1 s, like the paper's flows."""
        # 1 Mbps, 1500 B packets, ~83 packets ≈ 1 s of payload.
        flow, _, _ = make_pair(sim, total=83, rate=1e6)
        flow.start()
        sim.run(until=10.0)
        assert flow.completed
        assert 0.8 < flow.duration < 2.0

    def test_sink_acks_cumulative(self, sim):
        flow, sink, _ = make_pair(sim, total=5)
        flow.start()
        sim.run(until=5.0)
        assert sink.next_expected == 5

    def test_single_packet_flow(self, sim):
        flow, _, _ = make_pair(sim, total=1)
        flow.start()
        sim.run(until=1.0)
        assert flow.completed

    def test_rejects_empty_flow(self, sim):
        with pytest.raises(ValueError):
            TcpFlow(sim, lambda p: None, "e", 1, total_packets=0)

    def test_on_complete_callback(self, sim):
        done = []
        wire = Wire(sim)
        flow = TcpFlow(sim, wire.send_data, "e", 1, total_packets=3,
                       on_complete=done.append)
        sink = TcpSink(sim, wire.send_ack, "e", 1)
        wire.flow, wire.sink = flow, sink
        flow.start()
        sim.run(until=5.0)
        assert done == [flow]


class TestLossRecovery:
    def test_recovers_from_single_loss(self, sim):
        dropped = []

        def drop_third(p):
            if p.seq == 2 and 2 not in dropped:
                dropped.append(2)
                return True
            return False

        flow, sink, _ = make_pair(sim, total=10, drop=drop_third)
        flow.start()
        sim.run(until=10.0)
        assert flow.completed
        assert flow.retransmissions >= 1
        assert sink.next_expected == 10

    def test_recovers_from_random_partial_loss(self, sim):
        import random
        rng = random.Random(5)
        flow, sink, _ = make_pair(sim, total=40, drop=lambda p: rng.random() < 0.2)
        flow.start()
        sim.run(until=60.0)
        assert flow.completed

    def test_rto_fires_when_all_acks_lost(self, sim):
        flow, _, wire = make_pair(sim, total=5, drop=lambda p: True)
        flow.start()
        sim.run(until=1.0)
        # First transmission plus at least one RTO retransmission.
        assert flow.retransmissions >= 1
        assert not flow.completed

    def test_rto_exponential_backoff(self, sim):
        flow, _, wire = make_pair(sim, total=5, drop=lambda p: True)
        flow.start()
        sim.run(until=5.0)
        times = [t for t, p in wire.forward_log if p.seq == 0]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(gaps) >= 3
        # Gaps grow (exponential backoff) and are bounded by MAX_RTO.
        assert gaps[1] > gaps[0]
        assert all(g <= MAX_RTO + 1e-6 for g in gaps)

    def test_blackhole_traffic_collapses_to_retransmissions(self, sim):
        """§5.2: under 100 % loss only sparse RTO retransmissions remain."""
        flow, _, wire = make_pair(sim, total=50, rate=5e6, drop=lambda p: True)
        flow.start()
        sim.run(until=5.0)
        late = [t for t, _ in wire.forward_log if t > 2.0]
        # In the last seconds the send rate is far below the pacing rate.
        assert len(late) <= 4

    def test_fast_retransmit_on_triple_dupack(self, sim):
        lost_once = []

        def drop(p):
            if p.seq == 1 and 1 not in lost_once:
                lost_once.append(1)
                return True
            return False

        flow, sink, wire = make_pair(sim, total=20, rate=5e6, drop=drop)
        flow.start()
        sim.run(until=DEFAULT_RTO * 0.9)  # before any RTO could fire
        retx = [t for t, p in wire.forward_log if p.seq == 1]
        assert len(retx) >= 2  # original + fast retransmit

    def test_cwnd_resets_on_timeout(self, sim):
        flow, _, _ = make_pair(sim, total=10, drop=lambda p: True)
        flow.start()
        sim.run(until=1.0)
        assert flow.cwnd == 1.0

    def test_rto_restores_after_progress(self, sim):
        first = []

        def drop(p):
            if p.seq == 0 and not first:
                first.append(1)
                return True
            return False

        flow, _, _ = make_pair(sim, total=10, drop=drop)
        flow.start()
        sim.run(until=10.0)
        assert flow.completed
        assert flow.rto == flow.base_rto


class TestSinkBehaviour:
    def test_out_of_order_buffering(self, sim):
        sink = TcpSink(sim, lambda p: None, "e", 1)
        for seq in (1, 2, 0):
            sink.on_data(Packet(PacketKind.DATA, "e", 1500, flow_id=1, seq=seq))
        assert sink.next_expected == 3
        assert not sink.out_of_order

    def test_duplicate_acks_on_gap(self, sim):
        acks = []
        sink = TcpSink(sim, lambda p: acks.append(p.ack), "e", 1)
        sink.on_data(Packet(PacketKind.DATA, "e", 1500, flow_id=1, seq=0))
        for seq in (2, 3, 4):
            sink.on_data(Packet(PacketKind.DATA, "e", 1500, flow_id=1, seq=seq))
        assert acks == [1, 1, 1, 1]

    def test_acks_marked_reverse(self, sim):
        acks = []
        sink = TcpSink(sim, acks.append, "e", 1)
        sink.on_data(Packet(PacketKind.DATA, "e", 1500, flow_id=1, seq=0))
        assert acks[0].reverse is True
        assert acks[0].kind is PacketKind.ACK

    def test_stop_cancels_timers(self, sim):
        flow, _, _ = make_pair(sim, total=5, drop=lambda p: True)
        flow.start()
        sim.run(until=0.1)
        flow.stop()
        before = len([1 for _ in range(0)])
        sim.run(until=5.0)
        assert flow.completed  # stop marks completion (abort)


class SetSink:
    """The reference receiver: every segment above the hole in a set."""

    def __init__(self) -> None:
        self.next_expected = 0
        self.pending: set[int] = set()

    def on_data(self, seq: int) -> int:
        if seq == self.next_expected:
            self.next_expected += 1
            while self.next_expected in self.pending:
                self.pending.discard(self.next_expected)
                self.next_expected += 1
        elif seq > self.next_expected:
            self.pending.add(seq)
        return self.next_expected


def runs_to_set(runs: list[int]) -> set[int]:
    """Expand flattened half-open runs, checking they are sorted,
    disjoint and non-adjacent (``start < end < next start``)."""
    assert len(runs) % 2 == 0
    assert all(a < b for a, b in zip(runs, runs[1:])), runs
    return {seq for start, end in zip(runs[::2], runs[1::2]) for seq in range(start, end)}


@st.composite
def segment_streams(draw) -> list[int]:
    """A flow's segments with holes (drops), reordering (a segment moved
    elsewhere in the stream) and duplicates (retransmissions, which may
    fill a hole)."""
    n = draw(st.integers(1, 80))
    dropped = draw(st.sets(st.integers(0, n - 1), max_size=n // 4))
    stream = [seq for seq in range(n) if seq not in dropped]
    for _ in range(draw(st.integers(0, n // 2))):
        if stream:
            moved = stream.pop(draw(st.integers(0, len(stream) - 1)))
            stream.insert(draw(st.integers(0, len(stream))), moved)
    for seq in draw(st.lists(st.integers(0, n - 1), max_size=n // 2)):
        stream.insert(draw(st.integers(0, len(stream))), seq)
    return stream


class TestOutOfOrderRuns:
    @settings(max_examples=300, deadline=None)
    @given(segment_streams())
    def test_acks_match_the_set_based_receiver(self, stream):
        acks = []
        sink = TcpSink(Simulator(), lambda p: acks.append(p.ack), "e", 1)
        oracle = SetSink()
        expected = []
        for seq in stream:
            sink.on_data(Packet(PacketKind.DATA, "e", 1500, flow_id=1, seq=seq))
            expected.append(oracle.on_data(seq))
            assert runs_to_set(sink.out_of_order or []) == oracle.pending
        assert acks == expected
        assert sink.next_expected == oracle.next_expected

    def test_a_hole_that_never_fills_holds_one_run(self, sim):
        sink = TcpSink(sim, lambda p: None, "e", 1)
        for seq in (0, *range(2, 5000)):
            sink.on_data(Packet(PacketKind.DATA, "e", 1500, flow_id=1, seq=seq))
        assert sink.next_expected == 1
        assert sink.out_of_order == [2, 5000]
