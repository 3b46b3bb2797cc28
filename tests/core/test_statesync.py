"""Tests for generalized state synchronization (§4.2 extension)."""

from __future__ import annotations

import pytest

from repro.baselines.simple import StrategyLinkMonitor
from repro.core.statesync import (
    ValueSyncReceiver,
    ValueSyncSender,
    byte_count,
    packet_count,
    payload_signature,
)
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import EntryLossFailure
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.topology import TwoSwitchTopology


def pkt(entry="e", size=1500, seq=0, flow_id=1):
    return Packet(PacketKind.DATA, entry, size, flow_id=flow_id, seq=seq)


class TestReducers:
    def test_packet_count(self):
        assert packet_count(pkt()) == 1

    def test_byte_count(self):
        assert byte_count(pkt(size=640)) == 640

    def test_signature_depends_on_contents(self):
        sig = payload_signature()
        assert sig(pkt(seq=1)) != sig(pkt(seq=2))
        assert sig(pkt(seq=1)) == sig(pkt(seq=1))

    def test_signature_bounded(self):
        sig = payload_signature(bits=16)
        assert all(0 <= sig(pkt(seq=i)) < 2 ** 16 for i in range(50))


class TestValueSync:
    def _session(self, sender, receiver, packets, drop=lambda p: False):
        sender.begin_session(1)
        receiver.begin_session(1)
        for p in packets:
            if sender.process_packet(p, 1) and not drop(p):
                receiver.process_packet(p, 1)
        return sender.end_session(receiver.snapshot(), 1)

    def test_byte_sync_detects_loss_weighted_by_volume(self):
        mismatches = []
        sender = ValueSyncSender(["a"], reducer=byte_count,
                                 on_mismatch=lambda e, d, s: mismatches.append(d))
        receiver = ValueSyncReceiver(1, reducer=byte_count)
        packets = [pkt("a", size=1500), pkt("a", size=64), pkt("a", size=1500)]
        detected = self._session(sender, receiver, packets,
                                 drop=lambda p: p.size == 1500)
        assert detected == ["a"]
        assert mismatches == [3000]  # bytes, not packets

    def test_signature_sync_detects_corruption(self):
        """Packets arrive (counts agree) but were rewritten in flight:
        only a content signature catches it."""
        sig = payload_signature()
        sender = ValueSyncSender(["a"], reducer=sig, signed=True)
        receiver = ValueSyncReceiver(1, reducer=sig)
        sender.begin_session(1)
        receiver.begin_session(1)
        for i in range(5):
            p = pkt("a", seq=i)
            sender.process_packet(p, 1)
            if i == 2:
                p.seq = 999  # in-flight corruption
            receiver.process_packet(p, 1)
        detected = sender.end_session(receiver.snapshot(), 1)
        assert detected == ["a"]

    def test_signature_sync_clean_path_no_mismatch(self):
        sig = payload_signature()
        sender = ValueSyncSender(["a"], reducer=sig, signed=True)
        receiver = ValueSyncReceiver(1, reducer=sig)
        detected = self._session(sender, receiver, [pkt("a", seq=i) for i in range(9)])
        assert detected == []

    def test_unsigned_ignores_remote_surplus(self):
        sender = ValueSyncSender(["a"])
        sender.begin_session(1)
        assert sender.end_session([5], 1) == []  # remote > local: not a loss

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            ValueSyncSender(["a", "a"])


class TestOnSimulator:
    def test_byte_sync_over_full_protocol(self, sim):
        failure = EntryLossFailure({"e"}, 0.5, start_time=1.0, seed=1)
        topo = TwoSwitchTopology(sim, loss_model=failure)
        lost_bytes = []
        sender = ValueSyncSender(["e"], reducer=byte_count,
                                 on_mismatch=lambda e, d, s: lost_bytes.append(d))
        monitor = StrategyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            sender, ValueSyncReceiver(1, reducer=byte_count),
            fsm_id="bytesync",
        )
        FlowGenerator(sim, topo.source, "e", rate_bps=1e6, flows_per_second=10,
                      seed=1, destination=topo.sink).start()
        monitor.start()
        sim.run(until=4.0)
        assert sender.flagged_entries == ["e"]
        assert sum(lost_bytes) >= 1500  # at least one full packet's worth
