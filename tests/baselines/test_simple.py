"""Tests for the simple counter designs (§2.4 / §5.2)."""

from __future__ import annotations


from repro.baselines.simple import (
    CountingBloomReceiver,
    CountingBloomSender,
    SingleLinkCounterReceiver,
    SingleLinkCounterSender,
    StrategyLinkMonitor,
)
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import EntryLossFailure
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.topology import TwoSwitchTopology


def data(entry="e"):
    return Packet(PacketKind.DATA, entry, 1500)


class TestSingleCounterStrategies:
    def test_detects_any_loss(self):
        s, r = SingleLinkCounterSender(), SingleLinkCounterReceiver()
        s.begin_session(1)
        r.begin_session(1)
        for i in range(10):
            pkt = data(f"e{i}")
            s.process_packet(pkt, 1)
            if i != 3:
                r.process_packet(pkt, 1)
        assert s.end_session(r.snapshot(), 1) == 1
        assert s.detections == 1

    def test_no_loss_no_detection(self):
        s, r = SingleLinkCounterSender(), SingleLinkCounterReceiver()
        s.begin_session(1)
        r.begin_session(1)
        pkt = data()
        s.process_packet(pkt, 1)
        r.process_packet(pkt, 1)
        assert s.end_session(r.snapshot(), 1) == 0

    def test_cannot_localize(self):
        """The design's fundamental limit: one number for the whole link."""
        s = SingleLinkCounterSender()
        s.begin_session(1)
        for entry in ("a", "b", "c"):
            s.process_packet(data(entry), 1)
        assert s.count == 3  # no per-entry state exists at all

    def test_callback(self):
        hits = []
        s = SingleLinkCounterSender(on_detection=lambda lost, sid: hits.append(lost))
        s.begin_session(1)
        s.process_packet(data(), 1)
        s.end_session(0, 1)
        assert hits == [1]


class TestCountingBloomStrategies:
    def test_detects_failed_entry(self):
        entries = [f"e{i}" for i in range(30)]
        s = CountingBloomSender(1024, candidate_entries=entries, seed=1)
        r = CountingBloomReceiver(1024, seed=1)
        s.begin_session(1)
        r.begin_session(1)
        for e in entries:
            for _ in range(5):
                pkt = data(e)
                s.process_packet(pkt, 1)
                if e != "e7":
                    r.process_packet(pkt, 1)
        flagged = s.end_session(r.snapshot(), 1)
        assert "e7" in flagged

    def test_small_filter_produces_false_positives(self):
        """§5.2: with a tight filter, collisions implicate innocents."""
        entries = [f"e{i}" for i in range(200)]
        s = CountingBloomSender(32, candidate_entries=entries, n_hashes=1, seed=1)
        r = CountingBloomReceiver(32, n_hashes=1, seed=1)
        s.begin_session(1)
        r.begin_session(1)
        for e in entries:
            pkt = data(e)
            s.process_packet(pkt, 1)
            if e != "e0":
                r.process_packet(pkt, 1)
        flagged = set(s.end_session(r.snapshot(), 1))
        assert "e0" in flagged
        assert len(flagged) > 1

    def test_flagged_set_accumulates_without_duplicates(self):
        entries = ["a", "b"]
        s = CountingBloomSender(256, candidate_entries=entries, seed=1)
        r = CountingBloomReceiver(256, seed=1)
        for session in (1, 2):
            s.begin_session(session)
            r.begin_session(session)
            pkt = data("a")
            s.process_packet(pkt, session)  # lost both sessions
            newly = s.end_session(r.snapshot(), session)
            if session == 1:
                assert "a" in newly
            else:
                assert "a" not in newly  # already flagged


class TestStrategyLinkMonitor:
    def test_single_counter_on_simulator(self, sim):
        failure = EntryLossFailure({"e"}, 0.5, start_time=1.0, seed=1)
        topo = TwoSwitchTopology(sim, loss_model=failure)
        sender = SingleLinkCounterSender()
        monitor = StrategyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            sender, SingleLinkCounterReceiver(), fsm_id="single",
        )
        FlowGenerator(sim, topo.source, "e", rate_bps=1e6, flows_per_second=10,
                      seed=1, destination=topo.sink).start()
        monitor.start()
        sim.run(until=4.0)
        assert sender.detections > 0

    def test_cbf_on_simulator_localizes_with_collisions(self, sim):
        entries = [f"e{i}" for i in range(10)]
        failure = EntryLossFailure({"e0"}, 1.0, start_time=1.0, seed=1)
        topo = TwoSwitchTopology(sim, loss_model=failure)
        sender = CountingBloomSender(2048, candidate_entries=entries, seed=1)
        monitor = StrategyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            sender, CountingBloomReceiver(2048, seed=1), fsm_id="cbf",
            report_size_bytes=2048 * 4 + 30,
        )
        for i, e in enumerate(entries):
            FlowGenerator(sim, topo.source, e, rate_bps=1e6, flows_per_second=10,
                          seed=i, flow_id_base=(i + 1) * 100_000, destination=topo.sink).start()
        monitor.start()
        sim.run(until=4.0)
        assert "e0" in sender.flagged

    def test_no_failure_nothing_flagged(self, sim):
        topo = TwoSwitchTopology(sim)
        sender = SingleLinkCounterSender()
        monitor = StrategyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            sender, SingleLinkCounterReceiver(), fsm_id="single",
        )
        FlowGenerator(sim, topo.source, "e", rate_bps=1e6, flows_per_second=10,
                      seed=1, destination=topo.sink).start()
        monitor.start()
        sim.run(until=3.0)
        assert sender.detections == 0
