"""Tests for dynamic entry classification (root-cause-analysis entries)."""

from __future__ import annotations

import pytest

from repro.core.classify import by_field, by_packet_size, by_prefix, compose
from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams
from repro.core.output import FailureKind
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import PacketPropertyFailure
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.topology import TwoSwitchTopology


def pkt(entry="e", size=1500, seq=0):
    return Packet(PacketKind.DATA, entry, size, seq=seq)


class TestClassifiers:
    def test_by_prefix_default(self):
        assert by_prefix(pkt(entry="10.0.0.0/24")) == "10.0.0.0/24"

    def test_by_packet_size_bins(self):
        classify = by_packet_size(bins=(64, 512, 1500))
        assert classify(pkt(size=60)) == "size<=64"
        assert classify(pkt(size=65)) == "size<=512"
        assert classify(pkt(size=1500)) == "size<=1500"
        assert classify(pkt(size=9000)) == "size>1500"

    def test_by_packet_size_unsorted_bins_ok(self):
        classify = by_packet_size(bins=(1500, 64))
        assert classify(pkt(size=60)) == "size<=64"

    def test_by_field(self):
        classify = by_field(lambda p: p.seq, name="ipid")
        assert classify(pkt(seq=0xE000)) == ("ipid", 0xE000)

    def test_compose(self):
        classify = compose(by_prefix, by_packet_size(bins=(512, 1500)))
        assert classify(pkt(entry="a", size=100)) == ("a", "size<=512")

    def test_compose_empty_rejected(self):
        with pytest.raises(ValueError):
            compose()


class TestSizeClassMonitoring:
    """Table 1: 'drops random sized L2TPv3 packets' — with a size
    classifier, FANcY localizes the failing *size class*."""

    def test_localizes_failing_size_class(self, sim):
        # Failure: every small packet is dropped, full-size packets pass.
        failure = PacketPropertyFailure(lambda p: p.size <= 512, 1.0,
                                        start_time=1.0, seed=1)
        topo = TwoSwitchTopology(sim, loss_model=failure)
        size_classes = ["size<=512", "size<=1500"]
        monitor = FancyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            FancyConfig(high_priority=size_classes, tree_params=None,
                        classifier=by_packet_size(bins=(512, 1500))),
        )
        # Two traffic mixes: small packets and MTU-sized packets.
        FlowGenerator(sim, topo.source, "p1", rate_bps=500e3, flows_per_second=10,
                      packet_size=256, seed=1, destination=topo.sink).start()
        FlowGenerator(sim, topo.source, "p2", rate_bps=1e6, flows_per_second=10,
                      packet_size=1500, seed=2, flow_id_base=10_000_000,
                      destination=topo.sink).start()
        monitor.start()
        sim.run(until=4.0)

        assert monitor.entry_is_flagged("size<=512")
        assert not monitor.entry_is_flagged("size<=1500")

    def test_tree_mode_with_classifier(self, sim):
        failure = PacketPropertyFailure(lambda p: p.size <= 512, 0.5,
                                        start_time=1.0, seed=1)
        topo = TwoSwitchTopology(sim, loss_model=failure)
        monitor = FancyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            FancyConfig(high_priority=[],
                        tree_params=HashTreeParams(width=16, depth=3, split=2),
                        classifier=by_packet_size(bins=(512, 1500))),
        )
        FlowGenerator(sim, topo.source, "p1", rate_bps=500e3, flows_per_second=10,
                      packet_size=256, seed=1, destination=topo.sink).start()
        FlowGenerator(sim, topo.source, "p2", rate_bps=1e6, flows_per_second=10,
                      packet_size=1500, seed=2, flow_id_base=10_000_000,
                      destination=topo.sink).start()
        monitor.start()
        sim.run(until=6.0)

        assert monitor.entry_is_flagged("size<=512")
        assert not monitor.entry_is_flagged("size<=1500")
        # The leaf report names the size class's hash path.
        hp = monitor.tree_strategy.tree.hash_path("size<=512")
        assert monitor.log.first_report(kind=FailureKind.TREE_LEAF,
                                        hash_path=hp) is not None

    def test_acks_do_not_pollute_size_classes(self, sim):
        """Reverse ACKs (64 B) must not be counted into the small-size
        class of the forward monitor."""
        topo = TwoSwitchTopology(sim)
        monitor = FancyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            FancyConfig(high_priority=["size<=64", "size<=1500"],
                        tree_params=None,
                        classifier=by_packet_size(bins=(64, 1500))),
        )
        FlowGenerator(sim, topo.source, "p", rate_bps=1e6, flows_per_second=10,
                      packet_size=1500, seed=1, destination=topo.sink).start()
        monitor.start()
        sim.run(until=3.0)
        idx = monitor.dedicated_strategy.index["size<=64"]
        assert monitor.dedicated_strategy.counters[idx] == 0
        assert len(monitor.log) == 0
