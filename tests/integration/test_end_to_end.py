"""End-to-end integration tests: every gray-failure class of Table 1.

Table 1 classifies gray failures by (affected entries × dropped packets):
one/some prefixes vs all prefixes, and some packets vs all packets.  Each
test builds the full stack — TCP traffic, switches, FANcY — and checks the
failure is detected and correctly localized.
"""

from __future__ import annotations


from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams
from repro.core.output import FailureKind
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import (
    EntryLossFailure,
    PacketPropertyFailure,
    UniformLossFailure,
)
from repro.simulator.topology import TwoSwitchTopology

TREE = HashTreeParams(width=24, depth=3, split=2, pipelined=True)


def deploy(sim, loss_model, entries, high_priority=(), tree=TREE,
           rate=1e6, fps=10):
    topo = TwoSwitchTopology(sim, loss_model=loss_model)
    monitor = FancyLinkMonitor(
        sim, topo.upstream, 1, topo.downstream, 1,
        FancyConfig(high_priority=list(high_priority), tree_params=tree),
    )
    for i, entry in enumerate(entries):
        FlowGenerator(sim, topo.source, entry, rate_bps=rate,
                      flows_per_second=fps, seed=i + 1,
                      flow_id_base=(i + 1) * 1_000_000, destination=topo.sink).start()
    monitor.start()
    return topo, monitor


ENTRIES = [f"10.{i}.0.0/24" for i in range(8)]


class TestTable1FailureClasses:
    def test_one_prefix_all_packets(self, sim):
        """e.g. 'VPN label corruption': blackhole on one prefix."""
        failure = EntryLossFailure({ENTRIES[0]}, 1.0, start_time=1.0, seed=1)
        _, monitor = deploy(sim, failure, ENTRIES)
        sim.run(until=6.0)
        assert monitor.entry_is_flagged(ENTRIES[0])
        assert not any(monitor.entry_is_flagged(e) for e in ENTRIES[2:])

    def test_one_prefix_some_packets(self, sim):
        """e.g. 'BGP packets dropped under load': partial loss, one prefix."""
        failure = EntryLossFailure({ENTRIES[0]}, 0.3, start_time=1.0, seed=1)
        _, monitor = deploy(sim, failure, ENTRIES)
        sim.run(until=8.0)
        assert monitor.entry_is_flagged(ENTRIES[0])

    def test_some_prefixes_all_packets(self, sim):
        """e.g. 'packets from a specific line card' hitting several prefixes."""
        victims = set(ENTRIES[:3])
        failure = EntryLossFailure(victims, 1.0, start_time=1.0, seed=1)
        _, monitor = deploy(sim, failure, ENTRIES)
        sim.run(until=10.0)
        assert all(monitor.entry_is_flagged(v) for v in victims)

    def test_all_prefixes_some_packets(self, sim):
        """e.g. 'wrong CRC' — random loss on everything → uniform report."""
        failure = UniformLossFailure(0.4, start_time=1.0, seed=1)
        _, monitor = deploy(sim, failure, ENTRIES, rate=3e6, fps=20,
                            tree=HashTreeParams(width=8, depth=3, split=2))
        sim.run(until=4.0)
        assert monitor.log.by_kind(FailureKind.UNIFORM)

    def test_all_prefixes_all_packets(self, sim):
        """Interface blackhole: every packet dropped → uniform report."""
        failure = UniformLossFailure(1.0, start_time=1.0, seed=1)
        _, monitor = deploy(sim, failure, ENTRIES, rate=3e6, fps=20,
                            tree=HashTreeParams(width=8, depth=3, split=2))
        sim.run(until=4.0)
        assert monitor.log.by_kind(FailureKind.UNIFORM)

    def test_packet_size_specific_failure(self, sim):
        """Table 1: 'drops random sized packets' — a property failure on
        one size class still surfaces as per-entry loss."""
        failure = PacketPropertyFailure(
            lambda p: p.size == 1500 and p.entry == ENTRIES[0],
            0.8, start_time=1.0, seed=1,
        )
        _, monitor = deploy(sim, failure, ENTRIES)
        sim.run(until=8.0)
        assert monitor.entry_is_flagged(ENTRIES[0])


class TestMixedDeployment:
    def test_high_priority_and_best_effort_coexist(self, sim):
        victims = {ENTRIES[0], ENTRIES[4]}
        failure = EntryLossFailure(victims, 1.0, start_time=1.0, seed=1)
        _, monitor = deploy(sim, failure, ENTRIES,
                            high_priority=ENTRIES[:2])
        sim.run(until=8.0)
        # ENTRIES[0] via dedicated counter, ENTRIES[4] via the tree.
        ded = monitor.log.by_kind(FailureKind.DEDICATED_ENTRY)
        tree = monitor.log.by_kind(FailureKind.TREE_LEAF)
        assert any(r.entry == ENTRIES[0] for r in ded)
        hp4 = monitor.tree_strategy.tree.hash_path(ENTRIES[4])
        assert any(r.hash_path == hp4 for r in tree)

    def test_dedicated_detects_faster_than_tree(self, sim):
        victims = {ENTRIES[0], ENTRIES[4]}
        failure = EntryLossFailure(victims, 1.0, start_time=1.0, seed=1)
        _, monitor = deploy(sim, failure, ENTRIES,
                            high_priority=ENTRIES[:2], rate=2e6, fps=20)
        sim.run(until=8.0)
        t_ded = monitor.first_flag_time(ENTRIES[0])
        t_tree = monitor.first_flag_time(ENTRIES[4])
        assert t_ded is not None and t_tree is not None
        assert t_ded < t_tree

    def test_failure_ending_stops_reports(self, sim):
        failure = EntryLossFailure({ENTRIES[0]}, 1.0, start_time=1.0,
                                   end_time=2.0, seed=1)
        _, monitor = deploy(sim, failure, ENTRIES, high_priority=[ENTRIES[0]],
                            tree=None)
        sim.run(until=8.0)
        reports = monitor.log.by_kind(FailureKind.DEDICATED_ENTRY)
        assert reports
        assert max(r.time for r in reports) < 3.0


class TestBidirectionalMonitoring:
    def test_two_monitors_on_same_link(self, sim):
        """FANcY is deployed per directed link; both directions coexist."""
        failure = EntryLossFailure({"fwd"}, 1.0, start_time=1.0, seed=1)
        topo = TwoSwitchTopology(sim, loss_model=failure)
        fwd = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                               FancyConfig(high_priority=["fwd"],
                                           tree_params=None))
        rev = FancyLinkMonitor(sim, topo.downstream, 1, topo.upstream, 1,
                               FancyConfig(high_priority=["rev"],
                                           tree_params=None))
        FlowGenerator(sim, topo.source, "fwd", rate_bps=1e6, flows_per_second=10,
                      seed=1, destination=topo.sink).start()
        fwd.start()
        rev.start()
        sim.run(until=5.0)
        assert fwd.entry_is_flagged("fwd")
        assert not rev.log.by_kind(FailureKind.DEDICATED_ENTRY)
