"""FancyLinkMonitor.update_entries: rotating the dedicated top-N set.

Entry churn (docs/ROBUSTNESS.md): the operator's top-N prefix set
rotates while the monitor runs.  Swaps apply immediately when the
dedicated sender is idle, defer to the next verified-Report boundary
when a session is live on the wire, carry output flags of persisting
entries, and resize the receiver's Report frame.
"""

from __future__ import annotations

import pytest

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams
from repro.core.output import FailureKind
from repro.core.protocol import SenderState
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import EntryLossFailure
from repro.simulator.topology import TwoSwitchTopology

SMALL_TREE = HashTreeParams(width=8, depth=2, split=2, pipelined=True)


def build(sim, entries=("a", "b"), loss_model=None):
    topo = TwoSwitchTopology(sim, loss_model=loss_model)
    config = FancyConfig(high_priority=list(entries), tree_params=None)
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                               config)
    return topo, monitor


class TestImmediateSwap:
    def test_idle_monitor_swaps_immediately(self, sim):
        _, monitor = build(sim)
        assert monitor.update_entries(["x", "y", "z"]) is True
        assert not monitor.pending_entry_update
        assert monitor.config.high_priority == ["x", "y", "z"]
        assert monitor.dedicated_strategy.owns("x")
        assert not monitor.dedicated_strategy.owns("a")

    def test_swap_resizes_report_frame(self, sim):
        _, monitor = build(sim)
        before = monitor.dedicated_receiver.report_size_bytes
        monitor.update_entries([f"p/{i}" for i in range(500)])
        after = monitor.dedicated_receiver.report_size_bytes
        assert after == 500 * 32 // 8 + 30
        assert after > before

    def test_monitor_without_dedicated_tier_raises(self, sim):
        topo = TwoSwitchTopology(sim)
        config = FancyConfig(high_priority=[], tree_params=SMALL_TREE)
        monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                                   config)
        with pytest.raises(RuntimeError):
            monitor.update_entries(["x"])


class TestDeferredSwap:
    def test_live_session_defers_to_report_boundary(self, sim):
        topo, monitor = build(sim)
        for i, entry in enumerate(("a", "b")):
            FlowGenerator(sim, topo.source, entry, rate_bps=1e6,
                          flows_per_second=10, seed=i,
                          flow_id_base=(i + 1) * 1_000_000, destination=topo.sink).start()
        monitor.start()
        sim.run(until=0.02)  # mid-session: tag space live on the wire
        assert monitor.dedicated_sender.state is not SenderState.IDLE
        assert monitor.update_entries(["c", "d"]) is False
        assert monitor.pending_entry_update
        assert monitor.dedicated_strategy.owns("a")  # not yet swapped
        sim.run(until=0.3)  # at least one verified Report boundary
        assert not monitor.pending_entry_update
        assert monitor.config.high_priority == ["c", "d"]
        assert monitor.dedicated_strategy.owns("c")

    def test_second_update_replaces_pending_set(self, sim):
        topo, monitor = build(sim)
        FlowGenerator(sim, topo.source, "a", rate_bps=1e6,
                      flows_per_second=10, seed=0,
                      flow_id_base=1_000_000, destination=topo.sink).start()
        monitor.start()
        sim.run(until=0.02)
        monitor.update_entries(["c"])
        monitor.update_entries(["d", "e"])
        sim.run(until=0.3)
        assert monitor.config.high_priority == ["d", "e"]


class TestFlagCarryAndClear:
    def test_flags_carry_across_swap_for_persisting_entries(self, sim):
        failure = EntryLossFailure({"a"}, 1.0, start_time=0.5, seed=1)
        topo, monitor = build(sim, loss_model=failure)
        for i, entry in enumerate(("a", "b")):
            FlowGenerator(sim, topo.source, entry, rate_bps=2e6,
                          flows_per_second=20, seed=i,
                          flow_id_base=(i + 1) * 1_000_000, destination=topo.sink).start()
        monitor.start()
        sim.run(until=2.0)
        assert monitor.entry_is_flagged("a")
        report = monitor.log.first_report(kind=FailureKind.DEDICATED_ENTRY,
                                          entry="a")
        assert report is not None
        monitor.update_entries(["a", "z"])  # "a" persists, "b" rotates out
        sim.run(until=2.3)
        assert monitor.entry_is_flagged("a")  # flag carried
        assert not monitor.entry_is_flagged("z")
        assert not monitor.dedicated_strategy.owns("b")

    def test_clear_dedicated_flags_returns_only_cleared(self, sim):
        failure = EntryLossFailure({"a"}, 1.0, start_time=0.5, seed=1)
        topo, monitor = build(sim, loss_model=failure)
        for i, entry in enumerate(("a", "b")):
            FlowGenerator(sim, topo.source, entry, rate_bps=2e6,
                          flows_per_second=20, seed=i,
                          flow_id_base=(i + 1) * 1_000_000, destination=topo.sink).start()
        monitor.start()
        sim.run(until=2.0)
        assert monitor.entry_is_flagged("a")
        cleared = monitor.clear_dedicated_flags(["a", "b", "ghost"])
        assert cleared == ["a"]
        assert not monitor.entry_is_flagged("a")
        assert monitor.clear_dedicated_flags(["a"]) == []
