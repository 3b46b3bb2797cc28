"""The per-window tree-tag memo of :class:`TreeSenderStrategy`.

``process_packet`` (discrete) and ``tag_for_entry`` (fluid) read one
``entry -> tag`` memo that every frontier or wave-stage mutation clears.
Hypothesis drives random counting windows — loss on a changing set of
entries, so ``end_session`` descends, retreats, advances or resets the
wave and reports leaves — and after every step each memoised tag must
equal a freshly derived one.  A pinned closed-loop TCP run (recorded on
the commit before the memo existed) checks the same thing end to end.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTree, HashTreeParams
from repro.core.zooming import TreeReceiverStrategy, TreeSenderStrategy
from repro.simulator.apps import FlowGenerator
from repro.simulator.engine import Simulator
from repro.simulator.failures import EntryLossFailure
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.topology import TwoSwitchTopology

ENTRIES = [f"10.0.{i}.0/24" for i in range(24)]
entry_sets = st.sets(st.sampled_from(ENTRIES), max_size=6)


class _Link:
    """One monitored link without the simulator: sender, wire, receiver."""

    def __init__(self, pipelined: bool) -> None:
        self.params = HashTreeParams(width=4, depth=3, split=2, pipelined=pipelined)
        self.sender = TreeSenderStrategy(HashTree(self.params, seed=11), seed=11)
        self.receiver = TreeReceiverStrategy(self.params)
        self.session = 0

    def fresh_tag(self, entry: str):
        return self.sender._tag_for(self.sender.tree.hash_path(entry))

    def window(self, lossy: set[str], per_entry: int = 3) -> list:
        """One counting session; packets of ``lossy`` entries die on the wire."""
        self.session += 1
        self.sender.begin_session(self.session)
        self.receiver.begin_session(self.session)
        for entry in ENTRIES:
            for _ in range(per_entry):
                packet = Packet(PacketKind.DATA, entry, 100)
                tagged = self.sender.process_packet(packet, self.session)
                # Discrete and fluid read the same memo, and it is current.
                assert self.sender.tag_for_entry(entry) == self.fresh_tag(entry)
                assert (packet.tag if tagged else None) == self.fresh_tag(entry)
                if tagged and entry not in lossy:
                    self.receiver.process_packet(packet, self.session)
        return self.sender.end_session(self.receiver.snapshot(), self.session)

    def check_memo(self) -> None:
        for entry, tag in self.sender._tags.items():
            assert tag == self.fresh_tag(entry), (entry, tag)
        for entry in ENTRIES:
            assert self.sender.tag_for_entry(entry) == self.fresh_tag(entry)
        assert set(self.sender._tags) == set(ENTRIES)  # misses memoised too


class _MemoMachine(RuleBasedStateMachine):
    pipelined = True

    def __init__(self) -> None:
        super().__init__()
        self.link = _Link(self.pipelined)

    @rule(lossy=entry_sets)
    def lossy_window(self, lossy):
        self.link.window(lossy)

    @rule()
    def clean_window(self):
        assert self.link.window(set()) == []

    @rule()
    def uniform_window(self):
        self.link.window(set(ENTRIES))

    @precondition(lambda self: self.link.sender.frontier)
    @rule()
    def keep_failing_what_is_explored(self):
        """Loss persists on whatever the frontier covers: forces descents,
        wave advances and leaf reports instead of retreats."""
        sender = self.link.sender
        lossy = {e for e in ENTRIES
                 if any(sender.tree.hash_path(e)[:len(p)] == p for p in sender.frontier)}
        self.link.window(lossy)

    @invariant()
    def memo_equals_fresh_derivation(self):
        self.link.check_memo()

    @invariant()
    def staged_misses_are_memoised_as_none(self):
        sender = self.link.sender
        if not self.pipelined and sender.stage > 0:
            off = [e for e in ENTRIES if self.link.fresh_tag(e) is None]
            assert off, "a staged wave always leaves entries off the frontier here"
            for entry in off:
                assert sender.tag_for_entry(entry) is None
                assert entry in sender._tags and sender._tags[entry] is None


class _StagedMemoMachine(_MemoMachine):
    pipelined = False


TestMemoPipelined = _MemoMachine.TestCase
TestMemoPipelined.settings = settings(max_examples=40, stateful_step_count=20, deadline=None)
TestMemoStaged = _StagedMemoMachine.TestCase
TestMemoStaged.settings = settings(max_examples=40, stateful_step_count=20, deadline=None)


@pytest.mark.parametrize("pipelined", [True, False])
def test_every_end_session_outcome_refreshes_the_memo(pipelined):
    """The walk the state machine samples, spelled out: descend twice,
    report the leaf, retreat / reset — the failing entry's tag changes at
    every step and the memo never serves the previous window's."""
    link = _Link(pipelined)
    victim = ENTRIES[0]
    hp = link.sender.tree.hash_path(victim)
    seen = []
    for _ in range(link.params.depth):
        link.check_memo()
        seen.append(link.sender.tag_for_entry(victim))
        reports = link.window({victim})
    assert seen == [hp[:1], hp[:2], hp[:3]]  # root, then one level per window
    assert [r.hash_path for r in reports] == [hp]
    link.check_memo()
    # Leaf reported: pipelined keeps exploring from the root (the victim
    # still mismatches there), the staged wave is back at stage 0.
    if not pipelined:
        assert link.sender.stage == 0 and not link.sender.frontier
    assert link.window(set()) == []  # loss gone: everything retreats
    link.check_memo()
    assert not link.sender.frontier
    assert link.sender.tag_for_entry(victim) == hp[:1]


def test_memo_never_outgrows_the_hash_path_cache():
    """Entry churn with a frontier that never moves must not grow the memo
    without bound: it restarts once it is as large as the tree's cache."""
    params = HashTreeParams(width=4, depth=3, split=2)
    sender = TreeSenderStrategy(HashTree(params, seed=12, cache_size=8), seed=12)
    sender.begin_session(1)
    for i in range(50):
        entry = f"churn/{i}"
        assert sender.tag_for_entry(entry) == sender.tree.hash_path(entry)[:1]
        assert len(sender._tags) <= 8


class _RecordingGenerator(FlowGenerator):
    """Keeps finished flows so their counters can be summed afterwards."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.finished = []

    def _on_flow_complete(self, flow):
        self.finished.append(flow)
        super()._on_flow_complete(flow)


def test_pinned_two_switch_tcp_run():
    """Closed-loop TCP across a tree-monitored link, 30 % loss on one entry
    from t = 1 s.  Every figure was recorded on the parent commit (no memo,
    per-packet ``hash_path`` -> ``_tag_for`` -> ``_count``): a stale tag would
    move the zoom, the detections and, through them, nothing else — so the
    flow figures pin the TCP send path and the detections pin the memo."""
    sim = Simulator()
    failure = EntryLossFailure(["victim"], 0.3, start_time=1.0, seed=5)
    topo = TwoSwitchTopology(sim, loss_model=failure)
    monitor = FancyLinkMonitor(
        sim, topo.upstream, 1, topo.downstream, 1,
        FancyConfig(tree_params=HashTreeParams(width=16, depth=3, split=2), seed=3))
    generators = [
        _RecordingGenerator(sim, topo.source, entry, rate_bps=600_000,
                            flows_per_second=10, seed=i, flow_id_base=(i + 1) * 100_000,
                            destination=topo.sink)
        for i, entry in enumerate(["victim", "bg/0", "bg/1", "bg/2"])]
    for gen in generators:
        gen.start()
    monitor.start()
    sim.run(until=5.0)

    flows = [f for gen in generators for f in gen.finished]
    flows += list(topo.source.flows.values())
    assert (
        sum(gen.flows_started for gen in generators),
        sum(f.packets_sent for f in flows),
        sum(f.retransmissions for f in flows),
        sim.events_processed,
        failure.drops,
        monitor.tree_strategy.sessions_completed,
    ) == PINNED_COUNTS
    assert [(r.kind.value, round(r.time, 6), r.hash_path, r.lost_packets)
            for r in monitor.log.reports] == PINNED_REPORTS


#: flows started, segments sent, retransmissions, engine events, wire
#: drops, tree sessions completed — as recorded on the parent commit.
PINNED_COUNTS = (200, 1076, 161, 8239, 82, 20)
PINNED_REPORTS = [("tree_leaf", 1.687, (10, 0, 4), 6)]
