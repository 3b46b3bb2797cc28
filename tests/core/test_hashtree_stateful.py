"""Stateful property test for TreeCounters.

Hypothesis drives random interleavings of activate / increment / add /
reset / deactivate and checks the structural invariants the zooming algorithm
relies on after every step.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.hashtree import HashTreeParams, TreeCounters

PARAMS = HashTreeParams(width=4, depth=3, split=2, pipelined=True)

indices = st.integers(min_value=0, max_value=PARAMS.width - 1)
paths = st.lists(indices, min_size=1, max_size=PARAMS.depth - 1).map(tuple)
tags = st.lists(indices, min_size=1, max_size=PARAMS.depth).map(tuple)


class TreeCountersMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.counters = TreeCounters(PARAMS)
        self.model_increments = 0

    @rule(path=paths)
    def activate(self, path):
        self.counters.activate_node(path)

    @rule(tag=tags)
    def increment(self, tag):
        self.counters.increment_path(tag)
        self.model_increments += 1

    @rule(tag=tags, n=st.integers(min_value=0, max_value=5))
    def add(self, tag, n):
        self.counters.add(tag, n)
        self.model_increments += n

    @rule(path=paths)
    def deactivate_one(self, path):
        self.counters.deactivate_node(path)

    @rule()
    def reset(self):
        self.counters.reset()
        self.model_increments = 0

    # -- invariants ---------------------------------------------------------

    @invariant()
    def root_always_present(self):
        assert () in self.counters.snapshot()

    @invariant()
    def all_counters_nonnegative(self):
        for node in self.counters.snapshot().values():
            assert all(c >= 0 for c in node)
            assert len(node) == PARAMS.width

    @invariant()
    def paths_are_well_formed(self):
        for path in self.counters.snapshot():
            assert len(path) < PARAMS.depth
            assert all(0 <= c < PARAMS.width for c in path)

    @invariant()
    def root_total_bounded_by_increments(self):
        # Root counts one unit per packet whose tag the root observed —
        # never more than the packets counted since the last reset.
        assert sum(self.counters.snapshot()[()]) <= self.model_increments

    @invariant()
    def packet_count_matches_model(self):
        assert self.counters.packets == self.model_increments


TestTreeCountersStateful = TreeCountersMachine.TestCase
TestTreeCountersStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
