"""Stateful property test for TreeCounters.

Hypothesis drives random interleavings of activate / increment / add /
reset / deactivate and checks the structural invariants the zooming algorithm
relies on after every step.  A second machine drives a store grown from
its root row and one preallocated to the Appendix A.3 ``node_count()``
budget with the same operations and requires them to agree everywhere.
"""

from __future__ import annotations

from array import array

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


class PreallocatedCounters(TreeCounters):
    """The reference layout: every ``node_count()`` row allocated up front,
    the free list handing out rows 1, 2, 3, ... before the arena doubles."""

    __slots__ = ()

    def __init__(self, params: HashTreeParams) -> None:
        super().__init__(params)
        rows = params.node_count()
        self._data = array("Q", [0]) * (rows * params.width)
        self._free = list(range(rows - 1, 0, -1))


class GrownMatchesPreallocatedMachine(RuleBasedStateMachine):
    """More live nodes than ``node_count()`` (7 here, of 20 possible)
    is an ordinary state, so both stores double at some point."""

    def __init__(self):
        super().__init__()
        self.grown = TreeCounters(PARAMS)
        self.reference = PreallocatedCounters(PARAMS)
        self.remote: dict = {}
        assert len(self.grown._data) == PARAMS.width  # the root row alone

    def both(self):
        return self.grown, self.reference

    @rule(path=paths)
    def activate(self, path):
        for c in self.both():
            c.activate_node(path)

    @rule(path=paths)
    def deactivate(self, path):
        for c in self.both():
            c.deactivate_node(path)

    @rule(tag=tags, n=st.integers(min_value=0, max_value=5))
    def add(self, tag, n):
        for c in self.both():
            c.add(tag, n)

    @rule(tag=tags)
    def increment(self, tag):
        for c in self.both():
            c.increment_path(tag)

    @rule()
    def clear(self):
        for c in self.both():
            c.clear()

    @rule()
    def reset(self):
        for c in self.both():
            c.reset()

    @rule()
    def keep_remote(self):
        self.remote = self.reference.snapshot()

    @invariant()
    def same_counters_and_rows(self):
        assert self.grown.snapshot() == self.reference.snapshot()
        assert self.grown.packets == self.reference.packets
        # Rows are handed out in the same order, not merely the same values.
        assert self.grown._offsets == self.reference._offsets

    @invariant()
    def same_mismatches(self):
        for path in self.reference.snapshot():
            assert (self.grown.mismatches(self.remote, path)
                    == self.reference.mismatches(self.remote, path))

    @invariant()
    def shared_zero_row_stays_zero(self):
        zero = self.grown._zero_row
        assert zero is TreeCounters(PARAMS)._zero_row
        assert len(zero) == PARAMS.width and not any(zero)


TestGrownMatchesPreallocated = GrownMatchesPreallocatedMachine.TestCase
TestGrownMatchesPreallocated.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
