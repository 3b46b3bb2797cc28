"""Input translation and memory budgeting (§4.3).

FANcY switches first allocate one dedicated counter per high-priority
entry (80 bits each, both session sides and protocol state included), then
dimension the hash-based tree within the remaining budget: each tree node
costs, per session side, 32 bits × width for the counters plus 88 bits of
protocol/zooming state.  The system returns an error when the requested
high-priority set cannot be supported (the paper's Figure 1 contract).
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import (
    DEDICATED_COUNTER_BITS,
    tree_total_memory_bits,
    widest_tree_for_budget,
)
from .entries import MonitoringInput
from .hashtree import HashTreeParams

__all__ = ["MemoryBudgetError", "MemoryPlan", "plan_memory"]

#: Default tree shape from the paper's sensitivity analysis (§4.3,
#: Appendix D): split 2 and depth 3 are a good trade-off; width is fitted
#: to the remaining memory.
DEFAULT_DEPTH = 3
DEFAULT_SPLIT = 2


class MemoryBudgetError(ValueError):
    """The monitoring input does not fit in the memory budget."""


@dataclass(frozen=True)
class MemoryPlan:
    """Result of input translation for one port.

    Attributes:
        n_dedicated: dedicated counters allocated.
        tree: hash-based tree geometry (``None`` when the operator asked
            for dedicated counters only).
        dedicated_bits: memory consumed by dedicated counters.
        tree_bits: memory consumed by the tree.
        budget_bits: the input budget.
    """

    n_dedicated: int
    tree: HashTreeParams | None
    dedicated_bits: int
    tree_bits: int
    budget_bits: int

    @property
    def total_bits(self) -> int:
        return self.dedicated_bits + self.tree_bits

    @property
    def slack_bits(self) -> int:
        return self.budget_bits - self.total_bits


def plan_memory(
    spec: MonitoringInput,
    depth: int = DEFAULT_DEPTH,
    split: int = DEFAULT_SPLIT,
    pipelined: bool = True,
    width: int | None = None,
    min_width: int = 4,
) -> MemoryPlan:
    """Translate a :class:`MonitoringInput` into concrete structures.

    Args:
        spec: the operator input (entries + memory budget).
        depth, split, pipelined: tree shape; defaults follow §4.3.
        width: force a specific tree width instead of maximizing it (the
            evaluation pins width to 190 to match the paper's setup).
        min_width: smallest acceptable fitted width before erroring.

    Raises:
        MemoryBudgetError: when dedicated counters alone exceed the budget,
            when a forced width does not fit, or when best-effort entries
            were requested but no usable tree fits.
    """
    budget_bits = spec.memory_bytes * 8
    dedicated_bits = spec.n_high_priority * DEDICATED_COUNTER_BITS
    if dedicated_bits > budget_bits:
        raise MemoryBudgetError(
            f"{spec.n_high_priority} high-priority entries need "
            f"{dedicated_bits} bits, budget is {budget_bits} bits"
        )
    remaining = budget_bits - dedicated_bits
    wants_tree = spec.n_best_effort > 0 or width is not None

    if not wants_tree:
        return MemoryPlan(
            n_dedicated=spec.n_high_priority,
            tree=None,
            dedicated_bits=dedicated_bits,
            tree_bits=0,
            budget_bits=budget_bits,
        )

    if width is not None:
        params = HashTreeParams(width=width, depth=depth, split=split, pipelined=pipelined)
        tree_bits = tree_total_memory_bits(params)
        if tree_bits > remaining:
            raise MemoryBudgetError(
                f"tree {params} needs {tree_bits} bits, only {remaining} remain"
            )
        return MemoryPlan(spec.n_high_priority, params, dedicated_bits, tree_bits, budget_bits)

    fitted = widest_tree_for_budget(remaining, depth, split, pipelined)
    if fitted < min_width:
        raise MemoryBudgetError(
            f"best-effort entries requested but only width {fitted} fits "
            f"in the remaining {remaining} bits (minimum {min_width})"
        )
    params = HashTreeParams(width=fitted, depth=depth, split=split, pipelined=pipelined)
    return MemoryPlan(
        spec.n_high_priority, params, dedicated_bits, tree_total_memory_bits(params), budget_bits
    )

