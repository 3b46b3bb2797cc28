"""Experiment table1 — the gray-failure classification (Table 1).

Renders the bug catalog and, as the executable counterpart, instantiates
one failure per Table 1 cell against a live FANcY deployment to confirm
the detector covers the full classification.
"""

from __future__ import annotations

from ..catalog import (
    TABLE1_BUGS,
    EntryScope,
    PacketScope,
    bugs_in_class,
    failure_for,
    render_table1,
)
from ..core.detector import FancyConfig, FancyLinkMonitor
from ..core.hashtree import HashTreeParams
from ..core.output import FailureKind
from .report import render_table
from .runner import link_trial

__all__ = ["run", "render", "main"]


def _detect_one(bug, seed: int = 0) -> bool:
    """Instantiate ``bug`` live and check FANcY detects it."""
    entries = [f"e{i}" for i in range(8)]
    victims = entries[:2] if bug.entry_scope is EntryScope.SOME_PREFIXES else entries
    loss = 1.0 if bug.packet_scope is PacketScope.ALL_PACKETS else 0.5
    failure = failure_for(bug, entries=victims, loss_rate=loss,
                          start_time=1.0, seed=seed)
    # Mixed packet sizes so size-selective bugs (e.g. CSCtc33158) have
    # affected traffic to drop.
    sizes = (96, 160, 256, 600, 1500)
    sim, topo = link_trial(failure, [
        (entry, 1.5e6, 15, sizes[i % len(sizes)], seed + i)
        for i, entry in enumerate(entries)
    ])
    monitor = FancyLinkMonitor(
        sim, topo.upstream, 1, topo.downstream, 1,
        FancyConfig(high_priority=entries[:2],
                    tree_params=HashTreeParams(width=16, depth=3, split=2),
                    seed=seed),
    )
    monitor.start()
    sim.run(until=6.0)
    if bug.entry_scope is EntryScope.SOME_PREFIXES:
        return any(monitor.entry_is_flagged(v) for v in victims)
    # All-prefix bugs: either uniform report or broad flagging.  Bugs that
    # select packets by size/field hit only a subset of packets, which
    # FANcY localizes per entry instead.
    if monitor.log.by_kind(FailureKind.UNIFORM):
        return True
    return any(monitor.entry_is_flagged(e) for e in entries)


def run(live: bool = True, seed: int = 0) -> dict:
    coverage = {}
    if live:
        for entry_scope in EntryScope:
            for packet_scope in PacketScope:
                bug = bugs_in_class(entry_scope, packet_scope)[0]
                coverage[(entry_scope.value, packet_scope.value)] = {
                    "bug": bug.bug_id,
                    "detected": _detect_one(bug, seed=seed),
                }
    return {"n_bugs": len(TABLE1_BUGS), "coverage": coverage}


def render(result: dict) -> str:
    text = render_table1()
    if result["coverage"]:
        rows = [
            [entries, packets, data["bug"], "detected" if data["detected"] else "MISSED"]
            for (entries, packets), data in result["coverage"].items()
        ]
        text += "\n\n" + render_table(
            "Live coverage check — one bug per class against FANcY",
            ["affected entries", "dropped traffic", "bug", "outcome"],
            rows,
        )
    return text


def main(quick: bool = True) -> str:
    text = render(run(live=True))
    print(text)
    return text
