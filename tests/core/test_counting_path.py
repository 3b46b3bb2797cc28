"""One counting path: a packet is a window of one.

Every counter store — dedicated counters and the hash tree, pipelined
and staged, on either side of the link — counts a packet through
``process_packet`` and a fluid window through ``absorb(tag, n)``, and
both end in the same add.  So a window fed packet by packet and the
same window fed in bulk must leave equal snapshots.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.counters import DedicatedReceiverCounters, DedicatedSenderCounters
from repro.core.hashtree import HashTree, HashTreeParams, TreeCounters
from repro.core.zooming import TreeReceiverStrategy, TreeSenderStrategy
from repro.simulator.packet import Packet, PacketKind

ENTRIES = [f"10.0.{i}.0/24" for i in range(24)]
#: Packets per entry in the window (1-4, so entries share counters).
COUNTS = {entry: 1 + i % 4 for i, entry in enumerate(ENTRIES)}
SESSION = 1


def _dedicated():
    owned = ENTRIES[::2]
    return DedicatedSenderCounters(owned), DedicatedReceiverCounters(len(owned))


def _tree(pipelined):
    """A sender one zoom step in: its first session lost a packet of
    ``ENTRIES[0]``, so the window's tags reach below the root (and, staged,
    skip the entries off the frontier)."""
    params = HashTreeParams(width=6, depth=3, split=2, pipelined=pipelined)
    sender = TreeSenderStrategy(HashTree(params, seed=5), seed=5)
    sender.begin_session(0)
    for entry, n in COUNTS.items():
        sender.absorb(sender.tag_for_entry(entry), n)
    remote = sender.counters.snapshot()
    remote[()][sender.tree.hash_path(ENTRIES[0])[0]] -= 1
    sender.end_session(remote, 0)
    assert sender.frontier
    sender.begin_session(SESSION)
    return sender, TreeReceiverStrategy(params)


TIERS = {
    "dedicated": _dedicated,
    "tree-pipelined": lambda: _tree(True),
    "tree-staged": lambda: _tree(False),
}


def _state(strategy):
    counters = strategy.counters
    if isinstance(counters, TreeCounters):
        return counters.snapshot(), counters.packets
    return list(counters), sum(counters)


@pytest.mark.parametrize("side", ["sender", "receiver"])
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_a_packet_is_a_window_of_one(tier, side):
    one_by_one = TIERS[tier]()
    in_bulk = TIERS[tier]()
    which = 0 if side == "sender" else 1
    bulk = in_bulk[which]
    before = _state(bulk)

    window: Counter = Counter()
    sender, receiver = one_by_one
    for entry, n in COUNTS.items():
        for _ in range(n):
            packet = Packet(PacketKind.DATA, entry, 100)
            if sender.process_packet(packet, SESSION):
                assert receiver.process_packet(packet, SESSION)
                window[packet.tag] += 1
    if side == "sender":
        for entry, n in COUNTS.items():
            tag = bulk.tag_for_entry(entry)
            if tag is not None:
                bulk.absorb(tag, n)
    else:
        for tag, n in window.items():
            bulk.absorb(tag, n)

    after = _state(bulk)
    assert after == _state(one_by_one[which])
    assert after[1] == sum(window.values()) > 0
    if tier != "dedicated":
        assert any(len(tag) > 1 for tag in window)
        if side == "sender":
            # Upstream a tag only names a node the zooming algorithm
            # activated: the add never materializes one.
            assert after[0].keys() == before[0].keys()
        else:
            # Downstream the nodes come from the tags alone.
            assert len(after[0]) > len(before[0])
