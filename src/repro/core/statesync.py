"""Generalized inter-switch state synchronization (§4.2).

"Our FSMs can be easily extended to synchronize and exchange arbitrary
state across switches.  Indeed, exchanging information other than packet
counters only requires to tweak the semantics that switches associate to
packet tags, and adjust the content of the Report messages."

This module provides that extension for per-entry *aggregates*: instead of
counting packets, both sides accumulate an arbitrary per-packet value
under the tagged counter — bytes (detect loss weighted by volume),
payload checksums (detect corruption-and-rewrite bugs where packets
arrive but mangled), or any user-supplied reducer.  The counting-protocol
FSMs are reused unchanged; only the value semantics differ.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from ..simulator.packet import Packet
from .bloom import stable_hash
from .counters import coerce_remote_snapshot

__all__ = [
    "ValueReducer",
    "packet_count",
    "byte_count",
    "payload_signature",
    "ValueSyncSender",
    "ValueSyncReceiver",
]

#: A reducer maps a packet to the integer added to its entry's register.
ValueReducer = Callable[[Packet], int]


def packet_count(_packet: Packet) -> int:
    """The default FANcY semantics: one per packet."""
    return 1


def byte_count(packet: Packet) -> int:
    """Aggregate bytes: mismatches weigh losses by traffic volume."""
    return packet.size


def payload_signature(bits: int = 32) -> ValueReducer:
    """Order-independent packet signature accumulator.

    Both sides add a hash of invariant header fields; a switch that
    *corrupts* packets in flight (Table 1's CRC/memory-corruption bugs)
    produces a signature mismatch even when packet *counts* agree.
    """
    mask = (1 << bits) - 1

    def reduce(packet: Packet) -> int:
        return stable_hash((packet.flow_id, packet.seq, packet.size), 17) & mask

    return reduce


#: Detection callback: (entry, local_minus_remote, session_id).
MismatchCallback = Callable[[Any, int, int], None]


class ValueSyncSender:
    """Upstream per-entry aggregate registers (SenderStrategy protocol)."""

    def __init__(
        self,
        entries: Sequence[Any],
        reducer: ValueReducer = packet_count,
        on_mismatch: MismatchCallback | None = None,
        signed: bool = False,
        entry_of: Callable[[Packet], Any] | None = None,
    ) -> None:
        self.entries = list(entries)
        self.index = {e: i for i, e in enumerate(self.entries)}
        if len(self.index) != len(self.entries):
            raise ValueError("duplicate entries")
        self.reducer = reducer
        self.on_mismatch = on_mismatch
        #: signed=True reports any difference (e.g. signature sync, where
        #: remote != local in either direction means corruption); unsigned
        #: reports only local > remote (loss semantics).
        self.signed = signed
        self.entry_of = entry_of if entry_of is not None else (lambda p: p.entry)
        self.values = [0] * len(self.entries)
        self.flags = [False] * len(self.entries)

    def begin_session(self, session_id: int) -> None:
        for i in range(len(self.values)):
            self.values[i] = 0

    def process_packet(self, packet: Packet, session_id: int,
                       entry: Any = None) -> bool:
        if entry is None:
            entry = self.entry_of(packet)
        idx = self.index.get(entry)
        if idx is None:
            return False
        packet.tag = (idx,)
        packet.tag_session = session_id
        packet.tag_dedicated = True
        self.values[idx] += self.reducer(packet)
        return True

    def end_session(self, remote: Sequence[int], session_id: int) -> list[Any]:
        remote = coerce_remote_snapshot(remote)
        detected: list[Any] = []
        for i, local in enumerate(self.values):
            got = remote[i] if remote and i < len(remote) else 0
            delta = local - got
            mismatch = (delta != 0) if self.signed else (delta > 0)
            if mismatch:
                self.flags[i] = True
                detected.append(self.entries[i])
                if self.on_mismatch is not None:
                    self.on_mismatch(self.entries[i], delta, session_id)
        return detected

    @property
    def flagged_entries(self) -> list[Any]:
        return [e for e, f in zip(self.entries, self.flags) if f]


class ValueSyncReceiver:
    """Downstream aggregate registers (ReceiverStrategy protocol).

    Driven by tags like the plain dedicated receiver, but accumulates the
    reducer's value — which both sides must configure identically, just as
    they share hash seeds.
    """

    def __init__(self, n_entries: int, reducer: ValueReducer = packet_count) -> None:
        self.reducer = reducer
        self.values = [0] * n_entries

    def begin_session(self, session_id: int) -> None:
        for i in range(len(self.values)):
            self.values[i] = 0

    def process_packet(self, packet: Packet, session_id: int) -> bool:
        if not packet.tag_dedicated or packet.tag is None:
            return False
        if packet.tag_session != session_id:
            return False
        idx = packet.tag[0]
        if 0 <= idx < len(self.values):
            self.values[idx] += self.reducer(packet)
            return True
        return False

    def snapshot(self) -> list[int]:
        return list(self.values)
