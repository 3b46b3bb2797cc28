"""Dedicated per-entry counters (§3, §4.3).

Each high-priority entry gets one exact counter at each end of the link.
During a counting session, the upstream tags matching packets with the
counter index and increments its local counter; the downstream increments
the counter named by the tag.  At session end the upstream compares and
flags any entry whose sent count exceeds the received count.

Dedicated counters have zero false positives by construction (§5: "the
FPR is always zero for any dedicated counter") and detect a failure at the
first counter exchange after it manifests.

Fast path: the per-session comparison first does one bulk equality check
(the overwhelmingly common "nothing lost" case is a single C-level list
compare), and only a session that mismatches scans for the indices.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from ..simulator.packet import Packet

__all__ = [
    "DedicatedSenderCounters",
    "DedicatedReceiverCounters",
    "coerce_remote_snapshot",
]


def coerce_remote_snapshot(remote: Any) -> Sequence[int]:
    """Defense-in-depth normalisation of a Report's counter snapshot.

    Checksummed control payloads (see :func:`repro.core.protocol.
    payload_checksum`) are rejected before they reach a strategy, but
    snapshots can still arrive malformed from direct ``on_control`` calls
    (tests, harnesses) or from payloads crafted without checksums.  A
    comparison must *never* crash the FSM on garbage — a switch that
    wedges on a corrupted Report is strictly worse than one that
    mis-counts a session.  Non-sequences become the empty snapshot
    (missing cells read as 0, i.e. "nothing received" — the conservative
    loss-semantics default); non-int cells are zeroed individually.
    """
    if isinstance(remote, str | bytes) or not isinstance(remote, Sequence):
        return ()
    for v in remote:
        if type(v) is not int:
            return [v if type(v) is int else 0 for v in remote]
    return remote

#: Detection callback: (entry, lost_packets, session_id) -> None.
DetectionCallback = Callable[[Any, int, int], None]


class DedicatedSenderCounters:
    """Upstream-side dedicated counters: tagging, counting, comparison.

    Implements the sender :class:`~repro.core.protocol.SenderStrategy`
    interface consumed by the counting-protocol FSM.
    """

    def __init__(
        self,
        entries: Sequence[Any],
        on_detection: DetectionCallback | None = None,
        entry_of: Callable[[Packet], Any] | None = None,
    ) -> None:
        self.index: dict[Any, int] = {e: i for i, e in enumerate(entries)}
        if len(self.index) != len(entries):
            raise ValueError("duplicate high-priority entries")
        self.entries = list(entries)
        self.counters = [0] * len(entries)
        self._zeros = [0] * len(entries)
        self.on_detection = on_detection
        #: Entry classifier (§1: entries are match rules on packets; the
        #: default is the destination prefix carried in ``packet.entry``).
        self.entry_of = entry_of if entry_of is not None else (lambda p: p.entry)
        #: §4.3 output structure: 1-bit flag per dedicated counter.
        self.flags = [False] * len(entries)
        self.sessions_completed = 0

    # -- SenderStrategy interface -------------------------------------------

    def begin_session(self, session_id: int) -> None:
        # Slice-assign keeps the list object (callers may hold a ref).
        self.counters[:] = self._zeros

    def process_packet(self, packet: Packet, session_id: int,
                       entry: Any = None) -> bool:
        """Tag and count ``packet`` if it matches a dedicated entry.

        Returns True when the packet was claimed by a dedicated counter.
        """
        if entry is None:
            entry = self.entry_of(packet)
        idx = self.index.get(entry)
        if idx is None:
            return False
        packet.tag = (idx,)
        packet.tag_session = session_id
        packet.tag_dedicated = True
        self.counters[idx] += 1
        return True

    def owns(self, entry: Any) -> bool:
        return entry in self.index

    def tag_for_entry(self, entry: Any) -> tuple[int] | None:
        """The tag :meth:`process_packet` stamps on ``entry``'s packets,
        ``None`` for an entry without a dedicated counter."""
        idx = self.index.get(entry)
        return None if idx is None else (idx,)

    def absorb(self, tag: tuple[int], n: int) -> None:
        """Count ``n`` packets of one tag (a fluid window).

        :meth:`process_packet` makes the same one-cell add with ``n = 1``,
        written inline: a call would cost a Python frame per packet.
        """
        self.counters[tag[0]] += n

    def end_session(self, remote_counters: Sequence[int], session_id: int) -> list[Any]:
        """Compare against the downstream's Report; flag mismatching entries.

        Returns the list of entries flagged in this session.

        The loss-free case — by far the most common session outcome — is
        one bulk equality check; only unequal sessions pay the per-index
        scan.
        """
        remote_counters = coerce_remote_snapshot(remote_counters)
        local = self.counters
        n = len(local)
        if isinstance(remote_counters, list) and len(remote_counters) == n \
                and remote_counters == local:
            self.sessions_completed += 1
            return []
        mismatching = self._mismatch_indices(remote_counters)
        detected: list[Any] = []
        n_remote = len(remote_counters)
        for i in mismatching:
            entry = self.entries[i]
            self.flags[i] = True
            detected.append(entry)
            if self.on_detection is not None:
                remote = remote_counters[i] if i < n_remote else 0
                self.on_detection(entry, local[i] - remote, session_id)
        self.sessions_completed += 1
        return detected

    def _mismatch_indices(self, remote_counters: Sequence[int]) -> list[int]:
        """Indices where local (sent) exceeds remote (received); cells the
        remote snapshot lacks read as 0."""
        n_remote = len(remote_counters)
        return [
            i for i, value in enumerate(self.counters)
            if value > (remote_counters[i] if i < n_remote else 0)
        ]

    def clear_flags(self) -> None:
        for i in range(len(self.flags)):
            self.flags[i] = False

    @property
    def flagged_entries(self) -> list[Any]:
        return [e for e, f in zip(self.entries, self.flags) if f]

    @property
    def memory_bits(self) -> int:
        """§4.3: 80 bits per entry, both sides and protocol state included."""
        return 80 * len(self.entries)


class DedicatedReceiverCounters:
    """Downstream-side dedicated counters: driven purely by packet tags."""

    def __init__(self, n_entries: int) -> None:
        self.counters = [0] * n_entries
        self._zeros = [0] * n_entries

    # -- ReceiverStrategy interface ------------------------------------------

    def begin_session(self, session_id: int) -> None:
        self.counters[:] = self._zeros

    def process_packet(self, packet: Packet, session_id: int) -> bool:
        """Count a tagged packet; returns True if it belonged to us."""
        if not packet.tag_dedicated or packet.tag is None:
            return False
        if packet.tag_session != session_id:
            return False  # stale tag from a previous session: ignore
        idx = packet.tag[0]
        if 0 <= idx < len(self.counters):
            self.counters[idx] += 1
            return True
        return False

    def absorb(self, tag: tuple[int], n: int) -> None:
        """Count ``n`` packets of one tag (a fluid window's survivors);
        :meth:`process_packet` makes the same add inline, after its
        checks."""
        self.counters[tag[0]] += n

    def snapshot(self) -> list[int]:
        return list(self.counters)
