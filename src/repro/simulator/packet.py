"""Packet model for the simulator.

Packets carry just enough header state for the reproduction: an *entry*
key standing in for the destination prefix (the unit FANcY monitors), TCP
bookkeeping fields, and the FANcY tag.

Following §5.3 of the paper, a FANcY tag occupies 2 bytes on the wire: for
dedicated counters it is the counter ID; for the hash-based tree one byte
encodes the node's hash path and the other the counter index within the
node.  We model the tag as a tuple of counter indices (the packet's partial
hash path) plus the session colour, which is what the logic consumes.

:class:`Packet` is a ``__slots__`` class; the hot senders build packets
through :meth:`Packet.acquire`, which initialises every field in one frame.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any

__all__ = [
    "PacketKind",
    "Packet",
    "make_data_packet",
    "FANCY_TAG_BYTES",
    "MIN_FRAME_BYTES",
]

#: Wire overhead of a FANcY tag on a tagged packet (§5.3).
FANCY_TAG_BYTES = 2

#: Minimum Ethernet frame size, used for control messages (§5.3).
MIN_FRAME_BYTES = 64

_packet_ids = itertools.count()


class PacketKind(enum.Enum):
    """Packet categories understood by switches and endpoints."""

    #: Precomputed per-member flag (annotation only — not an enum member);
    #: set in the loop below the class body.
    is_control: bool

    DATA = "data"
    ACK = "ack"
    # FANcY counting-protocol control messages (§4.1).
    FANCY_START = "fancy_start"
    FANCY_START_ACK = "fancy_start_ack"
    FANCY_STOP = "fancy_stop"
    FANCY_REPORT = "fancy_report"


# ``is_control`` is consulted once per packet in loss models and routing
# hooks; precomputing it as a plain member attribute makes the lookup a
# single LOAD_ATTR instead of a property call.
for _kind in PacketKind:
    _kind.is_control = _kind not in (PacketKind.DATA, PacketKind.ACK)
del _kind


class Packet:
    """A simulated packet.

    Attributes:
        pid: globally unique packet id (monotonically increasing).
        kind: one of :class:`PacketKind`.
        entry: monitoring-entry key (destination prefix id); drives both
            forwarding and FANcY counting.
        flow_id: id of the transport flow the packet belongs to.
        size: total frame size in bytes (including any FANcY tag).
        seq: transport sequence number (bytes for TCP, packets for UDP).
        ack: cumulative ACK number for ACK packets.
        created_at: simulated time the packet was created by its source.
        tag: FANcY tag — ``None`` when untagged, otherwise a tuple of
            counter indices describing the packet's (partial) hash path;
            dedicated-counter packets carry a 1-tuple.
        tag_session: colour of the counting session the tag belongs to.
        payload: control-message payload (e.g. Report counters).
    """

    __slots__ = (
        "pid",
        "kind",
        "entry",
        "flow_id",
        "size",
        "seq",
        "ack",
        "created_at",
        "tag",
        "tag_session",
        "tag_dedicated",
        "payload",
        "reverse",
    )

    def __init__(
        self,
        kind: PacketKind,
        entry: Any,
        size: int,
        flow_id: int = -1,
        seq: int = 0,
        ack: int = -1,
        created_at: float = 0.0,
        payload: dict[str, Any] | None = None,
        reverse: bool = False,
    ) -> None:
        self.pid = next(_packet_ids)
        self.kind = kind
        self.entry = entry
        self.flow_id = flow_id
        self.size = size
        self.seq = seq
        self.ack = ack
        self.created_at = created_at
        self.tag: tuple[int, ...] | None = None
        self.tag_session: int = -1
        self.tag_dedicated: bool = False
        self.payload = payload
        #: True for packets flowing from the traffic sink back to sources
        #: (TCP ACKs); these traverse the monitored link in the reverse
        #: direction and are not counted by the forward FANcY session.
        self.reverse = reverse

    @classmethod
    def acquire(
        cls,
        kind: PacketKind,
        entry: Any,
        size: int,
        flow_id: int = -1,
        seq: int = 0,
        ack: int = -1,
        created_at: float = 0.0,
        payload: dict[str, Any] | None = None,
        reverse: bool = False,
    ) -> "Packet":
        """Constructor without the ``__init__`` frame: allocates a bare
        object and initialises every field here (one frame per packet, not
        ``acquire`` + ``__init__``)."""
        packet = cls.__new__(cls)
        packet.pid = next(_packet_ids)
        packet.kind = kind
        packet.entry = entry
        packet.flow_id = flow_id
        packet.size = size
        packet.seq = seq
        packet.ack = ack
        packet.created_at = created_at
        packet.tag = None
        packet.tag_session = -1
        packet.tag_dedicated = False
        packet.payload = payload
        packet.reverse = reverse
        return packet

    def release(self) -> None:
        """No-op, kept for callers written when packets were pooled."""

    @property
    def is_tagged(self) -> bool:
        return self.tag is not None

    def clear_tag(self) -> None:
        self.tag = None
        self.tag_session = -1
        self.tag_dedicated = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" tag={self.tag}@s{self.tag_session}" if self.tag is not None else ""
        return (
            f"Packet(#{self.pid} {self.kind.value} entry={self.entry!r} "
            f"flow={self.flow_id} seq={self.seq} size={self.size}{tag})"
        )


def make_data_packet(
    entry: Any,
    size: int,
    flow_id: int,
    seq: int,
    now: float,
) -> Packet:
    """Convenience constructor for forward data packets."""
    return Packet.acquire(PacketKind.DATA, entry, size, flow_id=flow_id, seq=seq,
                          created_at=now)
