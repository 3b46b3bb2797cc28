"""Packet model for the simulator.

Packets carry just enough header state for the reproduction: an *entry*
key standing in for the destination prefix (the unit FANcY monitors), TCP
bookkeeping fields, and the FANcY tag.

Following §5.3 of the paper, a FANcY tag occupies 2 bytes on the wire: for
dedicated counters it is the counter ID; for the hash-based tree one byte
encodes the node's hash path and the other the counter index within the
node.  We model the tag as a tuple of counter indices (the packet's partial
hash path) plus the session colour, which is what the logic consumes.

Fast path: :class:`Packet` is a ``__slots__`` class and — when the pool is
enabled via :mod:`repro.simulator.fastpath` — construction goes through a
free list (:meth:`Packet.acquire`) with an explicit :meth:`Packet.release`
at the sink.  A recycled packet is indistinguishable from a fresh one: it
receives the next global ``pid`` from the same counter and every field is
re-initialized, so pooled and unpooled runs are bit-identical.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any

__all__ = [
    "PacketKind",
    "Packet",
    "PacketPool",
    "POOL",
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


class PacketPool:
    """Free list of recycled :class:`Packet` objects.

    Disabled by default; toggle through :func:`repro.simulator.fastpath.
    configure` (which keeps ``CONFIG.packet_pool`` and ``POOL.enabled``
    in sync).  The pool is bounded: beyond ``max_size`` released packets
    are simply left to the garbage collector.
    """

    __slots__ = ("enabled", "max_size", "free", "reused", "released")

    def __init__(self, max_size: int = 8192) -> None:
        self.enabled = False
        self.max_size = max_size
        self.free: list["Packet"] = []
        #: Lifetime stats (observability for the pool micro-benchmarks).
        self.reused = 0
        self.released = 0

    def drain(self) -> None:
        """Drop every pooled packet (used when disabling the pool)."""
        self.free.clear()

    def stats(self) -> dict[str, int | bool]:
        return {
            "enabled": self.enabled,
            "free": len(self.free),
            "reused": self.reused,
            "released": self.released,
        }


#: The process-wide packet pool.
POOL = PacketPool()


class Packet:
    """A simulated packet.

    Attributes:
        pid: globally unique packet id (monotonically increasing);
            ``-1`` marks a packet currently parked in the pool.
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
        """Pool-aware constructor: recycle a released packet when possible.

        Allocates a bare object when the pool is disabled or empty and
        initialises every field here either way (one frame per packet,
        not ``acquire`` + ``__init__``).  The packet gets a fresh ``pid``
        from the global counter, so pooled runs consume the id sequence
        identically.
        """
        pool = POOL
        if pool.enabled and pool.free:
            packet = pool.free.pop()
            pool.reused += 1
        else:
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
        """Return this packet to the free list (no-op when pool disabled).

        Safe against double release: a parked packet (``pid == -1``) is
        never parked twice.  Callers must not touch the packet afterwards.
        """
        pool = POOL
        if not pool.enabled or self.pid == -1:
            return
        if len(pool.free) < pool.max_size:
            self.pid = -1
            self.entry = None
            self.payload = None
            self.tag = None
            pool.free.append(self)
            pool.released += 1

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
    """Convenience constructor for forward data packets (pool-aware)."""
    return Packet.acquire(PacketKind.DATA, entry, size, flow_id=flow_id, seq=seq,
                          created_at=now)
