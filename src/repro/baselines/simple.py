"""Simple counter designs (§2.4) and the §5.2 baseline comparison.

Three designs that fit the "in-switch, no sampling, no per-packet state"
constraints but trade away accuracy or memory:

* :class:`SingleLinkCounter*` — one counter per link.  Detects that *some*
  loss happened but cannot localize it: every monitored entry becomes a
  false positive on detection.
* per-entry dedicated counters for **all** entries — exact and
  zero-false-positive, but needs ≈512 MB for an Internet routing table
  (§2.4); within FANcY's 1.25 MB budget only ≈1,024 entries per port fit.
  Reuses :class:`~repro.core.counters.DedicatedSenderCounters`.
* :class:`CountingBloomSender/Receiver` — all memory in one counting Bloom
  filter.  Matching TPR, but every detection implicates all entries
  sharing the mismatching cells (≈100 false positives per detection in
  the paper's CAIDA experiments).

All three plug into the same counting-protocol FSMs as FANcY proper, so
the comparison isolates the data-structure choice.
:class:`StrategyLinkMonitor` wires any sender/receiver strategy pair onto
a link the same way :class:`~repro.core.detector.FancyLinkMonitor` does.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from ..core.bloom import CountingBloomFilter
from ..core.output import FailureKind, FailureLog, FailureReport
from ..core.protocol import FancyReceiver, FancySender
from ..simulator.engine import Simulator
from ..simulator.packet import MIN_FRAME_BYTES, Packet, PacketKind
from ..simulator.switch import Switch

__all__ = [
    "SingleLinkCounterSender",
    "SingleLinkCounterReceiver",
    "CountingBloomSender",
    "CountingBloomReceiver",
    "StrategyLinkMonitor",
]


class SingleLinkCounterSender:
    """Upstream side of the one-counter-per-link design."""

    def __init__(self, on_detection: Optional[Callable[[int, int], None]] = None):
        self.count = 0
        self.on_detection = on_detection
        self.detections = 0

    def begin_session(self, session_id: int) -> None:
        self.count = 0

    def process_packet(self, packet: Packet, session_id: int,
                       entry: Any = None) -> bool:
        packet.tag = (0,)
        packet.tag_session = session_id
        packet.tag_dedicated = True
        self.count += 1
        return True

    def end_session(self, remote: int, session_id: int) -> int:
        lost = self.count - (remote or 0)
        if lost > 0:
            self.detections += 1
            if self.on_detection is not None:
                self.on_detection(lost, session_id)
        return lost


class SingleLinkCounterReceiver:
    """Downstream side of the one-counter-per-link design."""

    def __init__(self) -> None:
        self.count = 0

    def begin_session(self, session_id: int) -> None:
        self.count = 0

    def process_packet(self, packet: Packet, session_id: int) -> bool:
        if packet.tag is None or packet.tag_session != session_id:
            return False
        self.count += 1
        return True

    def snapshot(self) -> int:
        return self.count


class CountingBloomSender:
    """Upstream side of the counting-Bloom-filter design.

    On mismatch, every entry whose cells are all mismatching is flagged —
    including colliding innocent entries (the design's false positives).
    ``candidate_entries`` is the entry universe used to materialize flags;
    the data plane equivalent would test membership per packet.
    """

    def __init__(
        self,
        n_cells: int,
        candidate_entries: Iterable[Any] = (),
        n_hashes: int = 2,
        seed: int = 0,
        on_detection: Optional[Callable[[list, int], None]] = None,
    ):
        self.filter = CountingBloomFilter(n_cells, n_hashes=n_hashes, seed=seed)
        self.candidates = list(candidate_entries)
        self.on_detection = on_detection
        self.flagged: set[Any] = set()
        self.detect_sessions = 0

    def begin_session(self, session_id: int) -> None:
        self.filter.clear()

    def process_packet(self, packet: Packet, session_id: int,
                       entry: Any = None) -> bool:
        packet.tag = (0,)
        packet.tag_session = session_id
        packet.tag_dedicated = False
        self.filter.add(packet.entry)
        return True

    def end_session(self, remote: Optional[list[int]], session_id: int) -> list:
        remote_filter = CountingBloomFilter(
            self.filter.n_cells, n_hashes=self.filter.n_hashes, seed=self.filter.seed
        )
        if remote:
            remote_filter.counters = list(remote)
        cells = set(self.filter.mismatching_cells(remote_filter))
        newly: list[Any] = []
        if cells:
            self.detect_sessions += 1
            for entry in self.candidates:
                if entry not in self.flagged and self.filter.matches_cells(entry, cells):
                    self.flagged.add(entry)
                    newly.append(entry)
            if self.on_detection is not None and newly:
                self.on_detection(newly, session_id)
        return newly


class CountingBloomReceiver:
    """Downstream side: hashes entries itself (both sides share seeds)."""

    def __init__(self, n_cells: int, n_hashes: int = 2, seed: int = 0):
        self.filter = CountingBloomFilter(n_cells, n_hashes=n_hashes, seed=seed)

    def begin_session(self, session_id: int) -> None:
        self.filter.clear()

    def process_packet(self, packet: Packet, session_id: int) -> bool:
        if packet.tag is None or packet.tag_session != session_id:
            return False
        self.filter.add(packet.entry)
        return True

    def snapshot(self) -> list[int]:
        return list(self.filter.counters)


class StrategyLinkMonitor:
    """Wire an arbitrary sender/receiver strategy pair onto a link.

    The baseline analogue of
    :class:`~repro.core.detector.FancyLinkMonitor`: same FSMs, same hook
    placement, pluggable counter logic.
    """

    def __init__(
        self,
        sim: Simulator,
        upstream: Switch,
        up_port: int,
        downstream: Switch,
        down_port: int,
        sender_strategy,
        receiver_strategy,
        session_duration_s: float = 0.050,
        fsm_id: str = "baseline",
        log: Optional[FailureLog] = None,
        report_size_bytes: int = MIN_FRAME_BYTES,
    ):
        self.sim = sim
        self.upstream = upstream
        self.up_port = up_port
        self.downstream = downstream
        self.down_port = down_port
        self.log = log if log is not None else FailureLog()
        self.sender_strategy = sender_strategy
        self.receiver_strategy = receiver_strategy

        self.sender = FancySender(
            sim, fsm_id, self._send_downstream, sender_strategy,
            session_duration=session_duration_s,
            on_link_failure=self._on_link_failure,
            report_size_bytes=report_size_bytes,
        )
        self.receiver = FancyReceiver(
            sim, fsm_id, self._send_upstream, receiver_strategy,
            report_size_bytes=report_size_bytes,
        )
        from ..core.detector import claim_monitored_port

        claim_monitored_port(upstream, up_port)
        upstream.add_egress_hook(up_port, self._upstream_egress, data_only=True)
        upstream.add_ingress_hook(up_port, self._upstream_ingress, front=True,
                                  control_only=True)
        downstream.add_ingress_hook(down_port, self._downstream_ingress, front=True)

    def _send_downstream(self, kind: PacketKind, payload: dict, size: int) -> None:
        self.upstream.inject(Packet(kind, entry=None, size=size, payload=payload), self.up_port)

    def _send_upstream(self, kind: PacketKind, payload: dict, size: int) -> None:
        self.downstream.inject(
            Packet(kind, entry=None, size=size, payload=payload, reverse=True), self.down_port
        )

    def _upstream_egress(self, packet: Packet, _out_port: int) -> bool:
        if packet.kind is PacketKind.DATA and not packet.reverse:
            packet.clear_tag()
            self.sender.process_packet(packet)
        return True

    def _upstream_ingress(self, packet: Packet, _in_port: int) -> bool:
        if (packet.kind.is_control and packet.payload is not None
                and packet.payload.get("fsm") == self.sender.fsm_id):
            self.sender.on_control(packet.kind, packet.payload)
            return False
        return True

    def _downstream_ingress(self, packet: Packet, _in_port: int) -> bool:
        if packet.kind.is_control and packet.payload is not None:
            if packet.payload.get("fsm") == self.receiver.fsm_id:
                self.receiver.on_control(packet.kind, packet.payload)
                return False
            return True
        if packet.kind is PacketKind.DATA and packet.is_tagged:
            self.receiver.process_packet(packet)
        return True

    def _on_link_failure(self, fsm_id: str, now: float) -> None:
        self.log.record(FailureReport(FailureKind.LINK_DOWN, now, entry=fsm_id,
                                      port=self.up_port))

    def start(self, delay: float = 0.0) -> None:
        self.sim.schedule(delay, self.sender.start)

    def stop(self) -> None:
        self.sender.stop()
        self.receiver.stop()
