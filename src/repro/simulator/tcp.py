"""Simplified Reno-style TCP for closed-loop experiments.

The evaluation's key transport effects (§5.2) are: (i) under a blackhole,
traffic for an entry collapses to RTO-driven retransmissions at
exponentially increasing intervals, so FANcY may not see packets in three
consecutive counting sessions; (ii) under partial loss, flows keep sending
(fast retransmit / window reduction), so FANcY keeps observing traffic.

This module implements exactly enough TCP to get those dynamics right:
slow start, AIMD congestion avoidance, triple-duplicate-ACK fast
retransmit, and a 200 ms retransmission timeout with exponential backoff
(the paper's stated flow parameters).  Sequence numbers are in packets,
not bytes — the counting logic only sees packet counts anyway.

Data and ACK packets are allocated through
:meth:`repro.simulator.packet.Packet.acquire` (one frame per packet).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from typing import Any

from .engine import EventHandle, Simulator
from .packet import Packet, PacketKind

__all__ = ["TcpFlow", "TcpSink", "DEFAULT_RTO"]

#: Retransmission timeout used throughout the paper's experiments.
DEFAULT_RTO = 0.200

#: Cap on the exponential backoff of the RTO.
MAX_RTO = 8 * DEFAULT_RTO

#: ACK frame size on the wire.
ACK_SIZE = 64


class TcpFlow:
    """Sender-side TCP state for one flow.

    Args:
        sim: event engine.
        send_fn: callable delivering a packet into the network (typically
            ``host.transmit`` bound to the access port).
        entry: monitoring entry (destination prefix) of the flow.
        flow_id: unique flow identifier.
        total_packets: flow length; the flow completes once all are ACKed.
        packet_size: data packet size in bytes.
        rate_bps: application pacing rate; the sender never exceeds it even
            if the congestion window would allow.
        rto: base retransmission timeout.
        on_complete: optional callback fired when the flow finishes.
    """

    def __init__(
        self,
        sim: Simulator,
        send_fn: Callable[[Packet], None],
        entry: Any,
        flow_id: int,
        total_packets: int,
        packet_size: int = 1500,
        rate_bps: float = 1e6,
        rto: float = DEFAULT_RTO,
        on_complete: Callable[["TcpFlow"], None] | None = None,
    ) -> None:
        if total_packets <= 0:
            raise ValueError("flow must carry at least one packet")
        self.sim = sim
        self.send_fn = send_fn
        self.entry = entry
        self.flow_id = flow_id
        self.total_packets = total_packets
        self.packet_size = packet_size
        self.rate_bps = rate_bps
        self.base_rto = rto
        self.on_complete = on_complete

        self.cwnd = 2.0
        self.ssthresh = 64.0
        self.next_seq = 0          # next new packet to send
        self.high_acked = 0        # cumulative ACK (next expected by peer)
        self.dup_acks = 0
        self.rto = rto
        self.completed = False
        self.started_at: float | None = None
        self.completed_at: float | None = None
        self.packets_sent = 0
        self.retransmissions = 0
        self._pacing_interval = packet_size * 8 / rate_bps if rate_bps else 0.0
        self._rto_timer: EventHandle | None = None
        #: Authoritative expiry instant.  Cancel-and-reschedule on every
        #: advancing ACK would churn one dead heap handle per ACK, so an
        #: ACK only moves this deadline; a pending timer that fires early
        #: re-arms itself at it without side effects (:meth:`_on_rto`).
        #: A timeout is acted on exactly at ``last-arm time + rto``.
        self._rto_deadline = 0.0
        self._pacing_timer: EventHandle | None = None
        self._in_recovery = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self.started_at = self.sim.now
        self._try_send()

    def stop(self) -> None:
        """Abort the flow (used at experiment teardown)."""
        self.completed = True
        self._cancel_timers()

    def _cancel_timers(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        if self._pacing_timer is not None:
            self._pacing_timer.cancel()
            self._pacing_timer = None

    # -- sending ------------------------------------------------------------

    def _try_send(self) -> None:
        self._pacing_timer = None
        if self.completed:
            return
        # Duplicate ACKs inflate the window (limited transmit / NewReno
        # inflation) so the flow keeps the ACK clock alive during loss.
        if (self.next_seq < self.total_packets
                and self.next_seq - self.high_acked < self.cwnd + self.dup_acks):
            self._emit(self.next_seq)
            self.next_seq += 1
            if self.next_seq < self.total_packets:
                self._pacing_timer = self.sim.schedule(self._pacing_interval, self._try_send)

    def _emit(self, seq: int, retransmission: bool = False) -> None:
        sim = self.sim
        # Positional: kind, entry, size, flow_id, seq, ack, created_at.
        packet = Packet.acquire(PacketKind.DATA, self.entry, self.packet_size,
                                self.flow_id, seq, -1, sim.now)
        self.packets_sent += 1
        if retransmission:
            self.retransmissions += 1
        self.send_fn(packet)
        if self._rto_timer is None:
            self._rto_deadline = sim.now + self.rto
            self._rto_timer = sim.schedule(self.rto, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.completed or self.high_acked >= self.total_packets:
            return
        if self.sim.now < self._rto_deadline:
            # ACKs moved the deadline while this event was pending:
            # lazy re-arm at the authoritative instant, no timeout.
            self._rto_timer = self.sim.schedule_at(self._rto_deadline, self._on_rto)
            return
        # Timeout: multiplicative backoff, collapse window, go-back-N from
        # the cumulative ACK point (retransmit just the first missing one;
        # the rest follow as ACKs advance).
        self.ssthresh = max(self.cwnd / 2, 2.0)
        self.cwnd = 1.0
        self.rto = min(self.rto * 2, MAX_RTO)
        self.dup_acks = 0
        self._in_recovery = False
        self.next_seq = max(self.high_acked + 1, self.next_seq)
        # _emit arms the (backed-off) RTO timer since none is pending.
        self._emit(self.high_acked, retransmission=True)

    # -- receiving ----------------------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        """Process a cumulative ACK (``packet.ack`` = next expected seq)."""
        if self.completed:
            return
        ack = packet.ack
        if ack > self.high_acked:
            self.high_acked = ack
            self.dup_acks = 0
            self.rto = self.base_rto
            if self._in_recovery:
                self.cwnd = self.ssthresh
                self._in_recovery = False
            elif self.cwnd < self.ssthresh:
                self.cwnd += 1.0          # slow start
            else:
                self.cwnd += 1.0 / self.cwnd  # congestion avoidance
            if self.high_acked >= self.total_packets:
                self._finish()
                return
            self._rto_deadline = self.sim.now + self.rto
            if self._rto_timer is None:
                self._rto_timer = self.sim.schedule(self.rto, self._on_rto)
            if self._pacing_timer is None:
                self._try_send()
        elif ack == self.high_acked:
            self.dup_acks += 1
            if self.dup_acks == 3 and not self._in_recovery:
                # Fast retransmit + window halving.
                self.ssthresh = max(self.cwnd / 2, 2.0)
                self.cwnd = self.ssthresh
                self._in_recovery = True
                self._emit(self.high_acked, retransmission=True)
            elif self._pacing_timer is None:
                # Limited transmit: dupacks may open the inflated window.
                self._try_send()

    def _finish(self) -> None:
        self.completed = True
        self.completed_at = self.sim.now
        self._cancel_timers()
        if self.on_complete is not None:
            self.on_complete(self)

    @property
    def duration(self) -> float | None:
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class TcpSink:
    """Receiver-side state: cumulative ACK generation with an OOO buffer.

    A sink is made by its host when a flow's first DATA segment arrives
    (``Host(auto_sink=True)``) and dropped, when the sender completes,
    by the :class:`~repro.simulator.apps.FlowGenerator` that started the
    flow, which knows both ends.  By then ``next_expected``
    has reached the flow's length, so any later DATA is a duplicate: a
    fresh sink ACKs it and the source, which no longer has the flow
    registered, drops that ACK — the same packets and events the retired
    sink would have caused.  Sinks no generator retires (a UDP source's,
    a hand-built flow's) live until their simulator dies, so a sink is
    kept small: slots, and no buffer until a segment actually arrives out
    of order.

    ``out_of_order`` holds the segments received above the first hole as
    sorted, disjoint, non-adjacent half-open runs, flattened
    ``[start0, end0, start1, end1, ...]``: a hole that never fills costs
    two ints, not one per segment behind it.
    """

    __slots__ = ("sim", "send_fn", "entry", "flow_id", "next_expected",
                 "out_of_order", "packets_received", "bytes_received")

    def __init__(
        self,
        sim: Simulator,
        send_fn: Callable[[Packet], None],
        entry: Any,
        flow_id: int,
    ) -> None:
        self.sim = sim
        self.send_fn = send_fn
        self.entry = entry
        self.flow_id = flow_id
        self.next_expected = 0
        self.out_of_order: list[int] | None = None
        self.packets_received = 0
        self.bytes_received = 0

    def on_data(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size
        seq = packet.seq
        if seq == self.next_expected:
            self.next_expected += 1
            runs = self.out_of_order
            if runs and runs[0] == self.next_expected:
                # The hole is filled: the first run is now in order.
                self.next_expected = runs[1]
                del runs[:2]
        elif seq > self.next_expected:
            runs = self.out_of_order
            if not runs:
                self.out_of_order = [seq, seq + 1]
            elif seq == runs[-1]:
                runs[-1] = seq + 1  # extends the last run: the usual case behind a hole
            else:
                _add_to_runs(runs, seq)
        # Positional: kind, entry, size, flow_id, seq, ack, created_at,
        # payload, reverse.
        self.send_fn(Packet.acquire(PacketKind.ACK, self.entry, ACK_SIZE, self.flow_id,
                                    0, self.next_expected, self.sim.now, None, True))


def _add_to_runs(runs: list[int], seq: int) -> None:
    """Add ``seq`` to the flattened half-open ``runs``, merging neighbours.

    ``bisect_right`` counts the boundaries at or below ``seq``: an odd
    count means it lies inside a run (a duplicate), an even one that it
    lies in the gap before ``runs[i]`` (``i == len(runs)``: past the end).
    It goes in as a run of its own, which then absorbs any neighbour it
    touches.
    """
    i = bisect_right(runs, seq)
    if i & 1:
        return
    runs[i:i] = (seq, seq + 1)
    if i + 2 < len(runs) and runs[i + 2] == seq + 1:
        del runs[i + 1:i + 3]
    if i and runs[i - 1] == seq:
        del runs[i - 1:i + 1]
