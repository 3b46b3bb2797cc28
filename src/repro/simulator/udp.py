"""Constant-bit-rate UDP sources.

Used by the fast-rerouting case study (§6.1), which mixes 50 Gbps of TCP
with 50 Mbps of UDP, and by open-loop micro-benchmarks where TCP dynamics
would get in the way of isolating a counting-protocol behaviour.

Fast path (packet trains): at high rates the per-packet timer event is
pure engine overhead — the source is open loop, so the packet stream is
fully determined by the jitter RNG.  With ``train=B`` the source emits
``B`` packets per timer event instead of one.  Per-packet bookkeeping is
preserved exactly: every packet carries the ``created_at`` timestamp it
would have had with ``train=1`` (``now`` plus the accumulated
jittered gaps), sequence numbers advance identically, and the jitter RNG
is consumed once per packet in the same order, so the *stream metadata*
is bit-identical and the next timer lands at the exact ``train=1``
instant.  What the train compresses is wire entry: all ``B`` packets are
handed to ``send_fn`` at the head packet's departure time, so downstream
serialization sees a burst rather than spaced arrivals.  For stationary
loss models (draw order decides, not wall-clock) and for FANcY counting
(session membership rides on the packet tag, not on arrival time) this
is output-equivalent; see ``tests/simulator/test_fastpath_equivalence``.
Experiments that need exact per-packet wire timing keep ``train=1``.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Any

from .engine import EventHandle, Simulator
from .packet import Packet, PacketKind

__all__ = ["UdpSource"]


class UdpSource:
    """Sends fixed-size packets at a constant bit rate, open loop.

    Args:
        sim: event engine.
        send_fn: callable delivering a packet into the network.
        entry: monitoring entry (destination prefix) for the packets.
        flow_id: flow identifier stamped on every packet.
        rate_bps: constant bit rate.
        packet_size: frame size in bytes.
        jitter: fractional jitter; each inter-packet gap is drawn
            uniformly from ``interval * [1-jitter, 1+jitter]``.
        seed: jitter RNG seed (one independent stream per source).
        train: packets emitted per timer event (>=1).  ``1`` is the
            reference path; larger values batch timer events while
            preserving per-packet timestamps, seqs and RNG draws (see
            module docstring for the exact equivalence contract).
    """

    def __init__(
        self,
        sim: Simulator,
        send_fn: Callable[[Packet], None],
        entry: Any,
        flow_id: int,
        rate_bps: float,
        packet_size: int = 1500,
        jitter: float = 0.0,
        seed: int = 0,
        train: int = 1,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("UDP source rate must be positive")
        if train < 1:
            raise ValueError("train must be >= 1 packet per timer event")
        self.sim = sim
        self.send_fn = send_fn
        self.entry = entry
        self.flow_id = flow_id
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.interval = packet_size * 8 / rate_bps
        self.jitter = jitter
        self.train = train
        self.packets_sent = 0
        self.next_seq = 0
        self._timer: EventHandle | None = None
        self._running = False
        # Jittered-interval bounds, precomputed once: each gap is
        # interval * (lo + span * u) with u ~ U[0, 1), algebraically
        # identical to the historical interval * (1 + jitter * (2u - 1)).
        self._jitter_lo = 1.0 - jitter
        self._jitter_span = 2.0 * jitter
        self._rng: random.Random | None = random.Random(seed) if jitter else None

    def start(self, delay: float = 0.0) -> None:
        self._running = True
        self._timer = self.sim.schedule(delay, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _next_gap(self) -> float:
        """One inter-packet gap, drawing the per-packet jitter if enabled."""
        if self._rng is None:
            return self.interval
        return self.interval * (self._jitter_lo + self._jitter_span * self._rng.random())

    def _tick(self) -> None:
        if not self._running:
            return
        send_fn = self.send_fn
        # Accumulate *absolute* departure times (t = t + gap), matching the
        # float association order of the reference one-packet-per-event
        # path, where each tick fires at t and schedules t + gap.
        t = self.sim.now
        for _ in range(self.train):
            packet = Packet.acquire(
                PacketKind.DATA,
                self.entry,
                self.packet_size,
                flow_id=self.flow_id,
                seq=self.next_seq,
                created_at=t,
            )
            self.next_seq += 1
            self.packets_sent += 1
            send_fn(packet)
            t = t + self._next_gap()
        self._timer = self.sim.schedule_at(t, self._tick)
