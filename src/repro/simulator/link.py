"""Point-to-point links with bandwidth, delay and gray-failure injection.

A :class:`Link` is unidirectional: it serializes packets at a configured
bandwidth, applies the propagation delay, and delivers to the receiving
node.  Gray failures are injected *on the wire*, i.e. after the sender has
finished transmitting (hence after any upstream egress counting) and before
the receiver sees the packet (hence before downstream ingress counting) —
matching the counter placement rationale of §3.

Congestion losses are intentionally *not* modelled here: tail-drop happens
in the switch traffic manager (see :mod:`repro.simulator.switch`), upstream
of the FANcY egress counters, exactly as in the paper.

Fused pipeline: serialize → propagate → deliver costs two heap events in
the textbook model (``_finish_tx`` at the end of serialization,
``_deliver`` after propagation).  When the link is *uncontended* (idle,
both queues empty) the two are fused into a single event at
``(now + tx_time) + delay`` that books the departure and the delivery in
one callback; the wire loss is drawn at *send* time with the pinned
departure timestamp.  Drawing at send time matters: it precedes every
later packet's departure event, so per-link RNG draws stay in
FIFO-by-departure order, exactly as in the two-event model (drawing inside
the arrival event would invert the order against packets queued behind the
fused one).  Under contention the link takes the queued pipeline, with a
"kick" event at the in-flight packet's departure time so queued packets
start serializing at exactly the two-event instant.  The only observable
difference is *bookkeeping latency*: ``stats`` for a fused packet are
updated at delivery time (or at send time when it is dropped) rather than
at departure time — the totals agree whenever the wire is quiet, e.g.
after a drain.  ``Link(fused=False)`` keeps the two-event model as the
per-link reference the equivalence tests compare against.

Burst coalescing: *instant* links (``bandwidth_bps=None``, the access
links) have no serialization, so a burst of sends inside one callback — a
UDP train, a TCP cwnd's worth of segments — yields several delivery events
at exactly ``now + delay``.  The link coalesces such a burst into one
event that delivers every packet in order.  The engine serves equal
timestamps FIFO, so per-link delivery instants and order are identical to
one event per packet; wire-loss draws are unaffected because the instant
path draws at send time either way.

Observers: :attr:`Link.taps` is a tuple of callables
``tap(event, packet, t)``, empty when nobody watches, tested once wherever
:class:`LinkStats` changes on every path above.  Each departing packet
yields exactly one of ``"tx"`` (on the wire, or handed to a chaos model
that consumed it), ``"drop"`` (lost to the loss model) or
``"chaos_drop"``, at its pinned departure instant; a delivered one then
yields ``"deliver"`` at its arrival instant — whichever pipeline booked
it.  ``"queue"`` marks a change in the set of packets waiting behind the
serializer.  :meth:`~repro.simulator.tracing.PacketTracer.attach_link` is
a tap.  Telemetry (``Link(telemetry=...)``) is not: the registry reads
the ``link_*`` counters out of :class:`LinkStats`, and the one value no
counter holds, the queue depth, is set inline where ``"queue"`` is
emitted — an observed link runs no link code an unobserved one does not.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any, Protocol

from .engine import Simulator
from .packet import Packet, PacketKind

__all__ = [
    "Receiver",
    "Link",
    "LinkStats",
    "connect_duplex",
    "CHAOS_PASS",
    "CHAOS_DROP",
    "CHAOS_CONSUMED",
]

#: Verdicts a chaos model (see :mod:`repro.chaos`) may return from its
#: ``on_wire(packet, depart_t, link)`` hook.  Plain ints so the link's hot
#: path stays branch-cheap and the chaos package can import them without
#: the simulator depending on chaos (layering: chaos -> simulator only).
CHAOS_PASS = 0  #: deliver normally
CHAOS_DROP = 1  #: drop on the wire (accounted as ``dropped_chaos``)
CHAOS_CONSUMED = 2  #: chaos took over delivery (reorder/duplicate/…)

#: Control *responses* riding the strict-priority class (see Link.send);
#: hoisted to module level so the per-packet membership test does not
#: rebuild the tuple (or re-resolve the enum attributes) on every send.
_PRIORITY_KINDS = (PacketKind.FANCY_START_ACK, PacketKind.FANCY_REPORT)


class Receiver(Protocol):
    """Anything that can accept packets from a link."""

    def receive(self, packet: Packet, in_port: int) -> None: ...


class LinkStats:
    """Per-link counters for delivered and dropped traffic."""

    __slots__ = ("tx_packets", "tx_bytes", "delivered", "dropped_failure",
                 "dropped_chaos")

    def __init__(self) -> None:
        self.tx_packets = 0
        self.tx_bytes = 0
        self.delivered = 0
        self.dropped_failure = 0
        self.dropped_chaos = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "tx_packets": self.tx_packets,
            "tx_bytes": self.tx_bytes,
            "delivered": self.delivered,
            "dropped_failure": self.dropped_failure,
            "dropped_chaos": self.dropped_chaos,
        }


def _read_stats(metrics: Any, name: str, stats: LinkStats) -> None:
    """Export a link's :class:`LinkStats` as its ``link_*`` counters."""
    read = metrics.read
    read("link_tx_packets_total", "Packets that left the sender",
         stats, "tx_packets", link=name)
    read("link_tx_bytes_total", "Bytes that left the sender",
         stats, "tx_bytes", link=name)
    read("link_delivered_total", "Packets delivered to the receiver",
         stats, "delivered", link=name)
    read("link_dropped_total", "Packets dropped on the wire",
         stats, "dropped_failure", link=name, reason="failure")
    read("link_dropped_total", "Packets dropped on the wire",
         stats, "dropped_chaos", link=name, reason="chaos")


class Link:
    """A unidirectional link.

    Args:
        sim: the event engine.
        dst: receiving node.
        dst_port: port index presented to the receiver.
        bandwidth_bps: link rate in bits/second; ``None`` disables the
            serialization model (packets depart instantly), useful for the
            analytical experiments where queueing is irrelevant.
        delay_s: one-way propagation delay in seconds.
        loss_model: optional callable ``(packet, now) -> bool``; returning
            True drops the packet on the wire (a gray failure).
        fused: fuse uncontended sends into one event and coalesce
            same-instant bursts (the default); ``False`` is the two-event
            reference the equivalence tests compare against.
        telemetry: optional :class:`repro.telemetry.Telemetry`; when set,
            the registry reads ``link_tx_packets_total`` /
            ``link_tx_bytes_total`` / ``link_delivered_total`` /
            ``link_dropped_total{reason=failure|chaos}`` out of
            :attr:`stats`, and the link sets the ``link_queue_depth``
            gauge, all labelled ``link=<name>``.
    """

    def __init__(
        self,
        sim: Simulator,
        dst: Receiver,
        dst_port: int,
        bandwidth_bps: float | None = 10e9,
        delay_s: float = 0.010,
        loss_model: Callable[[Packet, float], bool] | None = None,
        name: str = "",
        telemetry: Any | None = None,
        fused: bool = True,
    ) -> None:
        self.sim = sim
        self.dst = dst
        self.dst_port = dst_port
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.loss_model = loss_model
        self.name = name or f"link->{dst_port}"
        self.stats = LinkStats()
        self._tx_queue: deque[Packet] = deque()
        self._ctrl_queue: deque[Packet] = deque()
        self._transmitting = False
        #: Departure time of the in-flight *fused* packet; the link is
        #: busy until then even though no _finish_tx event is pending.
        self._busy_until = 0.0
        self._kick_pending = False
        #: Fused events in flight (observability for tests/benchmarks).
        self.fused_events = 0
        #: Open same-instant delivery on an instant link (fused mode):
        #: the pending delivery's event handle and arrival timestamp.  A
        #: second send with the same arrival instant converts the handle
        #: into a burst delivery in place (see :meth:`send`).
        self._burst_handle: Any = None
        self._burst_t = -1.0
        #: Multi-packet bursts coalesced so far (observability).
        self.coalesced_bursts = 0
        self.fused = fused
        #: Optional chaos model (see :mod:`repro.chaos.perturbations`):
        #: a ``on_wire(packet, depart_t, link) -> int`` hook consulted
        #: *after* the loss model in every send path, returning one of
        #: :data:`CHAOS_PASS` / :data:`CHAOS_DROP` / :data:`CHAOS_CONSUMED`.
        #: Set post-construction (``link.chaos = model``) so the simulator
        #: never imports the chaos package.  Chaos draws happen at the
        #: pinned departure timestamp, the same discipline as wire-loss
        #: draws, so fused and reference pipelines see identical streams.
        self.chaos: Any | None = None
        #: Observers, ``tap(event, packet, t)`` (see the module docstring);
        #: add one with ``link.taps += (tap,)``.
        self.taps: tuple[Callable[[str, Packet, float], None], ...] = ()
        #: The ``link_queue_depth`` gauge, or None when nobody watches.
        self._depth: Any = None
        if telemetry is not None:
            _read_stats(telemetry.metrics, self.name, self.stats)
            self._depth = telemetry.metrics.gauge(
                "link_queue_depth", "Packets waiting behind the serializer",
                link=self.name)

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission.

        Control *responses* (StartACK, Report) ride a strict-priority
        class, modelling the control-traffic QoS class switches give
        protocol packets, so FANcY's reverse channel does not starve
        behind congested data queues.  Start and Stop stay in the FIFO
        data class on purpose: the counting protocol's correctness relies
        on Stop never overtaking the tagged data packets it delimits
        (§4.1's per-session consistency).
        """
        if self.bandwidth_bps is None:
            # Serialization disabled (access links): departure is now, so
            # the depart accounting is inlined instead of paying the
            # _depart frame — this runs once per packet on every
            # host-to-switch hop.
            now = self.sim.now
            if self.loss_model is not None and self.loss_model(packet, now):
                self._off_wire(packet, now, "drop")
                return
            if self.chaos is not None:
                verdict = self.chaos.on_wire(packet, now, self)
                if verdict:
                    self._off_wire(packet, now,
                                   "chaos_drop" if verdict == CHAOS_DROP else "tx")
                    return
            stats = self.stats
            stats.tx_packets += 1
            stats.tx_bytes += packet.size
            if self.taps:
                self._emit("tx", packet, now)
            if not self.fused:
                self.sim.schedule(self.delay_s, self._deliver, packet)
                return
            # Same-instant burst coalescing: a UDP train (or any burst of
            # sends from one callback) produces several deliveries at
            # exactly now + delay.  The engine serves equal timestamps
            # FIFO, so one event delivering the whole burst in order is
            # indistinguishable from B per-packet events — same instants,
            # same per-link order — at one heap entry instead of B.  Loss
            # was already drawn above, at send time.
            #
            # The coalescing is *retroactive* so a lone packet (the common
            # case on TCP access links) pays only two stores: the first
            # send schedules a plain _deliver and remembers its handle; a
            # second send with the same arrival instant rewrites that
            # pending handle in place into a burst delivery and appends.
            # Delivery events seal the burst (reset _burst_t) so zero-delay
            # sends from a later callback at the same timestamp open a
            # fresh one.
            arrival_t = now + self.delay_s
            if self._burst_t == arrival_t:
                # Rewrites the pending heap entry in place: slots 2 and 3
                # of an EventHandle are (callback, args).
                handle = self._burst_handle
                head = handle[3][0]
                if head.__class__ is list:  # already a burst
                    head.append(packet)
                else:
                    handle[2] = self._deliver_burst
                    handle[3] = ([head, packet],)
                    self.coalesced_bursts += 1
                return
            self._burst_handle = self.sim.schedule(self.delay_s, self._deliver, packet)
            self._burst_t = arrival_t
            return
        now = self.sim.now
        if (self.fused
                and not self._transmitting
                and now >= self._busy_until
                and not self._tx_queue
                and not self._ctrl_queue):
            # Uncontended: one event does serialize + propagate + deliver.
            # The departure timestamp is pinned now so the loss model sees
            # the exact two-event instant, and the arrival time is
            # computed as (now + tx) + delay — the same float association
            # order as the two-event pipeline.
            bandwidth = self.bandwidth_bps
            assert bandwidth is not None  # the instant-link branch returned above
            depart_t = now + packet.size * 8 / bandwidth
            self._busy_until = depart_t
            self.fused_events += 1
            # The wire-loss draw happens *here*, at send time, with the
            # pinned departure timestamp.  Drawing inside the arrival
            # event (depart + delay) would invert the per-link RNG order
            # whenever a packet queued behind this one departs within the
            # propagation delay — its _depart draw would fire first.  Send
            # time precedes every later packet's departure, so the draw
            # sequence stays FIFO-by-departure.
            if self.loss_model is not None and self.loss_model(packet, depart_t):
                self._off_wire(packet, depart_t, "drop")
                return
            if self.chaos is not None:
                # Same pinned-departure discipline as the loss draw above:
                # chaos RNG streams stay FIFO-by-departure.
                verdict = self.chaos.on_wire(packet, depart_t, self)
                if verdict:
                    self._off_wire(packet, depart_t,
                                   "chaos_drop" if verdict == CHAOS_DROP else "tx")
                    return
            self.sim.schedule_at(depart_t + self.delay_s, self._fused_arrive,
                                 packet, depart_t)
            return
        if packet.kind in _PRIORITY_KINDS:
            self._ctrl_queue.append(packet)
        else:
            self._tx_queue.append(packet)
        if not self._transmitting:
            if now >= self._busy_until:
                self._start_next()
                return
            # A fused packet is in flight; resume FIFO service at the
            # exact instant its serialization finishes.
            if not self._kick_pending:
                self._kick_pending = True
                self.sim.schedule(self._busy_until - now, self._kick)
        if self._depth is not None:
            self._depth.set(len(self._tx_queue) + len(self._ctrl_queue))
        if self.taps:
            self._emit("queue", packet, now)

    def _off_wire(self, packet: Packet, t: float, event: str) -> None:
        """Book a packet that departed at ``t`` but that this link will not
        deliver: lost (``"drop"``), chaos-dropped (``"chaos_drop"``) or
        handed over to a chaos model (``"tx"``)."""
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += packet.size
        if event == "drop":
            stats.dropped_failure += 1
        elif event == "chaos_drop":
            stats.dropped_chaos += 1
        if self.taps:
            self._emit(event, packet, t)

    def _emit(self, event: str, packet: Packet, t: float) -> None:
        for tap in self.taps:
            tap(event, packet, t)

    def _kick(self) -> None:
        """Resume queue service when an in-flight fused packet departs."""
        self._kick_pending = False
        if not self._transmitting:
            self._start_next()

    def _fused_arrive(self, packet: Packet, depart_t: float) -> None:
        """Fused depart + deliver for an uncontended, not-dropped packet.

        The wire-loss draw already happened at send time (see
        :meth:`send`); ``depart_t`` is the instant taps see for ``"tx"``.
        """
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += packet.size
        stats.delivered += 1
        if self.taps:
            self._emit("tx", packet, depart_t)
            self._emit("deliver", packet, self.sim.now)
        self.dst.receive(packet, self.dst_port)

    def _start_next(self) -> None:
        if self._ctrl_queue:
            packet = self._ctrl_queue.popleft()
        elif self._tx_queue:
            packet = self._tx_queue.popleft()
        else:
            self._transmitting = False
            return
        self._transmitting = True
        if self._depth is not None:
            self._depth.set(len(self._tx_queue) + len(self._ctrl_queue))
        if self.taps:
            self._emit("queue", packet, self.sim.now)
        bandwidth = self.bandwidth_bps
        assert bandwidth is not None  # queued packets imply a serializing link
        self.sim.schedule(packet.size * 8 / bandwidth, self._finish_tx, packet)

    def _finish_tx(self, packet: Packet) -> None:
        self._depart(packet)
        self._start_next()

    def _depart(self, packet: Packet) -> None:
        """Packet left the sender; apply the wire loss model then propagate."""
        # ``sim.now`` *is* the departure instant on this path: the loss
        # and chaos models see the exact timestamp the fused pipeline pins.
        now = self.sim.now
        if self.loss_model is not None and self.loss_model(packet, now):
            self._off_wire(packet, now, "drop")
            return
        if self.chaos is not None:
            verdict = self.chaos.on_wire(packet, now, self)
            if verdict:
                self._off_wire(packet, now,
                               "chaos_drop" if verdict == CHAOS_DROP else "tx")
                return
        self.stats.tx_packets += 1
        self.stats.tx_bytes += packet.size
        if self.taps:
            self._emit("tx", packet, now)
        self.sim.schedule(self.delay_s, self._deliver, packet)

    def _deliver_burst(self, burst: list[Packet]) -> None:
        """Deliver a coalesced same-instant burst (instant links, fused)."""
        self._burst_t = -1.0  # seal: no more appends to this burst
        stats = self.stats
        dst = self.dst
        port = self.dst_port
        taps = self.taps
        for packet in burst:
            stats.delivered += 1
            if taps:
                self._emit("deliver", packet, self.sim.now)
            dst.receive(packet, port)

    def _deliver(self, packet: Packet) -> None:
        # Seal any open burst tracking: with zero delay a send from a
        # later event at this same timestamp must schedule afresh rather
        # than append behind an already-fired delivery.  (For bandwidth
        # links _burst_t is always -1 and the store is inert.)
        self._burst_t = -1.0
        self.stats.delivered += 1
        if self.taps:
            self._emit("deliver", packet, self.sim.now)
        self.dst.receive(packet, self.dst_port)

    @property
    def queue_len(self) -> int:
        """Packets waiting behind the serializer, data *and* control class.

        Both classes occupy the same physical port buffer (the switch TM
        and the depth gauge inline the same sum).
        """
        return len(self._tx_queue) + len(self._ctrl_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, delay={self.delay_s * 1e3:.3f}ms)"


def connect_duplex(
    sim: Simulator,
    node_a: Any,
    port_a: int,
    node_b: Any,
    port_b: int,
    bandwidth_bps: float | None = 10e9,
    delay_s: float = 0.010,
    loss_model_ab: Callable[[Packet, float], bool] | None = None,
    loss_model_ba: Callable[[Packet, float], bool] | None = None,
    telemetry: Any | None = None,
) -> tuple[Link, Link]:
    """Create a bidirectional connection as a pair of unidirectional links.

    Nodes must expose ``attach_link(port, link)`` and ``receive(packet,
    in_port)``; every node in :mod:`repro.simulator` does.
    """
    ab = Link(sim, node_b, port_b, bandwidth_bps, delay_s, loss_model_ab,
              name=f"{getattr(node_a, 'name', 'a')}->{getattr(node_b, 'name', 'b')}",
              telemetry=telemetry)
    ba = Link(sim, node_a, port_a, bandwidth_bps, delay_s, loss_model_ba,
              name=f"{getattr(node_b, 'name', 'b')}->{getattr(node_a, 'name', 'a')}",
              telemetry=telemetry)
    node_a.attach_link(port_a, ab)
    node_b.attach_link(port_b, ba)
    return ab, ba
