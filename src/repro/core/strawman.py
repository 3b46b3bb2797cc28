"""The §4.1 strawman: continuous counting with in-packet session IDs.

Before settling on stop-and-wait, the paper considers the "obvious"
protocol: the upstream counts continuously and rotates sessions by just
changing a session tag on packets; the downstream, upon seeing a packet
with a new tag, sends back the counters of the session that just closed.

The paper rejects it for two reasons, both of which this executable model
exhibits (and the ablation benchmark measures):

* **memory** — the upstream must keep the counters of the closed session
  around until the downstream's report arrives, i.e. at least two counter
  sets; and because a lost report silently loses a whole session's
  measurements, surviving loss of ``k-1`` consecutive reports requires
  ``k`` counter sets on *both* sides (§4.1: "consume k times the memory
  required for a single session");
* **reliability** — with history ``k``, a burst of ``k`` lost reports
  (e.g. a gray failure on the reverse direction) permanently blinds the
  monitor for those sessions: there is no retransmission handshake.

The implementation deliberately mirrors the paper's sketch rather than
fixing it: reports are sent once, never retransmitted, and sessions
rotate on a timer regardless of report outcomes.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence
from typing import Any

from ..simulator.engine import EventHandle, Simulator
from ..simulator.packet import MIN_FRAME_BYTES, Packet, PacketKind

__all__ = ["StrawmanSender", "StrawmanReceiver", "StrawmanLinkMonitor"]

#: Detection callback: (entry, lost_packets, session_id) -> None.
DetectionCallback = Callable[[Any, int, int], None]


class StrawmanSender:
    """Upstream side: continuous counting, k-session history.

    Args:
        sim: event engine.
        send_control: control-message transport toward the downstream.
        entries: monitored entries (one exact counter each).
        session_duration: rotation period (counting never pauses).
        history: number of counter sets kept (k).  The current session
            plus ``k - 1`` closed-but-unreported sessions.
        on_detection: callback for per-entry loss findings.
    """

    def __init__(
        self,
        sim: Simulator,
        send_control: Callable[[PacketKind, dict[str, Any], int], None],
        entries: Sequence[Any],
        session_duration: float = 0.050,
        history: int = 2,
        on_detection: DetectionCallback | None = None,
    ) -> None:
        if history < 2:
            raise ValueError("strawman needs >= 2 counter sets (current + closed)")
        self.sim = sim
        self.send_control = send_control
        self.entries = list(entries)
        self.index = {e: i for i, e in enumerate(self.entries)}
        self.session_duration = session_duration
        self.history = history
        self.on_detection = on_detection

        self.session_id = 1
        #: session id -> counter list; bounded at ``history`` entries.
        self.sessions: OrderedDict[int, list[int]] = OrderedDict()
        self.sessions[self.session_id] = [0] * len(self.entries)
        self.flags = [False] * len(self.entries)
        self.sessions_lost = 0       # evicted before their report arrived
        self.sessions_checked = 0
        self._timer: EventHandle | None = None

    @property
    def memory_counter_sets(self) -> int:
        """Counter sets this design must provision (the §4.1 k× cost)."""
        return self.history

    def start(self) -> None:
        self._timer = self.sim.schedule(self.session_duration, self._rotate)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _rotate(self) -> None:
        """Open a new session by just bumping the tag (no handshake)."""
        self.session_id += 1
        self.sessions[self.session_id] = [0] * len(self.entries)
        while len(self.sessions) > self.history:
            _stale_id, counters = self.sessions.popitem(last=False)
            # A session evicted unreported is measurement silently lost
            # (sessions that carried no packets lose nothing).
            if any(counters):
                self.sessions_lost += 1
        self._timer = self.sim.schedule(self.session_duration, self._rotate)

    def process_packet(self, packet: Packet) -> bool:
        """Tag and count; counting never stops (the strawman's one upside)."""
        idx = self.index.get(packet.entry)
        if idx is None:
            return False
        packet.tag = (idx,)
        packet.tag_session = self.session_id
        packet.tag_dedicated = True
        self.sessions[self.session_id][idx] += 1
        return True

    def on_report(self, payload: dict[str, Any]) -> None:
        """A downstream report carrying one or more session snapshots.

        Reports are cumulative over the receiver's retained history, so a
        report lost on the wire is recovered by the next one — as long as
        the session has not yet been evicted on either side (the k-session
        reliability the paper prices at k× memory).
        """
        for key, remote in (payload.get("sessions") or {}).items():
            session = int(key)
            local = self.sessions.pop(session, None)
            if local is None:
                continue  # evicted or already checked
            self.sessions_checked += 1
            for i, sent in enumerate(local):
                got = remote[i] if i < len(remote) else 0
                if sent > got:
                    self.flags[i] = True
                    if self.on_detection is not None:
                        self.on_detection(self.entries[i], sent - got, session)

    @property
    def flagged_entries(self) -> list[Any]:
        return [e for e, f in zip(self.entries, self.flags) if f]


class StrawmanReceiver:
    """Downstream side: counts by tag; a tag with a new session id closes
    the previous session and emits a report.

    Each report carries the snapshots of the last ``history - 1`` closed
    sessions (the downstream's share of the k× memory bill), so isolated
    report losses are recovered by the next report.  There is still no
    handshake: a burst of losses longer than the history, or a dead
    reverse channel, loses measurements for good.
    """

    def __init__(
        self,
        sim: Simulator,
        send_control: Callable[[PacketKind, dict[str, Any], int], None],
        n_entries: int,
        history: int = 2,
    ) -> None:
        self.sim = sim
        self.send_control = send_control
        self.n_entries = n_entries
        self.history = history
        self.current_session = 0
        self.counters = [0] * n_entries
        #: closed-session snapshots retained for cumulative reports.
        self.closed: OrderedDict[int, list[int]] = OrderedDict()
        self.reports_sent = 0

    @property
    def memory_counter_sets(self) -> int:
        return self.history  # current + (history - 1) closed snapshots

    def process_packet(self, packet: Packet) -> bool:
        if not packet.tag_dedicated or packet.tag is None:
            return False
        session = packet.tag_session
        if session > self.current_session:
            if self.current_session > 0:
                self._close_session(self.current_session)
            self.current_session = session
            self.counters = [0] * self.n_entries
        elif session < self.current_session:
            return False  # late packet of a closed session: uncounted
        idx = packet.tag[0]
        if 0 <= idx < self.n_entries:
            self.counters[idx] += 1
            return True
        return False

    def _close_session(self, session: int) -> None:
        self.closed[session] = list(self.counters)
        while len(self.closed) > self.history - 1:
            self.closed.popitem(last=False)
        self._emit_report()

    def _emit_report(self) -> None:
        """Send all retained snapshots; one lost report is covered by the
        next, up to the history bound."""
        self.reports_sent += 1
        sessions = {str(sid): list(snap) for sid, snap in self.closed.items()}
        self.send_control(
            PacketKind.FANCY_REPORT,
            {"fsm": "strawman", "sessions": sessions},
            max(MIN_FRAME_BYTES, len(sessions) * self.n_entries * 4 + 30),
        )


class StrawmanLinkMonitor:
    """Deploys the strawman on a directed link, mirroring the hook layout
    of :class:`~repro.core.detector.FancyLinkMonitor` so experiments can
    swap the two."""

    def __init__(
        self,
        sim: Simulator,
        upstream: Any,
        up_port: int,
        downstream: Any,
        down_port: int,
        entries: Sequence[Any],
        session_duration: float = 0.050,
        history: int = 2,
        on_detection: DetectionCallback | None = None,
    ) -> None:
        self.sim = sim
        self.upstream = upstream
        self.up_port = up_port
        self.downstream = downstream
        self.down_port = down_port
        self.sender = StrawmanSender(
            sim, self._noop_send, entries, session_duration, history, on_detection
        )
        self.receiver = StrawmanReceiver(
            sim, self._send_upstream, len(entries), history
        )
        from .detector import claim_monitored_port

        claim_monitored_port(upstream, up_port)
        upstream.add_egress_hook(up_port, self._upstream_egress, data_only=True)
        upstream.add_ingress_hook(up_port, self._upstream_ingress, front=True,
                                  control_only=True)
        downstream.add_ingress_hook(down_port, self._downstream_ingress, front=True)

    @staticmethod
    def _noop_send(kind: PacketKind, payload: dict[str, Any], size: int) -> None:
        # The strawman sender never sends control messages: sessions
        # rotate purely via packet tags.
        return None

    def _send_upstream(self, kind: PacketKind, payload: dict[str, Any], size: int) -> None:
        self.downstream.inject(
            Packet(kind, entry=None, size=size, payload=payload, reverse=True),
            self.down_port,
        )

    def _upstream_egress(self, packet: Packet, _port: int) -> bool:
        if packet.kind is PacketKind.DATA and not packet.reverse:
            packet.clear_tag()
            self.sender.process_packet(packet)
        return True

    def _upstream_ingress(self, packet: Packet, _port: int) -> bool:
        if (packet.kind is PacketKind.FANCY_REPORT and packet.payload is not None
                and packet.payload.get("fsm") == "strawman"):
            self.sender.on_report(packet.payload)
            return False
        return True

    def _downstream_ingress(self, packet: Packet, _port: int) -> bool:
        if packet.kind is PacketKind.DATA and packet.is_tagged:
            self.receiver.process_packet(packet)
        return True

    def start(self, delay: float = 0.0) -> None:
        self.sim.schedule(delay, self.sender.start)

    def stop(self) -> None:
        self.sender.stop()
