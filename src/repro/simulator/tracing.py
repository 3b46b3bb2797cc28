"""Packet tracing — the ns-3-style ascii-trace facility.

Attach a :class:`PacketTracer` to links and switches to record per-packet
events (transmit/drop/deliver, ingress) with timestamps.
Used for debugging protocol interactions and by tests that need to assert
on exact packet orderings; deliberately opt-in, since tracing every packet
of a large experiment is expensive.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from .engine import Simulator
from .link import Link
from .packet import Packet, PacketKind
from .switch import Switch

__all__ = ["TraceEvent", "PacketTracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded packet event."""

    time: float
    location: str
    event: str          # "tx" | "drop" | "deliver" | "ingress" | "egress"
    pid: int
    kind: str
    entry: Any
    size: int
    tag: tuple[int, ...] | None

    def format(self) -> str:
        tag = f" tag={self.tag}" if self.tag is not None else ""
        return (f"{self.time:.6f} {self.location:<16} {self.event:<8} "
                f"#{self.pid} {self.kind} entry={self.entry!r} "
                f"size={self.size}{tag}")


class PacketTracer:
    """Collects :class:`TraceEvent` records from instrumented components.

    Args:
        sim: event engine (timestamps).
        predicate: optional packet filter; only matching packets are
            recorded (e.g. ``lambda p: p.kind.is_control``).
        max_events: hard cap to bound memory in long runs.
        ring_buffer: when True, keep the most *recent* ``max_events``
            records instead of the first ones — the right mode when a
            bug manifests late in a long run.  Either way,
            ``dropped_records`` counts suppressed/evicted events and
            :meth:`summary` / :meth:`dump` carry an explicit
            truncation marker.
    """

    def __init__(
        self,
        sim: Simulator,
        predicate: Callable[[Packet], bool] | None = None,
        max_events: int = 100_000,
        ring_buffer: bool = False,
    ) -> None:
        self.sim = sim
        self.predicate = predicate
        self.max_events = max_events
        self.ring_buffer = ring_buffer
        self.events: list[TraceEvent] | deque[TraceEvent] = (
            deque(maxlen=max_events) if ring_buffer else []
        )
        self.dropped_records = 0

    # -- recording ----------------------------------------------------------

    def record(self, location: str, event: str, packet: Packet,
               time: float | None = None) -> None:
        """Append one event, stamped ``time`` (default: the current instant)."""
        if self.predicate is not None and not self.predicate(packet):
            return
        if len(self.events) >= self.max_events:
            self.dropped_records += 1
            if not self.ring_buffer:
                return
            # deque(maxlen=...) evicts the oldest record on append.
        self.events.append(TraceEvent(
            time=self.sim.now if time is None else time,
            location=location,
            event=event,
            pid=packet.pid,
            kind=packet.kind.value,
            entry=packet.entry,
            size=packet.size,
            tag=packet.tag,
        ))

    # -- instrumentation ------------------------------------------------------

    def attach_link(self, link: Link) -> None:
        """Record tx / drop / deliver on a link through its tap slot.

        Every departure is recorded once, as ``tx`` or — lost to the loss
        model or dropped by chaos — as ``drop``, stamped with its departure
        instant; deliveries carry their arrival instant.  The link keeps
        its pipeline: a fused link records what a reference link records.
        """
        name = link.name
        record = self.record

        def tap(event: str, packet: Packet, t: float) -> None:
            if event == "tx" or event == "deliver":
                record(name, event, packet, t)
            elif event != "queue":
                record(name, "drop", packet, t)

        link.taps += (tap,)

    def attach_switch(self, switch: Switch, ports: Iterable[int] | None = None) -> None:
        """Record ingress events on a switch (per port, before hooks)."""
        watch = set(ports) if ports is not None else None

        def hook_factory(port: int) -> Callable[[Packet, int], bool]:
            def hook(packet: Packet, _in_port: int) -> bool:
                self.record(switch.name, "ingress", packet)
                return True
            return hook

        target_ports = watch if watch is not None else set(switch.links)
        for port in target_ports:
            switch.add_ingress_hook(port, hook_factory(port), front=True)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def filter(self, event: str | None = None, entry: Any = None,
               kind: PacketKind | None = None) -> list[TraceEvent]:
        out: list[TraceEvent] = []
        for ev in self.events:
            if event is not None and ev.event != event:
                continue
            if entry is not None and ev.entry != entry:
                continue
            if kind is not None and ev.kind != kind.value:
                continue
            out.append(ev)
        return out

    def packet_journey(self, pid: int) -> list[TraceEvent]:
        """All events of one packet, time-ordered."""
        return sorted((e for e in self.events if e.pid == pid),
                      key=lambda e: e.time)

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ev in self.events:
            counts[ev.event] = counts.get(ev.event, 0) + 1
        if self.dropped_records:
            counts["truncated"] = self.dropped_records
        return counts

    def dump(self, limit: int = 50) -> str:
        head = list(self.events)[:limit]
        lines = [ev.format() for ev in head]
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        if self.dropped_records:
            what = ("oldest records evicted (ring buffer)" if self.ring_buffer
                    else "records suppressed at the cap")
            lines.append(
                f"!!! truncated: {self.dropped_records} {what} "
                f"(max_events={self.max_events})"
            )
        return "\n".join(lines)
