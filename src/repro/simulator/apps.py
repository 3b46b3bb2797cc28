"""Hosts, flow generation, and measurement sinks.

A :class:`Host` terminates transport flows.  The evaluation topology has a
source host behind the upstream switch generating flows toward entries, and
a sink host behind the downstream switch terminating them; ACKs travel the
reverse path.

:class:`FlowGenerator` reproduces the paper's synthetic workloads (§5.1):
for an entry with size "X bps / N flows per second", it spawns N TCP flows
per second, each pacing at X/N bps with a duration of about one second in
the absence of losses.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Any

from .engine import Simulator
from .packet import Packet, PacketKind
from .switch import Node
from .tcp import TcpFlow, TcpSink

__all__ = ["Host", "FlowGenerator", "ThroughputMeter"]


class Host(Node):
    """An endpoint terminating TCP/UDP flows.

    ``flows`` holds the senders this host originates and ``sinks`` the
    receivers it terminates, both by flow id.  An ACK goes to its
    sender, or is dropped when none is registered; a DATA segment goes
    to its sink, which is made on demand when ``auto_sink`` is set.
    Both entries live only as long as the connection: the
    :class:`FlowGenerator` that started a flow removes its sender here
    and its sink at the destination together when the flow completes
    (see :class:`~repro.simulator.tcp.TcpSink`).
    """

    def __init__(self, sim: Simulator, name: str, auto_sink: bool = False) -> None:
        super().__init__(sim, name)
        self.flows: dict[int, TcpFlow] = {}
        self.sinks: dict[int, TcpSink] = {}
        self.auto_sink = auto_sink
        self.access_port = 0
        self.packets_received = 0
        self.bytes_received = 0
        #: Optional tap on every received packet (for throughput meters).
        self.rx_tap: Callable[[Packet], None] | None = None
        #: ``send(packet)``: transmit via the access port (hosts are
        #: single-homed).  Sending runs once per originated packet (every
        #: TCP data segment and ACK), so once wired this *is* the access
        #: link's bound ``send`` — no Host frame, no port lookup.
        self.send: Callable[[Packet], None] = self._send_unwired

    def attach_link(self, port: int, link: Any) -> None:
        super().attach_link(port, link)
        if port == self.access_port:
            self.send = link.send

    def _send_unwired(self, packet: Packet) -> None:
        self.transmit(packet, self.access_port)  # raises the missing-port error

    def register_flow(self, flow: TcpFlow) -> None:
        self.flows[flow.flow_id] = flow

    def receive(self, packet: Packet, in_port: int) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size
        if self.rx_tap is not None:
            self.rx_tap(packet)
        if packet.kind is PacketKind.ACK:
            flow = self.flows.get(packet.flow_id)
            if flow is not None:
                flow.on_ack(packet)
        elif packet.kind is PacketKind.DATA:
            sink = self.sinks.get(packet.flow_id)
            if sink is None and self.auto_sink:
                sink = TcpSink(self.sim, self.send, packet.entry, packet.flow_id)
                self.sinks[packet.flow_id] = sink
            if sink is not None:
                sink.on_data(packet)
        # Control packets addressed to a host are ignored.


class FlowGenerator:
    """Spawns TCP flows for one entry at a configured arrival rate.

    Args:
        sim: event engine.
        source: host originating the flows.
        entry: monitoring entry the flows belong to.
        rate_bps: aggregate entry throughput (paper's "entry size").
        flows_per_second: flow arrival rate; each flow paces at
            ``rate_bps / flows_per_second`` and lasts ≈1 s loss-free.
        flow_duration_s: nominal loss-free flow duration.
        packet_size: data packet size.
        seed: RNG seed for arrival jitter.
        max_packets_per_flow: optional cap to bound simulation cost; the
            experiment runner uses it to scale very fat entries down while
            preserving the flow structure.
        destination: host terminating the flows.  A completed flow's
            sink is dropped there along with its sender at ``source``,
            so both hosts hold state only for live flows.
    """

    def __init__(
        self,
        sim: Simulator,
        source: Host,
        entry: Any,
        rate_bps: float,
        flows_per_second: float,
        flow_duration_s: float = 1.0,
        packet_size: int = 1500,
        seed: int = 0,
        max_packets_per_flow: int | None = None,
        flow_id_base: int = 0,
        *,
        destination: Host,
    ) -> None:
        if flows_per_second <= 0:
            raise ValueError("flows_per_second must be positive")
        self.sim = sim
        self.source = source
        self.destination = destination
        self.entry = entry
        self.rate_bps = rate_bps
        self.flows_per_second = flows_per_second
        self.flow_duration_s = flow_duration_s
        self.packet_size = packet_size
        self.rng = random.Random(seed)
        self.max_packets_per_flow = max_packets_per_flow
        self._next_flow_id = flow_id_base
        self._running = False
        self.flows_started = 0
        self.active_flows: set[int] = set()

    @property
    def per_flow_rate_bps(self) -> float:
        return self.rate_bps / self.flows_per_second

    @property
    def packets_per_flow(self) -> int:
        per_flow_bits = self.per_flow_rate_bps * self.flow_duration_s
        n = max(1, round(per_flow_bits / (self.packet_size * 8)))
        if self.max_packets_per_flow is not None:
            n = min(n, self.max_packets_per_flow)
        return n

    def start(self) -> None:
        self._running = True
        # Constant for the run: resolved here, not per spawned flow.
        self._flow_packets = self.packets_per_flow
        self._flow_rate_bps = self.per_flow_rate_bps
        self._spawn_gap = 1.0 / self.flows_per_second
        # Desynchronize entries: first arrival at a random phase of the
        # inter-arrival interval, as the paper randomizes flow start times.
        first = self.rng.random() / self.flows_per_second
        self.sim.schedule(first, self._spawn)

    def stop(self) -> None:
        self._running = False
        for flow_id in list(self.active_flows):
            flow = self.source.flows.get(flow_id)
            if flow is not None:
                flow.stop()
        self.active_flows.clear()

    def _spawn(self) -> None:
        if not self._running:
            return
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        # Positional: ..., total_packets, packet_size, rate_bps.
        flow = TcpFlow(self.sim, self.source.send, self.entry, flow_id,
                       self._flow_packets, self.packet_size, self._flow_rate_bps,
                       on_complete=self._on_flow_complete)
        self.source.flows[flow_id] = flow  # register_flow, minus its frame
        self.active_flows.add(flow_id)
        self.flows_started += 1
        flow.start()
        self.sim.schedule(self._spawn_gap, self._spawn)

    def _on_flow_complete(self, flow: TcpFlow) -> None:
        flow_id = flow.flow_id
        self.active_flows.discard(flow_id)
        self.source.flows.pop(flow_id, None)
        self.destination.sinks.pop(flow_id, None)


class ThroughputMeter:
    """Bins received bytes into fixed intervals, optionally per entry.

    Attach as a host ``rx_tap``; used to regenerate the Figure 10 bandwidth
    time series.
    """

    def __init__(self, sim: Simulator, bin_s: float = 0.1, per_entry: bool = False) -> None:
        self.sim = sim
        self.bin_s = bin_s
        self.per_entry = per_entry
        self.bins: dict[int, float] = {}
        self.entry_bins: dict[Any, dict[int, float]] = {}

    def __call__(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.DATA:
            return
        idx = int(self.sim.now / self.bin_s)
        self.bins[idx] = self.bins.get(idx, 0.0) + packet.size
        if self.per_entry:
            per = self.entry_bins.setdefault(packet.entry, {})
            per[idx] = per.get(idx, 0.0) + packet.size

    def series_bps(self, until: float | None = None) -> list[tuple[float, float]]:
        """Return ``(bin_start_time, throughput_bps)`` points."""
        if not self.bins:
            return []
        last = int((until if until is not None else self.sim.now) / self.bin_s)
        return [
            (i * self.bin_s, self.bins.get(i, 0.0) * 8 / self.bin_s)
            for i in range(0, last + 1)
        ]

    def entry_series_bps(self, entry: Any) -> list[tuple[float, float]]:
        bins = self.entry_bins.get(entry, {})
        if not bins:
            return []
        last = max(bins)
        return [(i * self.bin_s, bins.get(i, 0.0) * 8 / self.bin_s) for i in range(last + 1)]
