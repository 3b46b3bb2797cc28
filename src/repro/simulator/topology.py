"""Ready-made topologies for the evaluation experiments.

The paper's simulations all reduce to traffic crossing one monitored
switch-to-switch link (FANcY works per link).  :class:`TwoSwitchTopology`
builds exactly that:

    source host --- upstream switch A === monitored link === downstream
    switch B --- sink host

with the gray failure injected on the A→B wire.  ACKs travel B→A.
Topologies with more switches — the chains and stars of §4.3 — are
:mod:`repro.fabric` builders.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from .apps import Host
from .engine import Simulator
from .link import Link, connect_duplex
from .packet import Packet
from .switch import Switch

__all__ = ["TwoSwitchTopology"]

# Port conventions for the two-switch topology.
PORT_TO_HOST = 0
PORT_TO_PEER = 1


class TwoSwitchTopology:
    """The canonical evaluation topology.

    Args:
        sim: event engine.
        link_delay_s: monitored-link one-way delay (paper default 10 ms).
        link_bandwidth_bps: monitored-link rate.
        access_delay_s: host-to-switch delay (kept small).
        loss_model: gray failure applied on the A→B direction.
        reverse_loss_model: optional failure on the B→A direction (control
            messages/ACKs), for protocol-resilience experiments.
        tm_queue_packets: TM queue capacity on the switches.
        telemetry: optional :class:`repro.telemetry.Telemetry` threaded
            into both switches and the monitored-link pair (per-port
            tx/drop counters and queue-occupancy signals).
    """

    def __init__(
        self,
        sim: Simulator,
        link_delay_s: float = 0.010,
        link_bandwidth_bps: float | None = 100e9,
        access_delay_s: float = 0.0001,
        loss_model: Callable[[Packet, float], bool] | None = None,
        reverse_loss_model: Callable[[Packet, float], bool] | None = None,
        tm_queue_packets: int | None = 10000,
        telemetry: Any | None = None,
    ) -> None:
        self.sim = sim
        self.source = Host(sim, "src-host")
        self.sink = Host(sim, "dst-host", auto_sink=True)
        self.upstream = Switch(sim, "A", tm_queue_packets=tm_queue_packets,
                               telemetry=telemetry)
        self.downstream = Switch(sim, "B", tm_queue_packets=tm_queue_packets,
                                 telemetry=telemetry)

        connect_duplex(
            sim, self.source, 0, self.upstream, PORT_TO_HOST,
            bandwidth_bps=None, delay_s=access_delay_s,
        )
        self.link_ab, self.link_ba = connect_duplex(
            sim, self.upstream, PORT_TO_PEER, self.downstream, PORT_TO_PEER,
            bandwidth_bps=link_bandwidth_bps, delay_s=link_delay_s,
            loss_model_ab=loss_model, loss_model_ba=reverse_loss_model,
            telemetry=telemetry,
        )
        connect_duplex(
            sim, self.downstream, PORT_TO_HOST, self.sink, 0,
            bandwidth_bps=None, delay_s=access_delay_s,
        )

        # Forward traffic goes toward the sink, reverse (ACKs) to the source.
        self.upstream.set_default_route(PORT_TO_PEER)
        self.downstream.set_default_route(PORT_TO_HOST)

        # Reverse routing: ACKs arrive at B from the sink and must go to A,
        # then from A to the source host.  We route on packet.reverse via
        # ingress hooks rather than growing the routing table.
        self.downstream.add_ingress_hook(PORT_TO_HOST, self._route_reverse_b)
        self.upstream.add_ingress_hook(PORT_TO_PEER, self._route_reverse_a)

    def _route_reverse_b(self, packet: Packet, _in_port: int) -> bool:
        if packet.reverse:
            self.downstream._egress(packet, PORT_TO_PEER)
            return False
        return True

    def _route_reverse_a(self, packet: Packet, _in_port: int) -> bool:
        if packet.reverse:
            self.upstream._egress(packet, PORT_TO_HOST)
            return False
        return True

    @property
    def monitored_link(self) -> Link:
        return self.link_ab
