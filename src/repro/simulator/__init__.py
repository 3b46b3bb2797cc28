"""Packet-level discrete-event network simulator.

This package is the reproduction's stand-in for ns-3: an event engine,
links with bandwidth/delay/loss, P4-like switches with ingress/egress hook
points around a traffic manager, a Reno-style TCP, CBR UDP sources, and
ready-made evaluation topologies.

Performance: links run one fused pipeline (one event per uncontended
packet, one per same-instant burst) that telemetry and
:class:`PacketTracer` observe through per-link taps; see
``docs/PERFORMANCE.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".apps": ("FlowGenerator", "Host", "ThroughputMeter"),
    ".engine": ("EventHandle", "SimulationError", "Simulator"),
    ".failures": (
        "CompositeFailure", "ControlPlaneFailure", "EntryLossFailure", "GrayFailure",
        "IntermittentFailure", "PacketPropertyFailure", "UniformLossFailure",
    ),
    ".link": ("Link", "LinkStats", "connect_duplex"),
    ".packet": ("FANCY_TAG_BYTES", "MIN_FRAME_BYTES", "Packet", "PacketKind"),
    ".switch": ("Node", "Switch"),
    ".tcp": ("DEFAULT_RTO", "TcpFlow", "TcpSink"),
    ".topology": ("ChainTopology", "StarTopology", "TwoSwitchTopology"),
    ".tracing": ("PacketTracer", "TraceEvent"),
    ".udp": ("UdpSource",),
})
