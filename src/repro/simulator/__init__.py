"""Packet-level discrete-event network simulator.

This package is the reproduction's stand-in for ns-3: an event engine,
links with bandwidth/delay/loss, P4-like switches with ingress/egress hook
points around a traffic manager, a Reno-style TCP, CBR UDP sources, and
ready-made evaluation topologies.

Performance: the dataplane has a reference path and an equivalence-tested
fast path (fused link events, packet pooling, UDP packet trains) governed
by :mod:`repro.simulator.fastpath`; see ``docs/PERFORMANCE.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("fastpath",),
    ".apps": ("FlowGenerator", "Host", "ThroughputMeter"),
    ".engine": ("EventHandle", "SimulationError", "Simulator"),
    ".failures": (
        "CompositeFailure", "ControlPlaneFailure", "EntryLossFailure", "GrayFailure",
        "IntermittentFailure", "PacketPropertyFailure", "UniformLossFailure",
    ),
    ".link": ("Link", "LinkStats", "connect_duplex"),
    ".packet": (
        "FANCY_TAG_BYTES", "MIN_FRAME_BYTES", "POOL", "Packet", "PacketKind",
        "PacketPool",
    ),
    ".switch": ("Node", "Switch"),
    ".tcp": ("DEFAULT_RTO", "TcpFlow", "TcpSink"),
    ".topology": ("ChainTopology", "StarTopology", "TwoSwitchTopology"),
    ".tracing": ("PacketTracer", "TraceEvent"),
    ".udp": ("UdpSource",),
})
