"""FANcY — fast in-network gray failure detection for ISPs.

A full-system Python reproduction of "FAst In-Network GraY Failure
Detection for ISPs" (Costa Molero, Vissicchio, Vanbever — SIGCOMM 2022):
the counting protocol and its FSMs, dedicated counters, hash-based trees
with the zooming algorithm, a packet-level network simulator standing in
for ns-3, baselines (Loss Radar, NetSeer, Blink, simple counter designs),
a Tofino resource model, and the complete experiment harness regenerating
every table and figure of the paper's evaluation.

Quickstart::

    from repro import (
        Simulator, TwoSwitchTopology, EntryLossFailure,
        FancyConfig, FancyLinkMonitor, FlowGenerator,
    )

    sim = Simulator()
    failure = EntryLossFailure({"10.0.0.0/8"}, loss_rate=0.1, start_time=2.0)
    topo = TwoSwitchTopology(sim, loss_model=failure)
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                               FancyConfig(high_priority=["10.0.0.0/8"]))
    gen = FlowGenerator(sim, topo.source, "10.0.0.0/8",
                        rate_bps=1e6, flows_per_second=10)
    monitor.start()
    gen.start()
    sim.run(until=10.0)
    print(monitor.log.reports)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core.bloom": ("BloomFilter", "CountingBloomFilter"),
    ".core.congestion": ("QueueGuard",),
    ".core.detector": ("FancyConfig", "FancyLinkMonitor"),
    ".core.entries": ("MonitoringInput",),
    ".core.hashtree": ("HashTree", "HashTreeParams"),
    ".core.latency": ("LatencyModel",),
    ".core.memory": ("MemoryBudgetError", "MemoryPlan", "plan_memory"),
    ".core.output": ("FailureKind", "FailureLog", "FailureReport"),
    ".simulator.apps": ("FlowGenerator", "Host", "ThroughputMeter"),
    ".simulator.engine": ("Simulator",),
    ".simulator.failures": ("EntryLossFailure", "UniformLossFailure"),
    ".simulator.link": ("Link",),
    ".simulator.packet": ("Packet", "PacketKind"),
    ".simulator.switch": ("Switch",),
    ".simulator.topology": ("TwoSwitchTopology",),
    ".simulator.udp": ("UdpSource",),
})
__all__.append("__version__")
