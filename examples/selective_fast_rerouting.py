#!/usr/bin/env python3
"""Selective fast rerouting (the §6.1 case study, Figure 10).

Three switches in a ring: ``s0`` reaches ``s1`` directly (the primary
path) and through ``s2`` (the backup).  At t=2 s, the primary path
starts silently dropping 10 % of one prefix's packets.  FANcY detects
the mismatching counters, flags the entry, and the reroute controller
installs a repair path for *only that prefix* — in well under a second,
while every other prefix stays on the primary.

Run:
    python examples/selective_fast_rerouting.py
"""

from __future__ import annotations

from repro import FancyConfig, FlowGenerator, Simulator, UdpSource
from repro.fabric import (
    FabricDeployment,
    FabricNetwork,
    FabricRerouteController,
    ring,
)
from repro.simulator.apps import ThroughputMeter
from repro.simulator.failures import EntryLossFailure

VICTIM, INNOCENT = "203.0.113.0/24", "198.51.100.0/24"
FAILURE_TIME = 2.0


def main() -> None:
    sim = Simulator()
    net = FabricNetwork(sim, ring(3), link_delay_s=1e-3)
    for prefix in (VICTIM, INNOCENT):
        net.add_entry(prefix, "s0", "s1")
    net.link("s0", "s1").loss_model = EntryLossFailure(
        {VICTIM}, 0.10, start_time=FAILURE_TIME, seed=1)

    deployment = FabricDeployment(
        net,
        FancyConfig(high_priority=[VICTIM, INNOCENT], tree_params=None,
                    dedicated_session_s=0.200),
        links=["s0->s1"],
    )
    # Poll the flags every millisecond, close to the switch's per-packet read.
    controller = FabricRerouteController(net, deployment, poll_interval_s=0.001)

    meter = ThroughputMeter(sim, bin_s=0.25, per_entry=True)
    net.host("s1").rx_tap = meter

    source = net.host("s0")
    for i, prefix in enumerate((VICTIM, INNOCENT)):
        FlowGenerator(sim, source, prefix, rate_bps=4e6, flows_per_second=20,
                      seed=i, flow_id_base=(i + 1) * 1_000_000,
                      destination=net.host("s1")).start()
    UdpSource(sim, source.send, VICTIM, flow_id=999, rate_bps=0.2e6).start()

    deployment.start()
    controller.start()
    sim.run(until=6.0)

    reroute_at = controller.reroute_time(VICTIM)
    print(f"failure on primary path s0->s1 at t={FAILURE_TIME:.1f}s "
          f"(10% loss on {VICTIM})")
    if reroute_at is not None:
        print(f"rerouted to backup s0->s2->s1 at t={reroute_at:.2f}s "
              f"-> recovery in {(reroute_at - FAILURE_TIME) * 1e3:.0f} ms")
    print(f"packets rerouted at s0: {controller.apps['s0'].rerouted_packets} "
          f"(victim prefix only: innocent rerouted = "
          f"{controller.reroute_time(INNOCENT) is not None})")

    print("\ngoodput (Mbps) per 250 ms bin:")
    print(f"{'t':>6}  {'victim':>8}  {'innocent':>9}")
    victim_series = dict(meter.entry_series_bps(VICTIM))
    innocent_series = dict(meter.entry_series_bps(INNOCENT))
    for i in range(int(6.0 / 0.25)):
        t = i * 0.25
        v = victim_series.get(t, 0.0) / 1e6
        n = innocent_series.get(t, 0.0) / 1e6
        marker = "  <- failure" if abs(t - FAILURE_TIME) < 0.125 else ""
        print(f"{t:6.2f}  {v:8.2f}  {n:9.2f}{marker}")


if __name__ == "__main__":
    main()
