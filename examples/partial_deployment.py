#!/usr/bin/env python3
"""Partial deployment: FANcY between non-adjacent switches (§4.3).

An ISP rolling FANcY out incrementally can deploy it only at border
switches: the counting sessions then run end-to-end across legacy
switches.  Failures anywhere on the path are detected (though not
pinpointed to a hop).  This example builds a 5-switch line with FANcY
only at the two ends and a gray failure in the middle.

Run:
    python examples/partial_deployment.py
"""

from __future__ import annotations

from repro import FancyConfig, FancyLinkMonitor, FlowGenerator, Simulator
from repro.core.hashtree import HashTreeParams
from repro.fabric import FabricNetwork, line
from repro.simulator.failures import EntryLossFailure

PREFIXES = [f"172.16.{i}.0/24" for i in range(6)]
VICTIM = PREFIXES[2]
FAILURE_HOP = ("s2", "s3")  # two hops away from either monitor


def main() -> None:
    sim = Simulator()
    net = FabricNetwork(sim, line(5), link_delay_s=0.005)
    net.link(*FAILURE_HOP).loss_model = EntryLossFailure(
        {VICTIM}, 0.3, start_time=1.5, seed=1)
    for prefix in PREFIXES:
        net.add_entry(prefix, "s0", "s4")
    # Control messages carry no entry: this route carries Start/Stop
    # forward and Reports back across the legacy switches s1..s3.
    net.add_entry(None, "s0", "s4")

    # FANcY only at the first and last switch of the path.
    monitor = FancyLinkMonitor(
        sim, net.switch("s0"), net.port_to("s0", "s1"),
        net.switch("s4"), net.port_to("s4", "s3"),
        FancyConfig(high_priority=PREFIXES[:2],
                    tree_params=HashTreeParams(width=32, depth=3, split=2)),
    )

    for i, prefix in enumerate(PREFIXES):
        FlowGenerator(sim, net.host("s0"), prefix, rate_bps=1e6,
                      flows_per_second=10, seed=i,
                      flow_id_base=(i + 1) * 1_000_000,
                      destination=net.host("s4")).start()

    monitor.start()
    sim.run(until=8.0)

    print(f"path: {' -> '.join(net.switches)}   (FANcY only at s0 and s4)")
    print(f"failure: 30% loss on {VICTIM} between "
          f"{FAILURE_HOP[0]} and {FAILURE_HOP[1]}, from t=1.5s")
    first = monitor.log.first_report()
    if first is not None:
        print(f"detected at t={first.time:.2f}s "
              f"({first.time - 1.5:.2f}s after onset)")
    print(f"victim flagged: {monitor.entry_is_flagged(VICTIM)}")
    print("localization:   somewhere on the monitored path "
          "(per-hop pinpointing needs per-link deployment, §4.3)")


if __name__ == "__main__":
    main()
