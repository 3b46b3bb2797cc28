#!/usr/bin/env python3
"""Full deployment: per-hop localization across a backbone path (§4.3).

The counterpart to ``partial_deployment.py``: FANcY at *every* switch of
a 5-switch path, one monitor per link.  The same mid-path gray failure
that a partial deployment could only place "somewhere on the path" is now
pinpointed to the exact link — and the operator's aggregated view shows
exactly one alarming port.

Run:
    python examples/full_deployment.py
"""

from __future__ import annotations

from collections import Counter

from repro import FancyConfig, FlowGenerator, HashTreeParams, Simulator
from repro.fabric import FabricDeployment, FabricNetwork, line
from repro.simulator.failures import EntryLossFailure

PREFIXES = [f"172.16.{i}.0/24" for i in range(6)]
VICTIM = PREFIXES[2]
FAILURE_HOP = ("s2", "s3")


def main() -> None:
    sim = Simulator()
    net = FabricNetwork(sim, line(5), link_delay_s=0.005)
    net.link(*FAILURE_HOP).loss_model = EntryLossFailure(
        {VICTIM}, 0.3, start_time=1.5, seed=1)
    for prefix in PREFIXES:
        net.add_entry(prefix, "s0", "s4")

    path = list(net.switches)
    deployment = FabricDeployment(
        net,
        config=FancyConfig(
            high_priority=PREFIXES[:3],
            tree_params=HashTreeParams(width=32, depth=3, split=2),
        ),
        links=list(zip(path, path[1:])),
    )

    for i, prefix in enumerate(PREFIXES):
        FlowGenerator(sim, net.host("s0"), prefix, rate_bps=1e6,
                      flows_per_second=10, seed=i,
                      flow_id_base=(i + 1) * 1_000_000).start()

    deployment.start(stagger_s=0.005)
    sim.run(until=8.0)

    print(f"path: {' -> '.join(path)}   (FANcY on every link)")
    print(f"failure: 30% loss on {VICTIM} between "
          f"{FAILURE_HOP[0]} and {FAILURE_HOP[1]}, from t=1.5s\n")

    records = deployment.detection_records()
    per_link = Counter(link_id for link_id, *_ in records)
    print("per-link monitor status:")
    for link_id in deployment.monitors:
        reports = per_link[link_id]
        status = f"{reports} reports" if reports else "clean"
        print(f"  {link_id:<14} {status}")

    flagged_links = [link_id for link_id, entries in deployment.flagged().items()
                     if VICTIM in entries]
    print(f"\nlocalization for {VICTIM}: {flagged_links}")
    print("-> unlike the partial deployment, the operator knows the exact "
          "switch port to drain.")

    if records:
        link_id, _kind, _entry, time, _session = min(records, key=lambda r: r[3])
        print(f"\nfirst report: t={time:.2f}s on {link_id} "
              f"({time - 1.5:.2f}s after onset)")


if __name__ == "__main__":
    main()
