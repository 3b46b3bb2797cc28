#!/usr/bin/env python3
"""Quickstart: detect a gray failure on one link in under a minute.

Builds the canonical two-switch topology, starts TCP traffic for a handful
of prefixes, injects a gray failure that silently drops 10 % of one
prefix's packets (the kind of failure BFD and NetFlow never see), and lets
FANcY find it.

Run:
    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    EntryLossFailure,
    FancyConfig,
    FancyLinkMonitor,
    FlowGenerator,
    HashTreeParams,
    Simulator,
    TwoSwitchTopology,
)

PREFIXES = [f"10.{i}.0.0/24" for i in range(8)]
VICTIM = PREFIXES[3]
FAILURE_TIME = 2.0


def main() -> None:
    sim = Simulator()

    # A gray failure: 10 % of the victim prefix's packets silently dropped.
    failure = EntryLossFailure({VICTIM}, loss_rate=0.10,
                               start_time=FAILURE_TIME, seed=1)
    topo = TwoSwitchTopology(sim, loss_model=failure)

    # FANcY on the A->B link: the two heaviest prefixes get dedicated
    # counters, everything else is covered by the hash-based tree.
    config = FancyConfig(
        high_priority=PREFIXES[:2],
        tree_params=HashTreeParams(width=32, depth=3, split=2),
    )
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1, config)

    # 1 Mbps / 10 flows-per-second of TCP traffic per prefix.
    for i, prefix in enumerate(PREFIXES):
        FlowGenerator(sim, topo.source, prefix, rate_bps=1e6,
                      flows_per_second=10, seed=i,
                      flow_id_base=(i + 1) * 1_000_000,
                      destination=topo.sink).start()

    monitor.start()
    sim.run(until=10.0)

    print(f"victim prefix:        {VICTIM}")
    print(f"failure injected at:  t={FAILURE_TIME:.1f}s (10% silent loss)")
    print(f"reports raised:       {len(monitor.log)}")
    first = monitor.log.first_report()
    if first is not None:
        print(f"first detection at:   t={first.time:.2f}s "
              f"({first.time - FAILURE_TIME:.2f}s after onset)")
    print(f"victim flagged:       {monitor.entry_is_flagged(VICTIM)}")
    innocents = [p for p in PREFIXES if p != VICTIM and monitor.entry_is_flagged(p)]
    print(f"false positives:      {innocents or 'none'}")


if __name__ == "__main__":
    main()
