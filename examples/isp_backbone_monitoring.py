#!/usr/bin/env python3
"""ISP backbone monitoring: FANcY on realistic, skewed backbone traffic.

The scenario the paper's introduction motivates: an ISP backbone link
carrying hundreds of prefixes with heavy-tailed (Zipf-like) traffic, hit
by several classes of gray failure from Table 1 at different times:

* t=2 s — a line-card bug blackholes three mid-ranked prefixes;
* t=5 s — a hardware bug drops 5 % of one heavy prefix's packets;
* t=8 s — dirty fiber: 5 % random loss on everything.

FANcY's dedicated counters cover the top prefixes, the hash-based tree
covers the rest, and the failure log tells the operator what went wrong,
where, and when.

Run:
    python examples/isp_backbone_monitoring.py
"""

from __future__ import annotations

from repro import (
    FancyConfig,
    FancyLinkMonitor,
    FlowGenerator,
    HashTreeParams,
    Simulator,
    TwoSwitchTopology,
)
from repro.core.output import FailureKind
from repro.simulator.failures import CompositeFailure, EntryLossFailure, UniformLossFailure
from repro.traffic.caida import CAIDA_TRACES, SyntheticCaidaTrace

N_PREFIXES = 150
N_DEDICATED = 15


def main() -> None:
    sim = Simulator()

    # Synthesize a backbone-trace slice (scaled down to laptop size).
    trace = SyntheticCaidaTrace(CAIDA_TRACES[0], seed=7, n_prefixes=5_000)
    sl = trace.slice(duration_s=12.0, max_prefixes=N_PREFIXES,
                     rate_scale=0.02, min_rate_bps=10e3)
    heavy = sl.prefixes[0]
    mid = list(sl.prefixes[25:28])

    failures = CompositeFailure([
        EntryLossFailure(mid, 1.0, start_time=2.0, seed=1),          # blackhole
        EntryLossFailure({heavy}, 0.05, start_time=5.0, seed=2),     # 5% drops
        UniformLossFailure(0.05, start_time=8.0, seed=3),            # dirty fiber
    ])
    topo = TwoSwitchTopology(sim, loss_model=failures)

    dedicated = list(sl.prefixes[:N_DEDICATED])
    monitor = FancyLinkMonitor(
        sim, topo.upstream, 1, topo.downstream, 1,
        FancyConfig(high_priority=dedicated,
                    tree_params=HashTreeParams(width=24, depth=3, split=2)),
    )

    for i, prefix in enumerate(sl.prefixes):
        FlowGenerator(
            sim, topo.source, prefix,
            rate_bps=sl.rates_bps[prefix],
            flows_per_second=min(sl.flows_per_second[prefix], 30),
            packet_size=sl.packet_size,
            seed=100 + i,
            flow_id_base=(i + 1) * 1_000_000,
            destination=topo.sink,
        ).start()

    monitor.start()
    print(f"replaying {len(sl.prefixes)} prefixes, "
          f"{sl.total_rate_bps / 1e6:.1f} Mbps aggregate "
          f"(top prefix {sl.rates_bps[heavy] / 1e6:.2f} Mbps) ...")
    sim.run(until=12.0)

    print("\n--- FANcY failure log -------------------------------------")
    printed = set()
    for report in monitor.log.reports:
        if report.kind is FailureKind.DEDICATED_ENTRY:
            key = ("ded", report.entry)
            if key in printed:
                continue
            printed.add(key)
            print(f"t={report.time:6.2f}s  [dedicated]  {report.entry}  "
                  f"({report.lost_packets} packets lost in session)")
        elif report.kind is FailureKind.TREE_LEAF:
            print(f"t={report.time:6.2f}s  [hash-tree]  leaf path {report.hash_path}")
        elif report.kind is FailureKind.UNIFORM:
            key = ("uniform", round(report.time, 0))
            if key in printed:
                continue
            printed.add(key)
            print(f"t={report.time:6.2f}s  [uniform]    majority of root "
                  "counters mismatching: link-level random loss")

    print("\n--- operator view -----------------------------------------")
    for label, prefixes in (("blackholed (line card)", mid),
                            ("5% drops (heavy prefix)", [heavy])):
        for p in prefixes:
            rank = sl.prefixes.index(p)
            status = "FLAGGED" if monitor.entry_is_flagged(p) else "missed"
            kind = "dedicated" if p in set(dedicated) else "hash-tree"
            print(f"{label:<26} {p:<18} rank {rank:>3}  via {kind:<9} {status}")
    uniform_hits = len(monitor.log.by_kind(FailureKind.UNIFORM))
    print(f"{'dirty fiber (5% uniform)':<26} all prefixes       "
          f"uniform reports: {uniform_hits}")


if __name__ == "__main__":
    main()
