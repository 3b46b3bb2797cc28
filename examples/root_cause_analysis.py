#!/usr/bin/env python3
"""Root-cause analysis with dynamic entries and generalized state sync.

The paper's interface explicitly supports applications beyond prefix
monitoring (§1: "future applications can dynamically define the entries
monitored by FANcY, for example, for root cause analyses — e.g., to
assess losses per packet size or per value of specific IP fields").

This example plays an operator drilling into a mystery failure:

1. prefix-level FANcY flags a prefix, but *which* packets are dying?
2. a second FANcY instance with a **packet-size classifier** localizes
   the loss to one size class — the Table 1 "drops random sized L2TPv3
   packets" bug signature;
3. a **signature-sync** instance (the §4.2 arbitrary-state extension)
   shows that a second, sneakier device bug corrupts packets *without
   dropping them* — packet counts agree, content signatures do not.

Run:
    python examples/root_cause_analysis.py
"""

from __future__ import annotations

from repro import FancyConfig, FancyLinkMonitor, FlowGenerator, Simulator
from repro.baselines.simple import StrategyLinkMonitor
from repro.core.classify import by_packet_size
from repro.core.statesync import ValueSyncReceiver, ValueSyncSender, payload_signature
from repro.simulator.failures import PacketPropertyFailure
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.topology import TwoSwitchTopology

PREFIX = "203.0.113.0/24"
SIZE_BINS = (128, 512, 1500)


class CorruptingWire:
    """A Table 1-style memory-corruption bug: packets pass, contents don't."""

    def __init__(self, start_time: float, every_nth: int = 7):
        self.start_time = start_time
        self.every_nth = every_nth
        self.seen = 0
        self.corrupted = 0

    def __call__(self, packet: Packet, now: float) -> bool:
        if now >= self.start_time and packet.kind is PacketKind.DATA:
            self.seen += 1
            if self.seen % self.every_nth == 0:
                packet.seq ^= 0xE000  # mangle a header field in flight
                self.corrupted += 1
        return False  # never drops


def run_with_monitor(config: FancyConfig) -> FancyLinkMonitor:
    """One simulation run of the buggy link under a given monitor config.

    Packets carry a single FANcY tag, so each monitoring view (prefix vs.
    size class) runs as its own deployment — re-configuring the monitor is
    exactly what the paper's dynamic-entries interface is for.
    """
    sim = Simulator()
    # The bug: only small packets (<=128 B) are dropped.
    failure = PacketPropertyFailure(
        lambda p: p.entry == PREFIX and p.size <= 128, 0.9,
        start_time=1.0, seed=1,
    )
    topo = TwoSwitchTopology(sim, loss_model=failure)
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1, config)
    # The prefix carries a mix of small (telemetry-like) and full packets.
    FlowGenerator(sim, topo.source, PREFIX, rate_bps=200e3, flows_per_second=10,
                  packet_size=96, seed=1, destination=topo.sink).start()
    FlowGenerator(sim, topo.source, PREFIX, rate_bps=2e6, flows_per_second=10,
                  packet_size=1500, seed=2, flow_id_base=10_000_000,
                  destination=topo.sink).start()
    monitor.start()
    sim.run(until=5.0)
    return monitor


def stage_one_and_two() -> None:
    print("== stage 1+2: which packets of the prefix are dying? ==")
    prefix_monitor = run_with_monitor(
        FancyConfig(high_priority=[PREFIX], tree_params=None))
    size_monitor = run_with_monitor(
        FancyConfig(high_priority=[f"size<={b}" for b in SIZE_BINS],
                    tree_params=None,
                    classifier=by_packet_size(bins=SIZE_BINS)))

    print(f"prefix view:  {PREFIX} flagged = "
          f"{prefix_monitor.entry_is_flagged(PREFIX)}")
    for b in SIZE_BINS:
        flagged = size_monitor.entry_is_flagged(f"size<={b}")
        print(f"size view:    size<={b:<5} flagged = {flagged}")
    print("-> root cause narrowed to the small-packet path "
          "(Table 1: 'drops random sized packets')\n")


def stage_three() -> None:
    print("== stage 3: counts agree, but is the content intact? ==")

    def corrupted_run(use_signature: bool):
        sim = Simulator()
        wire = CorruptingWire(start_time=1.0)
        topo = TwoSwitchTopology(sim, loss_model=wire)
        if use_signature:
            # Signature sync: arbitrary state over the same FSMs (§4.2).
            sig = payload_signature()
            sender = ValueSyncSender([PREFIX], reducer=sig, signed=True)
            monitor = StrategyLinkMonitor(
                sim, topo.upstream, 1, topo.downstream, 1,
                sender, ValueSyncReceiver(1, reducer=sig), fsm_id="sigsync",
            )
            flagged = lambda: bool(sender.flagged_entries)
        else:
            monitor = FancyLinkMonitor(
                sim, topo.upstream, 1, topo.downstream, 1,
                FancyConfig(high_priority=[PREFIX], tree_params=None),
            )
            flagged = lambda: monitor.entry_is_flagged(PREFIX)
        FlowGenerator(sim, topo.source, PREFIX, rate_bps=1e6,
                      flows_per_second=10, seed=3, destination=topo.sink).start()
        monitor.start()
        sim.run(until=5.0)
        return wire.corrupted, flagged()

    corrupted, count_flags = corrupted_run(use_signature=False)
    _, sig_flags = corrupted_run(use_signature=True)
    print(f"packets corrupted in flight: {corrupted}")
    print(f"packet-count FANcY flags:    {count_flags}"
          "   (counts match: corruption is invisible)")
    print(f"signature-sync flags:        {sig_flags}"
          "   (content mismatch caught)")


if __name__ == "__main__":
    stage_one_and_two()
    stage_three()
