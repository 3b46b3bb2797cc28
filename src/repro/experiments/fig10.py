"""Experiment fig10 — fine-grained fast rerouting case study (Figure 10).

Reproduces the §6.1 Tofino experiment in simulation on ``ring(3)``: the
FANcY switch ``s0`` reaches ``s1`` directly (the primary path) and
through ``s2`` (the backup), with TCP plus UDP traffic and a "link
switch" dropping 1 %, 10 % or 100 % of packets on ``s0->s1`` from
t = 2 s.  The fabric's reroute controller installs the repair path
``s0 -> s2 -> s1`` as soon as FANcY flags the entry.

Expected shape (paper, Figure 10): goodput dips at t = 2 s and recovers in
under one second — after ≈ one counting-session duration (250 ms there)
for an entry on a dedicated counter, and ≈ 3 × the zooming speed
(3 × 200 ms) for an entry covered by the hash-based tree.  Rates are
scaled down from the testbed's 50 Gbps; recovery timing does not depend
on absolute rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.detector import FancyConfig
from ..core.hashtree import HashTreeParams
from ..fabric.builders import ring
from ..fabric.deployment import FabricDeployment
from ..fabric.graph import FabricNetwork
from ..fabric.reroute import FabricRerouteController
from ..runtime.context import RuntimeContext, resolve
from ..runtime.executor import run_sweep
from ..runtime.jobs import Job, fingerprint
from ..simulator.apps import FlowGenerator, ThroughputMeter
from ..simulator.engine import Simulator
from ..simulator.failures import EntryLossFailure
from ..simulator.udp import UdpSource
from .report import render_series

__all__ = ["Fig10Config", "run_case", "run", "render", "main"]

#: §6.1 parameters: 500 dedicated counters exchanged every 200 ms; tree of
#: depth 3, split 1, width 190 (the Tofino runs it non-pipelined).
CASE_TREE = HashTreeParams(width=190, depth=3, split=1, pipelined=False)

#: Flag-polling period of the reroute controller.  The Tofino reads the
#: flag on every packet; the fabric's 50 ms default would double the
#: dedicated recovery.
POLL_S = 0.001


@dataclass(frozen=True)
class Fig10Config:
    loss_rates: tuple[float, ...] = (0.01, 0.10, 1.00)
    tcp_rate_bps: float = 20e6
    udp_rate_bps: float = 1e6
    flows_per_second: float = 20
    failure_time_s: float = 2.0
    duration_s: float = 5.0
    dedicated_session_s: float = 0.200   # §6.1 uses 200 ms (not the eval's 50 ms)
    tree_session_s: float = 0.200
    bin_s: float = 0.1
    link_delay_s: float = 0.001          # testbed links, not WAN
    seed: int = 0


def _build(config: Fig10Config, loss_rate: float, entry_kind: str) -> dict:
    """One case-study run for an entry on dedicated counters or the tree."""
    sim = Simulator()
    entry = "victim"
    net = FabricNetwork(sim, ring(3), link_delay_s=config.link_delay_s)
    net.add_entry(entry, "s0", "s1")
    net.link("s0", "s1").loss_model = EntryLossFailure(
        {entry}, loss_rate, start_time=config.failure_time_s, seed=config.seed + 1,
        affect_control=False,
    )
    deployment = FabricDeployment(net, FancyConfig(
        high_priority=[entry] if entry_kind == "dedicated" else [],
        tree_params=CASE_TREE if entry_kind == "tree" else None,
        dedicated_session_s=config.dedicated_session_s,
        tree_session_s=config.tree_session_s,
        seed=config.seed,
    ), links=["s0->s1"])
    controller = FabricRerouteController(net, deployment, poll_interval_s=POLL_S)

    meter = ThroughputMeter(sim, bin_s=config.bin_s, per_entry=True)
    net.host("s1").rx_tap = meter

    source = net.host("s0")
    FlowGenerator(
        sim, source, entry,
        rate_bps=config.tcp_rate_bps,
        flows_per_second=config.flows_per_second,
        seed=config.seed + 11,
        flow_id_base=1_000_000,
        destination=net.host("s1"),
    ).start()
    UdpSource(sim, source.send, entry, flow_id=99,
              rate_bps=config.udp_rate_bps).start()
    deployment.start()
    controller.start()
    sim.run(until=config.duration_s)

    reroute_at = controller.reroute_time(entry)
    return {
        "series": meter.entry_series_bps(entry),
        "reroute_time": reroute_at,
        "recovery_delay": (
            None if reroute_at is None else reroute_at - config.failure_time_s
        ),
        # The controller's own sum counts each repair-path hop.
        "rerouted_packets": controller.apps["s0"].rerouted_packets,
    }


def run_case(loss_rate: float, entry_kind: str,
             config: Optional[Fig10Config] = None) -> dict:
    return _build(config or Fig10Config(), loss_rate, entry_kind)


def _case_worker(payload: tuple) -> dict:
    """Top-level (picklable, cache-friendly) wrapper around run_case."""
    loss_rate, entry_kind, config = payload
    return _build(config, loss_rate, entry_kind)


def run(config: Optional[Fig10Config] = None, quick: bool = True,
        runtime: Optional[RuntimeContext] = None) -> dict:
    config = config or Fig10Config()
    loss_rates = config.loss_rates if not quick else config.loss_rates[-2:]
    jobs = [
        Job(
            key=f"{entry_kind}@{loss:g}",
            payload=(loss, entry_kind, config),
            fingerprint=fingerprint("fig10", config, loss, entry_kind),
            sim_s=config.duration_s,
        )
        for entry_kind in ("dedicated", "tree")
        for loss in loss_rates
    ]
    sweep = run_sweep(jobs, _case_worker, runtime=resolve(runtime),
                      label="fig10")
    out: dict[str, dict] = {
        job.key: sweep.results[job.key] for job in jobs if job.key in sweep.results
    }
    return {"cases": out, "config": config, "errors": sweep.errors}


def render(result: dict) -> str:
    config: Fig10Config = result["config"]
    series = {
        name: [(t, bps / 1e6) for t, bps in case["series"]]
        for name, case in result["cases"].items()
    }
    text = render_series(
        "Figure 10 — goodput (Mbps) around the failure at "
        f"t={config.failure_time_s:g}s, with FANcY-driven rerouting",
        series,
        x_label="time (s)",
    )
    lines = [text, "", "recovery delay (failure -> repair path installed):"]
    for name, case in result["cases"].items():
        delay = case["recovery_delay"]
        lines.append(
            f"  {name:<18} {'not rerouted' if delay is None else f'{delay * 1e3:.0f} ms'}"
        )
    return "\n".join(lines)


def main(quick: bool = True, runtime: Optional[RuntimeContext] = None) -> str:
    runtime = resolve(runtime)
    config = Fig10Config()
    if runtime.seed:
        from dataclasses import replace
        config = replace(config, seed=runtime.seed)
    text = render(run(config=config, quick=quick, runtime=runtime))
    print(text)
    return text
