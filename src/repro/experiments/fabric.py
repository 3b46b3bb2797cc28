"""Experiment fabric — network-wide FANcY with detection→reroute loop.

Scales the paper's Figure 10 case study from one monitored link to a
fabric (docs/FABRIC.md):

* **ring** — a six-switch ring with FANcY on every directed link.  A
  gray failure hits one link on a victim entry's path; the fabric
  controller installs a loop-free repair path and the victim's goodput
  recovers, while an innocent entry sharing the path is never touched —
  the single-link Figure 10 contract, reproduced through the generic
  fabric machinery.
* **fat_tree** — a k=4 fat tree with FANcY on all 64 directed links
  (≥ 32 concurrent counting sessions).  A failure on one link of a
  flow's ECMP path must be flagged by *exactly* that link's monitor
  (per-link attribution), rerouted around, and the whole run must be
  deterministic: the per-link detection records are a pure function of
  the seed.

Both cases report detection latency (failure → first flag), reroute
latency (failure → repair path installed) and the recovered goodput
fraction, the fabric analogue of Figure 10's recovery plot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from ..core.detector import FancyConfig
from ..fabric.builders import fat_tree, ring
from ..fabric.deployment import FabricDeployment
from ..fabric.graph import FabricNetwork
from ..runtime.context import RuntimeContext, resolve
from ..runtime.jobs import Job, fingerprint, stable_seed
from ..simulator.apps import ThroughputMeter
from ..simulator.engine import Simulator
from ..simulator.failures import EntryLossFailure
from ..simulator.udp import UdpSource

__all__ = ["FabricExpConfig", "run_ring_case", "run_fat_tree_case", "run",
           "run_sharded", "render", "main"]

#: Background flows get ids far above the high-priority range so the two
#: namespaces can never collide in flowlet hashing or fluid bindings.
_BG_FLOW_BASE = 1000


@dataclass(frozen=True)
class FabricExpConfig:
    ring_size: int = 6
    fat_tree_k: int = 4
    n_entries: int = 4               #: fat-tree entries (one per pod pair)
    rate_bps: float = 640_000.0
    packet_size: int = 400
    failure_time_s: float = 1.0
    loss_rate: float = 1.0
    duration_s: float = 4.0
    fat_tree_duration_s: float = 2.5
    poll_interval_s: float = 0.050
    dedicated_session_s: float = 0.050
    link_delay_s: float = 0.010
    bin_s: float = 0.1
    seed: int = 0
    #: Record causal detection traces (repro.obs).  Part of the frozen
    #: config on purpose: it changes the result payload, so it must
    #: change the content-addressed cache fingerprint too.
    trace: bool = False
    #: Hybrid fluid/packet mode (docs/PERFORMANCE.md): background
    #: entries become piecewise-constant rate segments absorbed into the
    #: counters at counting-window boundaries instead of per-packet
    #: events.  High-priority entries always stay discrete — they drive
    #: detection, reroute and goodput metering.
    fluid: bool = False
    #: Best-effort entries sharing the high-priority endpoints — the
    #: traffic the fluid model absorbs (and the discrete engine pays
    #: for, one event per packet per hop).
    background_entries: int = 0
    background_rate_bps: float = 4_000_000.0
    background_packet_size: int = 400
    #: Deploy the default hash tree on every monitor so background
    #: entries are actually counted (zoomed over) rather than merely
    #: forwarded.
    tree: bool = False


def _mean_bps(series: list[tuple[float, float]], lo: float, hi: float) -> float:
    window = [bps for t, bps in series if lo <= t < hi]
    return sum(window) / len(window) if window else 0.0


def _scenario(case: str, config: FabricExpConfig, links: Optional[list[str]],
              telemetry: Any) -> tuple[FabricDeployment, dict[str, Any]]:
    """Build ``case``'s net, entries, monitors and planned failure.

    ``links=None`` monitors every directed link (the closed loop); a
    probe passes its one link.  The planned failure and its detection
    episode are installed either way, so every probe observes the same
    fabric as the closed loop.  Returns the deployment (its ``net`` is
    the scenario's) and the case plan, extended with ``background``.
    """
    net = _build_net(case, config)
    plan = _case_plan(case, config, net)
    entries = plan["entries"]
    pairs = list(entries.values())
    plan["background"] = {f"bg/{j}": pairs[j % len(pairs)]
                          for j in range(config.background_entries)}
    for entry, (src, dst) in plan["background"].items():
        net.add_entry(entry, src, dst)

    fancy = FancyConfig(
        high_priority=list(entries),
        dedicated_session_s=config.dedicated_session_s,
        seed=stable_seed(config.seed, "fabric-exp", bits=31),
    )
    if not config.tree:
        # Dedicated counters only: 64 cheap sessions.
        fancy = replace(fancy, tree_params=None)
    deployment = FabricDeployment(net, config=fancy, links=links,
                                  telemetry=telemetry)

    failed_link, victim = plan["failed_link"], plan["victim"]
    net.links[failed_link].loss_model = EntryLossFailure(
        {victim}, config.loss_rate, start_time=config.failure_time_s,
        seed=stable_seed(config.seed, "failure", failed_link, bits=31),
    )
    if telemetry is not None and failed_link in deployment.monitors:
        # The experiment harness is the root cause here: open the failed
        # link's detection episode exactly when the loss model activates,
        # and log the injection on that fork's timeline.
        fork = deployment.monitors[failed_link].telemetry
        sim = net.sim

        def _mark_failure() -> None:
            fork.timeline.record(sim.now, failed_link, "failure_injected",
                                 entry=victim)
            fork.traces.begin_episode(
                sim.now, cause="fault", name="entry_loss", link=failed_link,
                entry=victim, rate=config.loss_rate)

        sim.schedule_at(config.failure_time_s, _mark_failure)
    return deployment, plan


def _start_traffic(config: FabricExpConfig, deployment: FabricDeployment,
                   plan: dict[str, Any], loss_seeds: dict[str, int],
                   only_link: Optional[str] = None) -> Any:
    """Start the scenario's flows; returns the fluid engine, or None.

    High-priority entries are always discrete — they drive detection,
    reroute and goodput metering.  Background entries become fluid
    flows bound per monitor (:meth:`FabricDeployment.bind_fluid`, loss
    seeds from ``loss_seeds``) when ``config.fluid`` is set, else
    discrete UDP with the same parameters and seeds.  A probe passes
    ``only_link`` to start just the discrete flows that cross its link.
    """
    net = deployment.net
    flows = [(entry, i, config.rate_bps, config.packet_size,
              stable_seed(config.seed, "src", i), 0.001 * i)
             for i, entry in enumerate(plan["entries"])]
    background = [(entry, _BG_FLOW_BASE + j, config.background_rate_bps,
                   config.background_packet_size,
                   stable_seed(config.seed, "bg", j), 0.0005 * (j + 1))
                  for j, entry in enumerate(plan["background"])]
    fluid = bool(background) and config.fluid
    for entry, flow_id, rate, size, seed, delay in (
            flows if fluid else flows + background):
        if only_link is None or net.delay_legs(
                entry, flow_id, only_link, size) is not None:
            UdpSource(
                net.sim, net.host(net.entry_src[entry]).send, entry,
                flow_id=flow_id, rate_bps=rate, packet_size=size,
                jitter=0.1, seed=seed,
            ).start(delay=delay)
    if not fluid:
        return None
    from ..simulator.fluid import FluidFlow, FluidTraffic

    engine = FluidTraffic(net.sim)
    for entry, flow_id, rate, size, seed, delay in background:
        engine.add_flow(FluidFlow(
            entry=entry, flow_id=flow_id, rate_bps=rate, packet_size=size,
            jitter=0.1, seed=seed, start_s=delay,
        ))
    deployment.bind_fluid(engine, loss_seeds)
    return engine


def _close_the_loop(case: str, config: FabricExpConfig,
                    telemetry: Any) -> dict[str, Any]:
    """Shared closed-loop body: monitors everywhere, one failure, reroute."""
    from ..fabric.reroute import FabricRerouteController

    deployment, plan = _scenario(case, config, None, telemetry)
    net = deployment.net
    sim = net.sim
    entries, victim = plan["entries"], plan["victim"]
    failed_link, duration_s = plan["failed_link"], plan["duration_s"]
    controller = FabricRerouteController(
        net, deployment, poll_interval_s=config.poll_interval_s)

    meters: dict[str, ThroughputMeter] = {}
    for entry, (src, dst) in entries.items():
        if dst not in meters:
            meters[dst] = ThroughputMeter(sim, bin_s=config.bin_s,
                                          per_entry=True)
            net.host(dst).rx_tap = meters[dst]
    fluid_engine = _start_traffic(config, deployment, plan, {
        link_id: stable_seed(config.seed, "fluid-loss", link_id, bits=31)
        for link_id in deployment.monitors})

    deployment.start(stagger_s=0.001)
    controller.start()
    sim.run(until=duration_s)

    victim_dst = entries[victim][1]
    series = meters[victim_dst].entry_series_bps(victim)
    detect_at = deployment.monitors[failed_link].first_flag_time(victim)
    reroute_at = controller.reroute_times.get((failed_link, victim))
    pre = _mean_bps(series, 0.3, config.failure_time_s)
    post = (0.0 if reroute_at is None else
            _mean_bps(series, reroute_at + 0.3, duration_s))
    flagged = deployment.flagged()
    obs: dict[str, Any] | None = None
    if telemetry is not None:
        from ..obs.health import FabricHealthReport

        spans: list[dict[str, Any]] = []
        for monitor in deployment.monitors.values():
            traces = monitor.telemetry.traces
            traces.finalize(sim.now)
            spans.extend(traces.span_dicts())
        health = FabricHealthReport.from_deployment(
            deployment, controller=controller, sim_time=sim.now)
        obs = {"health": health.to_dict(), "spans": spans}
    return {
        "n_sessions": deployment.n_sessions,
        "failed_link": failed_link,
        "victim": victim,
        "detection_delay": (None if detect_at is None
                            else detect_at - config.failure_time_s),
        "reroute_delay": (None if reroute_at is None
                          else reroute_at - config.failure_time_s),
        "recovery_fraction": (post / pre) if pre > 0 else None,
        "rerouted_packets": controller.rerouted_packets,
        "flagged_links": {lid: [repr(e) for e in ents]
                          for lid, ents in flagged.items()},
        "attribution_correct": list(flagged) == [failed_link]
        and all(list(ents) == [victim] for ents in flagged.values()),
        "sessions_completed_min": min(
            deployment.sessions_completed().values()),
        "detections": deployment.detection_records(),
        "events_processed": sim.events_processed,
        "fluid_absorbed": fluid_engine.absorbed if fluid_engine else 0,
        "fluid_lost": fluid_engine.lost if fluid_engine else 0,
        "obs": obs,
    }


def _build_net(case: str, config: FabricExpConfig) -> FabricNetwork:
    """A fresh case network on a fresh simulator."""
    topo = (ring(config.ring_size) if case == "ring"
            else fat_tree(config.fat_tree_k))
    return FabricNetwork(Simulator(), topo, link_delay_s=config.link_delay_s)


def _case_plan(case: str, config: FabricExpConfig,
               net: Optional[FabricNetwork] = None) -> dict[str, Any]:
    """Entries / victim / failed link for a case.

    Adds the high-priority entries to ``net`` — the scenario's own
    network when :func:`_scenario` calls, a throwaway one otherwise —
    and reads the failed link off the victim's path there, so the
    closed-loop runners and the sharded per-link probes observe the
    *same* fabric scenario for a given config.
    """
    if net is None:
        net = _build_net(case, config)
    if case == "ring":
        # The innocent entry shares the victim's path.
        entries = {"victim": ("s0", "s2"), "innocent": ("s0", "s2")}
        victim, duration_s = "victim", config.duration_s
    else:
        k = config.fat_tree_k
        entries = {f"hp/{i}": (f"edge{i % k}-0", f"edge{(i + 1) % k}-1")
                   for i in range(config.n_entries)}
        victim, duration_s = "hp/0", config.fat_tree_duration_s
    for entry, (src, dst) in entries.items():
        net.add_entry(entry, src, dst)
    # Fail the second hop of the victim flow's actual path: s1->s2 on the
    # ring (s0 → s2 has a unique two-hop shortest path), aggregation →
    # core on the fat tree's ECMP path, so exactly one core-facing
    # monitor must flag it.
    path = net.flow_path(victim, flow_id=0)
    return {
        "entries": entries,
        "victim": victim,
        "failed_link": net.link_id(path[1], path[2]),
        "duration_s": duration_s,
    }


def run_ring_case(config: Optional[FabricExpConfig] = None,
                  telemetry: Any = None) -> dict[str, Any]:
    """Ring closed loop: failure on the victim path, Figure 10 contract."""
    return _close_the_loop("ring", config or FabricExpConfig(), telemetry)


def run_fat_tree_case(config: Optional[FabricExpConfig] = None,
                      telemetry: Any = None) -> dict[str, Any]:
    """Fat-tree closed loop: ≥32 concurrent sessions, per-link attribution."""
    return _close_the_loop("fat_tree", config or FabricExpConfig(), telemetry)


def _case_worker(payload: tuple) -> dict[str, Any]:
    """Top-level (picklable, cache-friendly) case dispatcher."""
    case, config = payload
    telemetry = None
    if config.trace:
        from ..telemetry.session import Telemetry

        telemetry = Telemetry(scope=case)
    runner = run_ring_case if case == "ring" else run_fat_tree_case
    return runner(config, telemetry=telemetry)


def run(config: Optional[FabricExpConfig] = None, quick: bool = True,
        runtime: Optional[RuntimeContext] = None,
        cases: tuple[str, ...] = ("ring", "fat_tree")) -> dict:
    from ..runtime.executor import run_sweep

    config = config or FabricExpConfig()
    if quick:
        config = replace(config, duration_s=3.0, fat_tree_duration_s=2.0)
    jobs = [
        Job(
            key=case,
            payload=(case, config),
            fingerprint=fingerprint("fabric", config, case),
            sim_s=(config.duration_s if case == "ring"
                   else config.fat_tree_duration_s),
        )
        for case in cases
    ]
    sweep = run_sweep(jobs, _case_worker, runtime=resolve(runtime),
                      label="fabric")
    cases = {job.key: sweep.results[job.key] for job in jobs
             if job.key in sweep.results}
    return {"cases": cases, "config": config, "errors": sweep.errors}


# --------------------------------------------------------------------------
# sharded execution: per-link probes across worker processes
# --------------------------------------------------------------------------


def _link_probe(case: str, config: FabricExpConfig, link_id: str,
                link_seed: int) -> dict[str, Any]:
    """One link's detection probe — a pure function of (config, case, link).

    The sharding unit (docs/FABRIC.md): the closed loop's scenario with a
    monitor on one link, running only the flows whose ECMP path crosses
    it.  Detection-focused by design — no reroute controller, no goodput
    meters.  Nothing in here depends on which shard (or how many shards)
    the probe runs under: that is the ``--shards 1/2/4`` byte-equality
    contract.
    """
    from ..fabric.sharding import probe_payload
    from ..telemetry.session import Telemetry

    deployment, plan = _scenario(case, config, [link_id],
                                 Telemetry(scope=link_id))
    fluid = _start_traffic(config, deployment, plan, {link_id: link_seed},
                           only_link=link_id)
    # Stagger by the link's position in the full deployment order, so a
    # probe's session boundaries match the link's in an unsharded run.
    net = deployment.net
    pos = net.directed_link_ids().index(link_id)
    deployment.monitors[link_id].start(delay=pos * 0.001)
    net.sim.run(until=plan["duration_s"])
    return probe_payload(deployment, fluid)


class _ShardedRun(dict):
    """:func:`run_sharded`'s merged result, with the trace kept packed.

    ``"trace_parts"`` holds each link's packed trace chunks, as the merge
    returned them; ``result["trace_jsonl"]`` decodes all of them into one
    text on each access.  Only item access does: ``in``, ``get`` and
    ``keys()`` see the stored keys alone.
    """

    def __missing__(self, key: str) -> str:
        if key == "trace_jsonl":
            from ..fabric.sharding import trace_text

            return trace_text(self["trace_parts"])
        raise KeyError(key)


def run_sharded(config: Optional[FabricExpConfig] = None,
                case: str = "ring", shards: int = 1,
                runtime: Optional[RuntimeContext] = None,
                quick: bool = True) -> dict[str, Any]:
    """Detection-focused fabric run, sharded across worker processes.

    One per-link probe simulation per directed link of the case, batched
    into ``shards`` worker jobs by :func:`~repro.fabric.sharding.
    run_link_probes` and merged deterministically — the merged detection
    records, Prometheus text and trace JSONL are byte-identical for any
    shard/worker count.  The trace stays as the merge's packed
    ``trace_parts``; ``result["trace_jsonl"]`` decodes it on each access
    (``_ShardedRun``).
    """
    from ..fabric.sharding import run_link_probes

    config = config or FabricExpConfig()
    if quick:
        config = replace(config, duration_s=3.0, fat_tree_duration_s=2.0)
    merged, _per_link = run_link_probes(
        _link_probe, (case, config),
        _build_net(case, config).directed_link_ids(), shards, config.seed,
        f"fabric-shard[{case}]",
        config.duration_s if case == "ring" else config.fat_tree_duration_s,
        runtime)
    result = _ShardedRun(merged)
    result["case"] = case
    return result


def _fmt_delay(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value * 1e3:.0f} ms"


def render(result: dict) -> str:
    lines = [
        "Fabric closed loop — gray failure -> FANcY flag -> selective reroute",
        "",
        f"{'case':<10} {'sessions':>8} {'detect':>8} {'reroute':>8} "
        f"{'recovered':>10}  failed link",
    ]
    for case, data in result["cases"].items():
        frac = data["recovery_fraction"]
        lines.append(
            f"{case:<10} {data['n_sessions']:>8} "
            f"{_fmt_delay(data['detection_delay']):>8} "
            f"{_fmt_delay(data['reroute_delay']):>8} "
            f"{'n/a' if frac is None else f'{frac * 100:.0f} %':>10}  "
            f"{data['failed_link']}"
            f"{'' if data['attribution_correct'] else '  [MISATTRIBUTED]'}"
        )
    lines.append("")
    lines.append("(recovered = victim goodput after reroute / before failure; "
                 "paper Fig. 10: sub-second recovery)")
    for case, data in result["cases"].items():
        if data.get("fluid_absorbed"):
            lines.append(
                f"{case}: fluid model absorbed {data['fluid_absorbed']} "
                f"packet emissions (engine processed "
                f"{data['events_processed']} events)")
    for case, data in result["cases"].items():
        obs = data.get("obs")
        if obs:
            counts = obs["health"]["summary"]["status"]
            status = ", ".join(f"{k}={v}" for k, v in sorted(counts.items())
                               if v)
            lines.append(f"{case}: {len(obs['spans'])} trace spans; "
                         f"link health: {status}")
    return "\n".join(lines)


def main(quick: bool = True, runtime: Optional[RuntimeContext] = None,
         trace: bool = False, out_dir: Any = None, fluid: bool = False,
         shards: int = 0) -> str:
    runtime = resolve(runtime)
    config = FabricExpConfig(trace=trace)
    if fluid:
        # The fluid tier is only observable with background traffic to
        # absorb: give the demo a slab of it, plus the hash tree so the
        # absorbed counts are actually zoomed over.
        config = replace(config, fluid=True, tree=True,
                         background_entries=16)
    if runtime.seed:
        config = replace(config, seed=runtime.seed)
    if shards:
        return _main_sharded(config, shards, quick, runtime, trace, out_dir)
    result = run(config=config, quick=quick, runtime=runtime)
    text = render(result)
    if trace and out_dir is not None:
        _write_trace_artifacts(result, out_dir)
    print(text)
    return text


def _main_sharded(config: FabricExpConfig, shards: int, quick: bool,
                  runtime: RuntimeContext, trace: bool,
                  out_dir: Any) -> str:
    lines = [f"Fabric sharded detection runs — {shards} shard(s) "
             "(per-link probes, no reroute loop)", ""]
    for case in ("ring", "fat_tree"):
        merged = run_sharded(config=config, case=case, shards=shards,
                             runtime=runtime, quick=quick)
        line = (f"{case:<10} links={len(merged['links'])} "
                f"shards={merged['shards']} "
                f"detections={len(merged['detections'])} "
                f"events={merged['events_processed']}")
        if merged["fluid_absorbed"]:
            line += f" fluid_absorbed={merged['fluid_absorbed']}"
        lines.append(line)
        if trace and out_dir is not None:
            from pathlib import Path

            from ..fabric.sharding import trace_text_chunks

            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            with (out / f"fabric-shard-traces-{case}.jsonl").open("w") as fh:
                fh.writelines(trace_text_chunks(merged["trace_parts"]))
            (out / f"fabric-shard-metrics-{case}.prom").write_text(
                merged["prometheus"])
    text = "\n".join(lines)
    print(text)
    return text


def _write_trace_artifacts(result: dict, out_dir: Any) -> None:
    """Write per-case trace JSONL + Chrome trace and the HTML report."""
    import json
    from pathlib import Path

    from ..obs.report import render_html
    from ..obs.trace import chrome_trace_from_dicts, spans_to_jsonl

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sections = []
    for case, data in result["cases"].items():
        obs = data.get("obs")
        if not obs:
            continue
        (out / f"fabric-traces-{case}.jsonl").write_text(
            spans_to_jsonl(obs["spans"]))
        (out / f"fabric-chrome-{case}.json").write_text(
            json.dumps(chrome_trace_from_dicts(obs["spans"]),
                       sort_keys=True))
        sections.append({"name": case, "health": obs["health"],
                         "spans": obs["spans"]})
    if sections:
        (out / "fabric-report.html").write_text(render_html(sections))
