"""``fancy-repro serve``: the long-running degraded-mode soak driver.

A serve runs a ring fabric under FANcY supervision for *simulated days*:
per-link monitors with paper-shaped (but coarser-clocked) counting
sessions, a rotating Zipf top-N dedicated entry set (entry churn via
:meth:`~repro.core.detector.FancyLinkMonitor.update_entries`), a
degradation ladder on every link, online I1–I6 invariant supervision,
and periodic health snapshots.  The default fault schedule is
``control-plane-grey``: asymmetric loss on one link's *reverse* (control)
channel only — the scenario the ladder exists for, where the data plane
is perfect and a naive detector would still declare LINK_DOWN.

Execution is the fabric experiments' sharded runner
(:func:`repro.fabric.sharding.run_link_probes`, docs/FABRIC.md): each
monitored link runs as an isolated *probe* simulation that is a pure
function of ``(config, schedule, link_id)``, and ``--shards N`` only
changes how probes are batched across worker processes.  Health
snapshots, Prometheus text and trace JSONL are byte-identical for any
shard count and any same-seed rerun.

Clock scaling: a day of 50 ms sessions is ~1.7 M sessions per link —
far past what a Python event loop should burn CI minutes on.  The serve
configs instead scale every protocol timer up together (sessions,
retransmit timeout, grace), preserving the ratios that make the ladder
sound: ``tree_session_s < declare_grace_s < dead-channel exhaustion
floor`` (``rtx_timeout_s × 23/2``), so absorption covers report gaps at
grey loss rates while a dead channel still declares within one
exhaustion cycle.  The paper-default timer tests live in
``tests/service/``, at paper scale.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any, Optional

from ..chaos.schedule import FaultSpec, link_target, parse_link_target
from ..core.detector import FancyConfig
from ..core.hashtree import HashTreeParams
from ..fabric.builders import ring
from ..fabric.chaos import _fault_start, materialize_on_fabric
from ..fabric.deployment import FabricDeployment
from ..fabric.graph import FabricNetwork
from ..fabric.sharding import (
    probe_payload,
    run_link_probes,
    trace_text,
    trace_text_chunks,
)
from ..obs.health import FabricHealthReport
from ..runtime.context import RuntimeContext
from ..runtime.jobs import stable_seed
from ..simulator.engine import Simulator
from ..simulator.fluid import FluidFlow, FluidTraffic
from ..telemetry.session import Telemetry
from ..traffic.zipf import assign_rates, sample_zipf_ranks
from .ladder import attach_ladder
from .supervision import InvariantSupervisor

__all__ = [
    "ServeConfig",
    "ServeResult",
    "default_serve_schedule",
    "churn_rotations",
    "run_serve",
]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serve soak (JSON-round-trippable)."""

    seed: int = 0
    ring_size: int = 6
    duration_s: float = 86_400.0       #: simulated horizon (one day)
    health_every_s: float = 21_600.0   #: health snapshot cadence
    supervise_every_s: float = 60.0    #: invariant observer tick cadence
    churn_every_s: float = 14_400.0    #: dedicated entry-set rotation cadence
    universe_size: int = 2_000         #: prefix universe the Zipf draws from
    top_n: int = 500                   #: dedicated (top-N) entry-set size
    n_flows: int = 24                  #: fluid flows over the heaviest entries
    zipf_alpha: float = 1.0
    total_rate_bps: float = 4_000_000.0
    packet_size: int = 400
    dedicated_session_s: float = 5.0
    tree_session_s: float = 6.0
    twait_s: float = 0.5
    rtx_timeout_s: float = 1.0
    #: absorption-recency window: when one sender FSM exhausts its
    #: retransmits, the exhaustion itself lasted the full backoff floor
    #: (23 × rtx), so the freshness proving the channel alive must come
    #: from the *other* FSM's reports — the grace must exceed **both**
    #: FSMs' verified-report gaps (session length + retry slack) and stay
    #: under the floor so a dead channel is denied on first exhaustion.
    declare_grace_s: float = 10.0
    max_absorbed_cycles: int = 3
    #: link whose *reverse* channel greys out (None disables the fault).
    grey_link: Optional[str] = "s1->s2"
    grey_rate: float = 0.2
    grey_start_s: float = 600.0
    #: how long the fault-rooted trace episode stays open (bounded so a
    #: day-long grey fault doesn't record a day of control spans).
    trace_window_s: float = 60.0

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ServeConfig":
        return cls(**{f.name: d[f.name] for f in dataclasses.fields(cls)
                      if f.name in d})

    @classmethod
    def quick(cls, seed: int = 0) -> "ServeConfig":
        """CI-sized serve: still a simulated day, coarser everything."""
        return cls(
            seed=seed, ring_size=4, universe_size=200, top_n=40, n_flows=6,
            churn_every_s=28_800.0, supervise_every_s=600.0,
            total_rate_bps=1_000_000.0, dedicated_session_s=10.0,
            tree_session_s=12.0, twait_s=1.0, rtx_timeout_s=2.0,
            declare_grace_s=20.0, grey_start_s=3_600.0,
            trace_window_s=120.0,
        )


@dataclass
class ServeResult:
    """Merged outcome of one serve (all links, all shards).

    The trace stays as the probes packed it (``trace_parts``, one entry
    per link in sorted order): :meth:`trace_chunks` decodes it a piece
    at a time for writers, and :attr:`trace_jsonl` decodes all of it on
    every access.
    """

    config: ServeConfig
    links: list[str]
    snapshots: list[dict[str, Any]]
    ladder_states: dict[str, str]
    breaches: dict[str, int]
    violations: list[dict[str, Any]]
    detections: list[tuple[Any, ...]]
    sessions_completed: dict[str, int]
    absorbed_exhaustions: int
    prometheus: str
    trace_parts: list[dict[str, Any]]
    health_json: str
    events_processed: int
    fluid_absorbed: int
    shards: int = 1

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def trace_jsonl(self) -> str:
        """The merged trace JSONL as one text, decoded on each access."""
        return trace_text(self.trace_parts)

    def trace_chunks(self) -> Iterator[str]:
        """:attr:`trace_jsonl` in newline-terminated pieces, decoded one
        at a time."""
        return trace_text_chunks(self.trace_parts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "ok": self.ok,
            "links": list(self.links),
            "snapshots": self.snapshots,
            "ladder_states": dict(self.ladder_states),
            "breaches": dict(self.breaches),
            "violations": list(self.violations),
            "detections": [list(r) for r in self.detections],
            "sessions_completed": dict(self.sessions_completed),
            "absorbed_exhaustions": self.absorbed_exhaustions,
            "events_processed": self.events_processed,
            "fluid_absorbed": self.fluid_absorbed,
            "shards": self.shards,
        }


# -- deterministic planning (pure functions of the config) ---------------------


def churn_rotations(config: ServeConfig) -> list[tuple[float, tuple[str, ...]]]:
    """``(apply_time, top-N entry tuple)`` per rotation; rotation 0 at t=0.

    Each rotation draws its top-N from the Zipf prefix universe with a
    rotation-derived seed, dedup-preserving rank popularity order and
    padding from the unseen head of the universe if the draw collapses —
    always exactly ``top_n`` distinct entries, pure in (seed, k).
    """
    out: list[tuple[float, tuple[str, ...]]] = []
    k = 0
    t = 0.0
    while t < config.duration_s:
        ranks = sample_zipf_ranks(
            config.universe_size, count=config.top_n * 3,
            alpha=config.zipf_alpha,
            seed=stable_seed(config.seed, "churn", k))
        distinct: list[int] = []
        seen: set[int] = set()
        for rank in ranks:
            if rank not in seen:
                seen.add(rank)
                distinct.append(rank)
            if len(distinct) == config.top_n:
                break
        for rank in range(config.universe_size):
            if len(distinct) == config.top_n:
                break
            if rank not in seen:
                seen.add(rank)
                distinct.append(rank)
        out.append((t, tuple(f"p/{rank}" for rank in distinct)))
        k += 1
        t = k * config.churn_every_s
        if config.churn_every_s <= 0:
            break
    return out


def _entry_endpoints(entry: str, ring_size: int) -> tuple[str, str]:
    """Spread entries around the ring: ``p/r`` flows s(r) → s(r+2)."""
    rank = int(entry.split("/", 1)[1])
    return f"s{rank % ring_size}", f"s{(rank + 2) % ring_size}"


def _flow_plan(config: ServeConfig,
               rotations: list[tuple[float, tuple[str, ...]]]
               ) -> dict[str, float]:
    """Entry → rate for the fixed fluid flow set (heaviest of rotation 0).

    Flows persist across churn — an entry rotated out of the top-N keeps
    sending and is simply counted by the tree tier instead (the dynamic
    tier membership the fluid engine re-evaluates every window).
    """
    entries = list(rotations[0][1][:config.n_flows])
    return dict(assign_rates(entries, config.total_rate_bps,
                             config.zipf_alpha))


def default_serve_schedule(config: ServeConfig) -> list[FaultSpec]:
    """``control-plane-grey`` on the reverse of ``config.grey_link``.

    The loss model only matches control-plane packets, so counter
    reports and ACKs returning over the greyed wire are dropped at
    ``grey_rate`` while every data packet crosses untouched — the
    false-LINK_DOWN trap the degradation ladder must absorb.
    """
    if config.grey_link is None or config.grey_rate <= 0:
        return []
    a, b = config.grey_link.split("->")
    return [FaultSpec(
        "control_loss",
        target=link_target(b, a),
        params={"rate": config.grey_rate,
                "start": config.grey_start_s, "end": None},
        index=0,
    )]


# -- the per-link probe --------------------------------------------------------


def _serve_probe(config: ServeConfig, schedule: list[FaultSpec],
                 link_id: str, link_seed: int) -> dict[str, Any]:
    """One link's serve — a pure function of (config, schedule, link).

    Builds a fresh ring, monitors exactly one link with a degradation
    ladder and an invariant observer, installs the full fault schedule
    (all probes observe the same fabric), binds the fluid flows that
    cross the link, rotates the dedicated entry set on the churn grid,
    and snapshots health on the health grid.  Nothing depends on shard
    grouping — the ``--shards`` byte-equality contract.
    """
    rotations = churn_rotations(config)
    flow_rates = _flow_plan(config, rotations)

    sim = Simulator()
    net = FabricNetwork(sim, ring(config.ring_size))
    named = [e for _t, rotation in rotations for e in rotation] + list(flow_rates)
    for entry in dict.fromkeys(named):  # each once, first-seen order
        src, dst = _entry_endpoints(entry, config.ring_size)
        net.add_entry(entry, src, dst)

    fancy = FancyConfig(
        high_priority=list(rotations[0][1]),
        tree_params=HashTreeParams(width=8, depth=2, split=2, pipelined=True),
        dedicated_session_s=config.dedicated_session_s,
        tree_session_s=config.tree_session_s,
        rtx_timeout_s=config.rtx_timeout_s,
        twait_s=config.twait_s,
        seed=stable_seed(config.seed, "fancy", bits=31),
    )
    telemetry = Telemetry(scope=link_id)
    deployment = FabricDeployment(net, config=fancy, links=[link_id],
                                  telemetry=telemetry)
    monitor = deployment.monitors[link_id]

    materialized = materialize_on_fabric(schedule, config.seed, net,
                                         deployment)
    a, b = net.endpoints(link_id)
    reverse_id = f"{b}->{a}"
    _schedule_reverse_episodes(net, monitor, link_id, reverse_id, schedule,
                               config)

    ladder = attach_ladder(
        monitor, link_id=link_id,
        declare_grace_s=config.declare_grace_s,
        max_absorbed_cycles=config.max_absorbed_cycles)

    dedicated0 = list(rotations[0][1])
    dedicated0_set = set(dedicated0)
    best_effort0 = [e for e in flow_rates if e not in dedicated0_set]
    supervisor = InvariantSupervisor(sim, telemetry=telemetry,
                                     interval_s=config.supervise_every_s)
    observer = supervisor.watch(
        link_id, monitor, schedule, dedicated0, best_effort0,
        links=[net.links[lid] for lid in sorted(net.links)],
        chaos_models=materialized.chaos_models())
    supervisor.start()

    # -- fluid flows crossing this link, grouped by delay chain -------------
    engine = FluidTraffic(sim)
    for i, (entry, rate) in enumerate(flow_rates.items()):
        engine.add_flow(FluidFlow(
            entry=entry, flow_id=i, rate_bps=rate,
            packet_size=config.packet_size, jitter=0.1,
            seed=stable_seed(config.seed, "flow", i),
            start_s=0.0005 * (i + 1),
        ))
    deployment.bind_fluid(engine, {link_id: link_seed})

    # -- entry churn on the rotation grid -----------------------------------
    def _rotate(entries: tuple[str, ...]) -> None:
        monitor.update_entries(entries)
        dedicated = set(entries)
        observer.update_entries(
            list(entries), [e for e in flow_rates if e not in dedicated])

    for t, entries in rotations[1:]:
        sim.schedule_at(t, _rotate, entries)

    # Stagger by position in the full link order, so session boundaries
    # match what an all-links deployment would produce.
    pos = net.directed_link_ids().index(link_id)
    monitor.start(delay=pos * 0.001)

    # -- run with health snapshots on the health grid -----------------------
    def _snapshot(t: float, label: str) -> dict[str, Any]:
        report = FabricHealthReport.from_deployment(
            deployment, sim_time=t, ladders={link_id: ladder},
            breaches={link_id: supervisor.breach_counts()})
        row = report.links[0].to_dict()
        return {"t": t, "label": label, "link": row}

    snapshots: list[dict[str, Any]] = []
    t = config.health_every_s
    while t < config.duration_s:
        sim.run(until=t)
        snapshots.append(_snapshot(t, f"t+{t:.0f}s"))
        t += config.health_every_s
    sim.run(until=config.duration_s)

    # -- wind-down: stop, drain, final checks, final snapshot ---------------
    supervisor.stopped = True
    deployment.stop()
    sim.run()
    supervisor.finalize(horizon=config.duration_s)
    snapshots.append(_snapshot(config.duration_s, "final"))
    return {
        **probe_payload(deployment, engine),
        "snapshots": snapshots,
        "violations": [v.to_dict() for v in observer.breaches],
        "ladder": {
            "state": ladder.state.value,
            "transitions": ladder.transitions,
            "absorbed_streak": ladder.absorbed_streak,
        },
        "absorbed_exhaustions": sum(
            fsm.absorbed_exhaustions
            for fsm in (monitor.dedicated_sender, monitor.tree_sender)
            if fsm is not None),
    }


def _schedule_reverse_episodes(net: FabricNetwork, monitor: Any,
                               link_id: str, reverse_id: str,
                               schedule: list[FaultSpec],
                               config: ServeConfig) -> None:
    """Open bounded trace episodes for faults on the reverse channel.

    ``materialize_on_fabric`` roots episodes only on the faulted link's
    own monitor; a control-channel fault on the *reverse* wire impairs
    this monitor just the same, so the serve roots one here too.  The
    episode closes after ``trace_window_s`` — long enough to capture the
    ladder stepping and the absorbed exhaustions, bounded so a day-long
    grey fault doesn't record a day of control chatter.
    """
    traces = monitor.telemetry.traces
    for spec in schedule:
        if parse_link_target(spec.target) != reverse_id:
            continue
        start = _fault_start(spec)

        def _open(spec: FaultSpec = spec, start: float = start) -> None:
            traces.begin_episode(
                net.sim.now, cause="fault", name=spec.kind, link=link_id,
                target=spec.target, index=spec.index, params=spec.params)
            net.sim.schedule(config.trace_window_s,
                             lambda: traces.end_episode(net.sim.now))

        net.sim.schedule_at(start, _open)


# -- sharded execution and merge -----------------------------------------------


def _merge_health(per_link: dict[str, dict[str, Any]]) -> list[dict[str, Any]]:
    """Fold per-probe snapshot rows into fabric-wide snapshots by time.

    All probes share the same health grid (it is a pure function of the
    config), so grouping by snapshot index gives one fabric snapshot per
    grid point, links in sorted id order — byte-stable under sharding.
    A link off the grid the other links share is a broken probe, not a
    shorter fabric: ``ValueError`` names every such link.
    """
    ordered = sorted(per_link)
    if not ordered:
        return []
    grids = [tuple(snap["t"] for snap in per_link[lid]["snapshots"])
             for lid in ordered]
    grid = max(grids, key=grids.count)
    differ = [lid for lid, own in zip(ordered, grids) if own != grid]
    if differ:
        raise ValueError(
            f"health grids differ: {', '.join(differ)} off the "
            f"{len(grid)}-snapshot grid t={list(grid)} of the other links")
    merged: list[dict[str, Any]] = []
    for i in range(len(grid)):
        first = per_link[ordered[0]]["snapshots"][i]
        rows = [per_link[lid]["snapshots"][i]["link"] for lid in ordered]
        status: dict[str, int] = {}
        for row in rows:
            status[row["status"]] = status.get(row["status"], 0) + 1
        merged.append({
            "t": first["t"],
            "label": first["label"],
            "status": dict(sorted(status.items())),
            "links": rows,
        })
    return merged


def _validate(config: ServeConfig, shards: int, link_ids: list[str]) -> None:
    """Reject a serve that cannot run, naming the offending field."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if not config.duration_s > 0:
        raise ValueError(f"duration_s must be > 0, got {config.duration_s}")
    if not 0.0 <= config.grey_rate <= 1.0:
        raise ValueError(
            f"grey_rate must be within [0, 1], got {config.grey_rate}")
    if config.grey_link is not None and config.grey_link not in link_ids:
        raise ValueError(
            f"grey_link {config.grey_link!r} is not a directed link of "
            f"ring-{config.ring_size} (e.g. {link_ids[0]!r})")


def run_serve(config: Optional[ServeConfig] = None,
              schedule: Optional[list[FaultSpec]] = None,
              shards: int = 1,
              runtime: Optional[RuntimeContext] = None) -> ServeResult:
    """Run one serve soak, sharded across worker processes.

    ``schedule`` defaults to :func:`default_serve_schedule` (control-
    plane-grey on the configured link's reverse channel).  The merged
    result is a pure function of ``(config, schedule)`` — shard count
    and worker scheduling cannot change a byte of it.
    """
    config = config or ServeConfig()
    link_ids = FabricNetwork(Simulator(),
                             ring(config.ring_size)).directed_link_ids()
    _validate(config, shards, link_ids)
    if schedule is None:
        schedule = default_serve_schedule(config)
    merged, per_link = run_link_probes(
        _serve_probe, (config, schedule), link_ids, shards, config.seed,
        "serve", config.duration_s, runtime)
    ordered = merged["links"]
    snapshots = _merge_health(per_link)
    violations = [v for lid in ordered for v in per_link[lid]["violations"]]
    breach_totals: dict[str, int] = {}
    for violation in violations:
        inv = violation["invariant"]
        breach_totals[inv] = breach_totals.get(inv, 0) + 1
    ladder_states = {lid: per_link[lid]["ladder"]["state"] for lid in ordered}
    health_json = json.dumps(
        {"snapshots": snapshots, "ladder_states": ladder_states,
         "breaches": dict(sorted(breach_totals.items()))},
        sort_keys=True)

    return ServeResult(
        config=config,
        links=list(ordered),
        snapshots=snapshots,
        ladder_states=ladder_states,
        breaches=dict(sorted(breach_totals.items())),
        violations=violations,
        detections=merged["detections"],
        sessions_completed=merged["sessions_completed"],
        absorbed_exhaustions=sum(
            per_link[lid]["absorbed_exhaustions"] for lid in ordered),
        prometheus=merged["prometheus"],
        trace_parts=merged["trace_parts"],
        health_json=health_json,
        events_processed=merged["events_processed"],
        fluid_absorbed=merged["fluid_absorbed"],
        shards=merged["shards"],
    )
