"""Fabric-addressed chaos: fault schedules on fabric links + ring soak.

The two-switch chaos subsystem addresses faults as ``"forward"`` /
``"reverse"``; a fabric has many links, so fabric schedules address a
*directed link id*: ``target="link:s1->s2"``.  The specs are otherwise
unchanged :class:`~repro.chaos.schedule.FaultSpec` objects — same JSON
shape, same per-fault seed derivation ``stable_seed(base, "fault",
index)`` (FCY007), so fabric schedules shrink and replay with the
existing tooling and wire through the one materializer.

:func:`fabric_soak` is the invariant-checked soak on a six-switch ring,
built over :func:`repro.chaos.harness.drive_soak`: UDP
entries cross three monitored hops, a fabric-link-addressed fault
schedule runs, and the robustness invariants I1–I6 of
:mod:`repro.chaos.invariants` are asserted *per monitored link* — the
faulted link's monitor must flag exactly the covered entries, every
other monitor must stay silent (attribution against an empty schedule),
and conservation/integrity hold on every wire.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from ..chaos.harness import (
    SoakResult,
    drive_soak,
    soak_entries,
    soak_fancy_config,
)
from ..chaos.schedule import (
    LINK_TARGET_PREFIX,
    FaultSpec,
    Materialized,
    link_target,
    materialize,
    parse_link_target,
)
from ..core.output import FailureKind
from ..simulator.engine import Simulator
from .builders import ring
from .deployment import FabricDeployment
from .graph import FabricNetwork

__all__ = [
    "LINK_TARGET_PREFIX",
    "link_target",
    "parse_link_target",
    "directional_schedule",
    "materialize_on_fabric",
    "FabricSoakConfig",
    "fabric_soak",
]


def directional_schedule(link_id: str,
                         schedule: list[FaultSpec]) -> list[FaultSpec]:
    """Link-addressed specs, translated for one monitor's invariants.

    A spec on the monitored link itself is its *forward* (data)
    direction; a spec on the opposite directed link is its *reverse*
    (control-return) channel — which is how a ``control_loss`` on
    ``B->A`` legitimately explains impairment seen by ``A->B``'s monitor.
    Specs on any other link are left out.
    """
    a, _, b = link_id.partition("->")
    sides = {link_target(a, b): "forward", link_target(b, a): "reverse"}
    return [FaultSpec(kind=spec.kind, target=sides[spec.target],
                      params=dict(spec.params), index=spec.index)
            for spec in schedule if spec.target in sides]


def materialize_on_fabric(
    schedule: list[FaultSpec],
    base_seed: int,
    net: FabricNetwork,
    deployment: FabricDeployment | None = None,
) -> Materialized:
    """Wire link-addressed faults onto a fabric.

    Validates every target, opens each fault's trace episode, and hands
    the schedule to :func:`repro.chaos.schedule.materialize` with every
    directed link as a wire; a ``switch_restart`` reboots the monitor
    deployed on its link.
    """
    for spec in schedule:
        link_id = parse_link_target(spec.target)
        if link_id is None:
            raise ValueError(
                f"fabric schedules need link-addressed targets, got "
                f"{spec.target!r} (use link_target(a, b))")
        net.endpoints(link_id)  # validate early: unknown links fail loudly
        _schedule_fault_episode(net, deployment, link_id, spec)
    monitors = {} if deployment is None else {
        LINK_TARGET_PREFIX + lid: monitor
        for lid, monitor in deployment.monitors.items()}
    return materialize(
        schedule, base_seed, net.sim,
        {LINK_TARGET_PREFIX + lid: link for lid, link in net.links.items()},
        monitors)


def _fault_start(spec: FaultSpec) -> float:
    """Activation time of a fault spec (``start``/``time`` param, else 0)."""
    for key in ("start", "time"):
        value = spec.params.get(key)
        if value is not None:
            return float(value)
    return 0.0


def _schedule_fault_episode(net: FabricNetwork,
                            deployment: FabricDeployment | None,
                            link_id: str, spec: FaultSpec) -> None:
    """Open a detection-trace episode when the fault activates.

    The chaos harness is the only actor that knows the *root cause*, so
    it roots each trace: the episode opens at the fault's start time on
    the faulted link's trace collector, and every span the monitor emits
    afterwards (divergence → zoom → flag → reroute) hangs under it.
    No-op when the link is unmonitored or telemetry is off.
    """
    if deployment is None:
        return
    monitor = deployment.monitors.get(link_id)
    if monitor is None:
        return
    traces = getattr(monitor.telemetry, "traces", None)
    if traces is None:
        return
    net.sim.schedule_at(
        _fault_start(spec),
        lambda: traces.begin_episode(
            net.sim.now, cause="fault", name=spec.kind, link=link_id,
            target=spec.target, index=spec.index, params=spec.params))


# -- the ring soak -------------------------------------------------------------


@dataclass(frozen=True)
class FabricSoakConfig:
    """Knobs of the six-switch ring soak (JSON-round-trippable)."""

    seed: int = 0
    ring_size: int = 6
    duration_s: float = 3.5          #: traffic horizon
    grace_s: float = 2.5             #: monitor-only tail for late detections
    checkpoint_s: float = 0.25       #: I1/I2 sampling period
    n_dedicated: int = 3
    n_best_effort: int = 2
    rate_bps: float = 640_000.0
    packet_size: int = 400
    fault_link: str = "s1->s2"       #: directed fabric link the fault hits
    fault_rate: float = 0.9
    fault_start_s: float = 0.5

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FabricSoakConfig":
        return cls(**{f.name: d[f.name] for f in dataclasses.fields(cls)
                      if f.name in d})


def default_fabric_schedule(config: FabricSoakConfig) -> list[FaultSpec]:
    """The pinned soak schedule: one persistent entry-loss gray failure
    addressed to ``config.fault_link``, covering every entry."""
    dedicated, best_effort = soak_entries(config)
    return [FaultSpec(
        "entry_loss",
        target=LINK_TARGET_PREFIX + config.fault_link,
        params={"entries": dedicated + best_effort,
                "rate": config.fault_rate,
                "start": config.fault_start_s, "end": None},
        index=0,
    )]


def fabric_soak(config: FabricSoakConfig,
                schedule: list[FaultSpec] | None = None,
                telemetry: Any | None = None) -> SoakResult:
    """One invariant-checked soak on the ring fabric.

    Entries travel ``s0 → s2`` over the unique two-hop shortest path
    (``dst`` is chosen off the ring's antipode so ECMP never splits the
    flows), crossing monitors on ``s0->s1`` and ``s1->s2``; a third
    monitor on ``s2->s3`` carries no entry traffic and acts as the
    false-positive sentinel.  Each monitor sees the schedule through
    :func:`directional_schedule`.
    """
    if config.ring_size < 4:
        raise ValueError("the ring soak needs at least four switches")
    dedicated, best_effort = soak_entries(config)
    if schedule is None:
        schedule = default_fabric_schedule(config)

    sim = Simulator()
    net = FabricNetwork(sim, ring(config.ring_size))
    src, dst, sentinel_hop = "s0", "s2", "s3"
    for entry in dedicated + best_effort:
        net.add_entry(entry, src, dst)
    monitored = ["s0->s1", "s1->s2", f"{dst}->{sentinel_hop}"]
    deployment = FabricDeployment(
        net, config=soak_fancy_config(config, dedicated), links=monitored,
        telemetry=telemetry)

    def arm() -> Materialized:
        materialized = materialize_on_fabric(schedule, config.seed, net,
                                             deployment)
        deployment.start(stagger_s=0.005)
        return materialized

    views = {lid: directional_schedule(lid, schedule) for lid in monitored}
    run = drive_soak(config, net, src, deployment.monitors, views, arm)

    if telemetry is not None:
        for monitor in deployment.monitors.values():
            traces = getattr(monitor.telemetry, "traces", None)
            if traces is not None:
                traces.finalize(sim.now)

    stats = {
        "sim_time": sim.now,
        "packets_sent": run.packets_sent,
        "links": {lid: net.links[lid].stats.as_dict() for lid in monitored},
        "sessions_completed": deployment.sessions_completed(),
        "reports": {
            lid: {kind.value: n for kind in FailureKind
                  if (n := len(mon.log.by_kind(kind)))}
            for lid, mon in deployment.monitors.items()
        },
        "detections": deployment.detection_records(),
    }
    if telemetry is not None:
        stats["trace_spans"] = {
            lid: len(getattr(mon.telemetry, "traces", []) or [])
            for lid, mon in deployment.monitors.items()
        }
    return SoakResult(seed=config.seed, violations=run.violations,
                      schedule=list(schedule), stats=stats)
