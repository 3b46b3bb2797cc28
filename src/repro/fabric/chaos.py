"""Fabric chaos: trace-rooted fault schedules and the ring soak.

Faults address directed links, ``target="link:s1->s2"``, in the one
vocabulary of :mod:`repro.chaos.schedule` — the two-switch soak's
``link:A->B`` / ``link:B->A`` included — so fabric schedules shrink and
replay with the existing tooling (per-fault seeds
``stable_seed(base, "fault", index)``, FCY007) and wire through the one
materializer.  :func:`materialize_on_fabric` adds what only a fabric
deployment has: a detection-trace episode rooted at each fault.

:func:`fabric_soak` is the invariant-checked soak on a six-switch ring,
configured by the two-switch soak's
:class:`~repro.chaos.harness.SoakConfig` and built over
:func:`repro.chaos.harness.drive_soak`: UDP entries cross two monitored
hops, a link-addressed fault schedule runs, and the robustness
invariants I1–I6 of :mod:`repro.chaos.invariants` are asserted *per
monitored link* — each monitor reads the whole schedule, a fault on its
own link as a data-wire fault and one on the reverse link as a fault on
its control-return wire, and conservation/integrity hold on every wire.
"""

from __future__ import annotations

from ..chaos.harness import (
    SoakConfig,
    SoakResult,
    drive_soak,
    soak_entries,
    soak_fancy_config,
)
from ..chaos.schedule import (
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
    "materialize_on_fabric",
    "fabric_soak",
]


def materialize_on_fabric(
    schedule: list[FaultSpec],
    base_seed: int,
    net: FabricNetwork,
    deployment: FabricDeployment | None = None,
) -> Materialized:
    """Wire link-addressed faults onto a fabric, each rooting a trace
    episode on its link's monitor, through
    :func:`repro.chaos.schedule.materialize`; a ``switch_restart``
    reboots the monitor deployed on its link."""
    for spec in schedule:
        _schedule_fault_episode(net, deployment, spec)
    return materialize(schedule, base_seed, net,
                       {} if deployment is None else deployment.monitors)


def _fault_start(spec: FaultSpec) -> float:
    """Activation time of a fault spec (``start``/``time`` param, else 0)."""
    for key in ("start", "time"):
        value = spec.params.get(key)
        if value is not None:
            return float(value)
    return 0.0


def _schedule_fault_episode(net: FabricNetwork,
                            deployment: FabricDeployment | None,
                            spec: FaultSpec) -> None:
    """Open a detection-trace episode when the fault activates.

    The chaos harness is the only actor that knows the *root cause*, so
    it roots each trace: the episode opens at the fault's start time on
    the faulted link's trace collector, and every span the monitor emits
    afterwards (divergence → zoom → flag → reroute) hangs under it.
    No-op when the link is unmonitored or telemetry is off.
    """
    if deployment is None:
        return
    link_id = parse_link_target(spec.target) or ""  # "": materialize raises
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


def default_fabric_schedule(config: SoakConfig) -> list[FaultSpec]:
    """The pinned soak schedule: one persistent 90 % entry-loss gray
    failure on ``s1->s2`` from 0.5 s, covering every entry."""
    dedicated, best_effort = soak_entries(config)
    return [FaultSpec(
        "entry_loss",
        target=link_target("s1", "s2"),
        params={"entries": dedicated + best_effort,
                "rate": 0.9, "start": 0.5, "end": None},
        index=0,
    )]


def fabric_soak(config: SoakConfig,
                schedule: list[FaultSpec] | None = None) -> SoakResult:
    """One invariant-checked soak on the six-switch ring fabric.

    Entries travel ``s0 → s2`` over the unique two-hop shortest path
    (``dst`` is chosen off the ring's antipode so ECMP never splits the
    flows), crossing monitors on ``s0->s1`` and ``s1->s2``; a third
    monitor on ``s2->s3`` carries no entry traffic and acts as the
    false-positive sentinel.  Each monitor's observer reads the whole
    schedule.
    """
    dedicated, best_effort = soak_entries(config)
    if schedule is None:
        schedule = default_fabric_schedule(config)

    sim = Simulator()
    net = FabricNetwork(sim, ring(6))
    src, dst, sentinel_hop = "s0", "s2", "s3"
    for entry in dedicated + best_effort:
        net.add_entry(entry, src, dst)
    monitored = ["s0->s1", "s1->s2", f"{dst}->{sentinel_hop}"]
    deployment = FabricDeployment(
        net, config=soak_fancy_config(config, dedicated), links=monitored)

    def arm() -> Materialized:
        materialized = materialize_on_fabric(schedule, config.seed, net,
                                             deployment)
        deployment.start(stagger_s=0.005)
        return materialized

    run = drive_soak(config, net, src, deployment.monitors, schedule, arm)

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
    return SoakResult(seed=config.seed, violations=run.violations,
                      schedule=list(schedule), stats=stats)
