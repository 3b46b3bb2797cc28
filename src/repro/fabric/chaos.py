"""Fabric-addressed chaos: fault schedules on fabric links + ring soak.

The two-switch chaos subsystem addresses faults as ``"forward"`` /
``"reverse"``; a fabric has many links, so fabric schedules address a
*directed link id*: ``target="link:s1->s2"``.  The specs are otherwise
unchanged :class:`~repro.chaos.schedule.FaultSpec` objects — same JSON
shape, same per-fault seed derivation ``stable_seed(base, "fault",
index)`` (FCY007), so fabric schedules shrink and replay with the
existing tooling.

:func:`fabric_soak` is the invariant-checked soak on a six-switch ring:
UDP entries cross three monitored hops, a fabric-link-addressed fault
schedule runs, and the robustness invariants I1–I6 of
:mod:`repro.chaos.invariants` are asserted *per monitored link* — the
faulted link's monitor must flag exactly the covered entries, every
other monitor must stay silent (attribution against an empty schedule),
and conservation/integrity hold on every wire.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from ..chaos.invariants import (
    SessionTracker,
    Violation,
    check_attribution,
    check_conservation,
    check_detection,
    check_integrity,
    check_liveness,
)
from ..chaos.perturbations import ChaosModel, Perturbation
from ..chaos.schedule import FaultSpec, build_loss, build_perturbation
from ..core.detector import FancyConfig
from ..core.hashtree import HashTreeParams
from ..core.output import FailureKind
from ..runtime.jobs import stable_seed
from ..simulator.engine import Simulator
from ..simulator.failures import CompositeFailure, GrayFailure
from ..simulator.udp import UdpSource
from .builders import ring
from .deployment import FabricDeployment
from .graph import FabricNetwork

__all__ = [
    "LINK_TARGET_PREFIX",
    "link_target",
    "parse_link_target",
    "as_directional",
    "FabricMaterialized",
    "materialize_on_fabric",
    "FabricSoakConfig",
    "FabricSoakResult",
    "fabric_soak",
]

LINK_TARGET_PREFIX = "link:"


def link_target(a: str, b: str) -> str:
    """The ``FaultSpec.target`` string addressing directed link a→b."""
    return f"{LINK_TARGET_PREFIX}{a}->{b}"


def parse_link_target(target: str) -> str | None:
    """``"link:A->B"`` → ``"A->B"``; ``None`` for non-link targets."""
    if target.startswith(LINK_TARGET_PREFIX):
        return target[len(LINK_TARGET_PREFIX):]
    return None


def as_directional(spec: FaultSpec) -> FaultSpec:
    """Translate a link-addressed spec for the two-switch invariants.

    The invariant checkers classify loss faults by ``target ==
    "forward"``; from the perspective of the faulted link's own monitor
    a ``link:`` target *is* the forward (data) direction.
    """
    return FaultSpec(kind=spec.kind, target="forward",
                     params=dict(spec.params), index=spec.index)


@dataclass
class FabricMaterialized:
    """Live fault objects per fabric link, for invariant bookkeeping."""

    schedule: list[FaultSpec]
    #: link id -> loss models installed on that wire.
    losses: dict[str, list[GrayFailure]] = field(default_factory=dict)
    #: link id -> chaos (perturbation) model attached to that wire.
    chaos: dict[str, ChaosModel] = field(default_factory=dict)
    restarts: list[FaultSpec] = field(default_factory=list)

    def chaos_models_for(self, *link_ids: str) -> list[ChaosModel]:
        return [self.chaos[lid] for lid in link_ids if lid in self.chaos]


def materialize_on_fabric(
    schedule: list[FaultSpec],
    base_seed: int,
    net: FabricNetwork,
    deployment: FabricDeployment | None = None,
) -> FabricMaterialized:
    """Wire link-addressed faults onto a fabric.

    Loss faults compose per link through :class:`CompositeFailure`,
    perturbations through one :class:`ChaosModel` per link, and
    ``switch_restart`` specs (their link id naming the monitored link
    whose monitor reboots) become engine events — mirroring
    :func:`repro.chaos.schedule.materialize` on the two-switch topology.
    """
    out = FabricMaterialized(schedule=list(schedule))
    perts: dict[str, list[Perturbation]] = {}
    for spec in schedule:
        link_id = parse_link_target(spec.target)
        if link_id is None:
            raise ValueError(
                f"fabric schedules need link-addressed targets, got "
                f"{spec.target!r} (use link_target(a, b))")
        net.endpoints(link_id)  # validate early: unknown links fail loudly
        seed = stable_seed(base_seed, "fault", spec.index)
        _schedule_fault_episode(net, deployment, link_id, spec)
        if spec.kind in ("entry_loss", "uniform_loss", "control_loss"):
            out.losses.setdefault(link_id, []).append(build_loss(spec, seed))
        elif spec.kind == "switch_restart":
            if deployment is None or link_id not in deployment.monitors:
                raise ValueError(
                    f"switch_restart targets monitored link {link_id!r}, "
                    "which has no monitor deployed")
            out.restarts.append(spec)
            monitor = deployment.monitors[link_id]
            net.sim.schedule_at(float(spec.params["time"]), monitor.restart,
                                str(spec.params["side"]))
        else:
            perts.setdefault(link_id, []).append(
                build_perturbation(spec, seed))
    for link_id, models in out.losses.items():
        net.links[link_id].loss_model = CompositeFailure(models)
    for link_id, plist in perts.items():
        out.chaos[link_id] = ChaosModel(
            plist, name=link_id).attach(net.links[link_id])
    return out


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


@dataclass
class FabricSoakResult:
    """Outcome of one fabric soak run."""

    seed: int
    violations: list[Violation]
    schedule: list[FaultSpec]
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "schedule": [s.to_dict() for s in self.schedule],
            "stats": self.stats,
        }


def _soak_entries(config: FabricSoakConfig) -> tuple[list[str], list[str]]:
    dedicated = [f"hp/{i}" for i in range(config.n_dedicated)]
    best_effort = [f"be/{i}" for i in range(config.n_best_effort)]
    return dedicated, best_effort


def default_fabric_schedule(config: FabricSoakConfig) -> list[FaultSpec]:
    """The pinned soak schedule: one persistent entry-loss gray failure
    addressed to ``config.fault_link``, covering every entry."""
    dedicated, best_effort = _soak_entries(config)
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
                telemetry: Any | None = None) -> FabricSoakResult:
    """One invariant-checked soak on the ring fabric.

    Entries travel ``s0 → s2`` over the unique two-hop shortest path
    (``dst`` is chosen off the ring's antipode so ECMP never splits the
    flows), crossing monitors on ``s0->s1`` and ``s1->s2``; a third
    monitor on ``s2->s3`` carries no entry traffic and acts as the
    false-positive sentinel.  I1/I2 are checkpointed per monitor during
    the run; I3–I6 are asserted per monitored link after a full drain.
    """
    if config.ring_size < 4:
        raise ValueError("the ring soak needs at least four switches")
    dedicated, best_effort = _soak_entries(config)
    if schedule is None:
        schedule = default_fabric_schedule(config)

    sim = Simulator()
    net = FabricNetwork(sim, ring(config.ring_size))
    src, dst, sentinel_hop = "s0", "s2", "s3"
    for entry in dedicated + best_effort:
        net.add_entry(entry, src, dst)
    monitored = ["s0->s1", "s1->s2", f"{dst}->{sentinel_hop}"]

    fancy = FancyConfig(
        high_priority=dedicated,
        tree_params=HashTreeParams(width=8, depth=2, split=2, pipelined=True),
        dedicated_session_s=0.050,
        tree_session_s=0.200,
        twait_s=0.015,
        seed=stable_seed(config.seed, "fancy", bits=31),
    )
    deployment = FabricDeployment(net, config=fancy, links=monitored,
                                  telemetry=telemetry)

    sources: list[UdpSource] = []
    for i, entry in enumerate(dedicated + best_effort):
        source = UdpSource(
            sim, net.host(src).send, entry, flow_id=i,
            rate_bps=config.rate_bps, packet_size=config.packet_size,
            jitter=0.1, seed=stable_seed(config.seed, "src", i),
        )
        source.start(delay=0.001 * i)
        sources.append(source)
        sim.schedule_at(config.duration_s, source.stop)

    materialized = materialize_on_fabric(schedule, config.seed, net,
                                         deployment)
    deployment.start(stagger_s=0.005)

    # -- run with periodic I1/I2 checkpoints per monitor --------------------
    violations: list[Violation] = []
    trackers = {lid: SessionTracker(mon)
                for lid, mon in deployment.monitors.items()}
    end = config.duration_s + config.grace_s
    t = config.checkpoint_s
    while t < end + config.checkpoint_s / 2:
        sim.run(until=min(t, end))
        for lid, monitor in deployment.monitors.items():
            violations.extend(check_liveness(monitor, sim.now))
            violations.extend(trackers[lid].check(monitor, sim.now))
        t += config.checkpoint_s

    # -- wind-down: stop monitors, then drain to quiescence -----------------
    deployment.stop()
    sim.run()

    # -- I3/I4/I6 per monitored link ----------------------------------------
    faulted = {lid: [as_directional(s) for s in schedule
                     if parse_link_target(s.target) == lid]
               for lid in deployment.monitors}
    for lid, monitor in deployment.monitors.items():
        link_schedule = faulted[lid]
        violations.extend(check_attribution(
            monitor.log, link_schedule, monitor, dedicated, best_effort))
        violations.extend(check_detection(
            monitor.log, link_schedule, monitor, dedicated, best_effort,
            horizon=config.duration_s))
        violations.extend(check_integrity(
            monitor, materialized.chaos_models_for(lid), sim.now))
    # -- I5 on every wire of the fabric -------------------------------------
    violations.extend(check_conservation(
        [net.links[lid] for lid in sorted(net.links)], sim.now))

    if telemetry is not None:
        for monitor in deployment.monitors.values():
            traces = getattr(monitor.telemetry, "traces", None)
            if traces is not None:
                traces.finalize(sim.now)

    stats = {
        "sim_time": sim.now,
        "packets_sent": sum(s.packets_sent for s in sources),
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
    return FabricSoakResult(seed=config.seed, violations=violations,
                            schedule=list(schedule), stats=stats)
