"""Invariant-checked soak harness (``fancy-repro chaos``).

Every soak runs through one driver, :func:`drive_soak`, on a
:class:`~repro.fabric.graph.FabricNetwork`.  A builder lays out the
fabric, its entries and its FANcY monitors; the driver drives jittered
UDP over the entries, wires the fault schedule through
:func:`repro.chaos.schedule.materialize`, and ticks one
:class:`~repro.chaos.invariants.LinkInvariantObserver` per monitor — the
observer the serve supervises with — at every checkpoint (I1, I2 and
incremental I3/I6) and once after the wind-down drain (I3–I6).
:func:`run_soak` builds the two-switch soak: a two-node fabric with one
full monitor on ``A->B`` under a seeded random schedule; the ring soak
(:func:`repro.fabric.chaos.fabric_soak`) is the other builder.  Both
read one :class:`SoakConfig`.

Wind-down sequence — order matters: traffic stops at ``duration_s``, the
monitors keep running through a grace period (late detections of a
just-started persistent fault land here), then the driver marks itself
stopped, tears the monitors down, and drains the event queue completely
so conservation and integrity are checked against a quiescent wire.

The driver also installs a *recovery hook* on every monitor: when a
sender FSM declares the link dead (state FAILED — terminal by design,
§4.1 leaves re-establishment to the control plane), the driver plays
control plane and revives the FSM shortly after.  Without this, one
early LINK_DOWN would end monitoring and trivially mask every later
invariant.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams
from repro.core.output import FailureKind
from repro.core.protocol import SenderState
from repro.fabric.graph import FabricGraph, FabricNetwork
from repro.runtime.context import RuntimeContext
from repro.runtime.executor import run_sweep
from repro.runtime.jobs import Job, stable_seed
from repro.simulator.engine import Simulator
from repro.simulator.udp import UdpSource

from .invariants import LinkInvariantObserver, Violation
from .schedule import FaultSpec, Materialized, generate_schedule, materialize

__all__ = [
    "SoakConfig",
    "SoakResult",
    "SoakRun",
    "drive_soak",
    "soak_entries",
    "soak_fancy_config",
    "run_soak",
    "run_many",
    "soak_worker",
    "regression_scenario",
    "REGRESSIONS",
    "REGRESSION_EXPECTATIONS",
]

#: Seconds after a LINK_DOWN declaration before the harness's stand-in
#: control plane revives the FAILED sender FSM.
_REVIVE_DELAY_S = 0.3


@dataclass(frozen=True)
class SoakConfig:
    """One soak run's knobs (JSON-round-trippable for the reproducer)."""

    seed: int = 0
    duration_s: float = 4.0          #: traffic horizon (faults live here)
    grace_s: float = 2.5             #: monitor-only tail for late detections
    checkpoint_s: float = 0.25       #: I1/I2 sampling period
    n_dedicated: int = 4
    n_best_effort: int = 2
    rate_bps: float = 640_000.0      #: per-entry (200 pps of 400 B frames)
    packet_size: int = 400
    regression: str | None = None    #: named protocol-regression fixture

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SoakConfig":
        return cls(**{f.name: d[f.name] for f in dataclasses.fields(cls)
                      if f.name in d})


@dataclass
class SoakResult:
    """Outcome of one soak run."""

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


class _Recovery:
    """The driver's stand-in control plane: it revives a FAILED sender
    FSM ``_REVIVE_DELAY_S`` after the FSM declared its link down."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.stopped = False
        self.revivals = 0

    def install(self, monitor: FancyLinkMonitor) -> None:
        """Chain a delayed revival behind each sender's failure callback."""
        for sender in (monitor.dedicated_sender, monitor.tree_sender):
            if sender is not None:
                sender.on_link_failure = functools.partial(
                    self._declared, sender, sender.on_link_failure)

    def _declared(self, sender: Any, original: Any, fsm_id: str,
                  now: float) -> None:
        if original is not None:
            original(fsm_id, now)  # record the LINK_DOWN report first
        self.sim.schedule(_REVIVE_DELAY_S, self._revive, sender)

    def _revive(self, sender: Any) -> None:
        # Guarded: never revive after teardown (a post-stop restart would
        # re-arm timers and the drain would never finish), and never touch
        # an FSM something else already revived.
        if self.stopped or sender.state is not SenderState.FAILED:
            return
        self.revivals += 1
        sender.restart()


def soak_entries(config: SoakConfig) -> tuple[list[str], list[str]]:
    """A soak's (dedicated, best-effort) entry names."""
    dedicated = [f"hp/{i}" for i in range(config.n_dedicated)]
    best_effort = [f"be/{i}" for i in range(config.n_best_effort)]
    return dedicated, best_effort


def soak_fancy_config(config: SoakConfig,
                      dedicated: list[str]) -> FancyConfig:
    """The soak monitors' FANcY configuration, seeded from ``config.seed``.

    The ``stale-session`` fixture is the one that turns stale-response
    rejection off.
    """
    return FancyConfig(
        high_priority=dedicated,
        tree_params=HashTreeParams(width=8, depth=2, split=2, pipelined=True),
        dedicated_session_s=0.050,
        tree_session_s=0.200,
        twait_s=0.015,  # > worst-case data-wire displacement budget (12 ms)
        seed=stable_seed(config.seed, "fancy", bits=31),
        accept_stale_responses=config.regression == "stale-session",
    )


@dataclass
class SoakRun:
    """What :func:`drive_soak` leaves for its builder's stats."""

    violations: list[Violation]
    packets_sent: int
    materialized: Materialized
    revivals: int


def drive_soak(
    config: SoakConfig,
    net: FabricNetwork,
    src: str,
    monitors: Mapping[str, FancyLinkMonitor],
    schedule: list[FaultSpec],
    arm: Callable[[], Materialized],
) -> SoakRun:
    """Drive one soak on a built fabric and check I1–I6 per monitor.

    ``config`` supplies the traffic and timing.  The :func:`soak_entries`
    send from ``src``'s host.  ``arm`` wires ``schedule`` and starts the
    monitors once the sources are scheduled.  Each monitor's observer
    reads the whole schedule from its own link.  The first observer
    checks conservation on every wire.
    """
    sim = net.sim
    dedicated, best_effort = soak_entries(config)
    recovery = _Recovery(sim)
    for monitor in monitors.values():
        recovery.install(monitor)

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

    materialized = arm()
    wires = [net.links[lid] for lid in sorted(net.links)]
    # Every observer gets every wire's chaos model: I6 takes from each
    # only the corruptions addressed to its own monitor's FSMs.
    models = materialized.chaos_models()
    observers = []
    for lid, monitor in monitors.items():
        observers.append(LinkInvariantObserver(
            monitor, schedule, dedicated, best_effort,
            links=wires if not observers else [],
            chaos_models=models, link_id=lid))

    # -- run, ticking every observer at each checkpoint ---------------------
    end = config.duration_s + config.grace_s
    t = config.checkpoint_s
    while True:
        last = t >= end - 1e-9
        sim.run(until=end if last else t)
        for observer in observers:
            observer.tick(sim.now)
        if last:
            break
        t += config.checkpoint_s

    # -- wind-down: stop, drain to quiescence, final checks -----------------
    recovery.stopped = True
    for monitor in monitors.values():
        monitor.stop()
    sim.run()  # complete drain: in-flight packets, guarded revivals, etc.
    for observer in observers:
        observer.final(sim.now, horizon=config.duration_s)

    return SoakRun(
        violations=[v for observer in observers for v in observer.breaches],
        packets_sent=sum(s.packets_sent for s in sources),
        materialized=materialized,
        revivals=recovery.revivals,
    )


def run_soak(config: SoakConfig,
             schedule: list[FaultSpec] | None = None) -> SoakResult:
    """Execute one seeded two-switch soak; return its violations and stats.

    ``schedule`` overrides the generated fault schedule — this is how the
    shrinker replays reduced schedules and how reproducer files replay
    pinned ones.  Everything else (traffic jitter, fault RNGs, hash
    seeds) derives from ``config.seed`` via ``stable_seed``.
    """
    dedicated, best_effort = soak_entries(config)
    if schedule is None:
        schedule = generate_schedule(config.seed, config.duration_s,
                                     dedicated, best_effort, ["A->B"])

    sim = Simulator()
    graph = FabricGraph("pair")
    graph.add_edge("A", "B")
    net = FabricNetwork(sim, graph)
    for entry in dedicated + best_effort:
        net.add_entry(entry, "A", "B")
    monitor = FancyLinkMonitor(
        sim, net.switch("A"), net.port_to("A", "B"),
        net.switch("B"), net.port_to("B", "A"),
        config=soak_fancy_config(config, dedicated))

    def arm() -> Materialized:
        materialized = materialize(schedule, config.seed, net,
                                   {"A->B": monitor})
        monitor.start(delay=0.005)
        return materialized

    run = drive_soak(config, net, "A", {"A->B": monitor}, schedule, arm)
    return SoakResult(seed=config.seed, violations=run.violations,
                      schedule=list(schedule),
                      stats=_collect_stats(monitor, net, run))


def _collect_stats(monitor: FancyLinkMonitor, net: FabricNetwork,
                   run: SoakRun) -> dict[str, Any]:
    fsms = {
        "dedicated_sender": monitor.dedicated_sender,
        "tree_sender": monitor.tree_sender,
        "dedicated_receiver": monitor.dedicated_receiver,
        "tree_receiver": monitor.tree_receiver,
    }
    reports: dict[str, int] = {}
    for kind in FailureKind:
        n = len(monitor.log.by_kind(kind))
        if n:
            reports[kind.value] = n
    return {
        "sim_time": net.sim.now,
        "packets_sent": run.packets_sent,
        "link_ab": net.link("A", "B").stats.as_dict(),
        "link_ba": net.link("B", "A").stats.as_dict(),
        "chaos": {m.name: m.stats()
                  for m in run.materialized.chaos_models()},
        "sessions_completed": {
            name: fsm.sessions_completed
            for name, fsm in fsms.items()
            if fsm is not None and hasattr(fsm, "sessions_completed")
        },
        "rejected": {
            name: {"corrupt": fsm.rejected_corrupt,
                   "stale": fsm.rejected_stale}
            for name, fsm in fsms.items() if fsm is not None
        },
        "fsm_restarts": {
            name: fsm.restarts for name, fsm in fsms.items()
            if fsm is not None
        },
        "revivals": run.revivals,
        "reports": reports,
    }


# -- named protocol-regression fixtures ----------------------------------------


def _stale_session_schedule() -> list[FaultSpec]:
    """Disable stale-session rejection, then reorder + duplicate Reports.

    Every B→A control message is displaced by up to 300 ms and
    triplicated, so Reports from session *s* routinely straggle into the
    WAIT_REPORT window of session *s+1* (which opens ~130 ms after *s*
    completes — the displacement must exceed that gap for stragglers to
    land inside it).  The un-hardened sender acts on them, compares the
    wrong session's snapshot against its live counters, and raises loss
    flags with no loss-class fault anywhere in the schedule — an I3
    attribution violation the soak must catch.  The hardened protocol
    (``accept_stale_responses=False``) passes this exact schedule
    silently (guarded by tests/chaos/test_harness.py).
    """
    return [
        FaultSpec("reorder", "link:B->A",
                  {"rate": 1.0, "max_displacement_s": 0.3,
                   "start": 0.3, "end": None}, index=0),
        FaultSpec("duplicate", "link:B->A",
                  {"rate": 1.0, "copies": 2, "start": 0.3, "end": None},
                  index=1),
    ]


def _control_plane_grey_schedule() -> list[FaultSpec]:
    """Persistent asymmetric loss on the control channel only.

    20% of B→A control messages (ACKs, counter Reports) vanish while the
    data plane stays perfect — the grey scenario the degradation ladder
    exists for (docs/ROBUSTNESS.md).  Unlike ``stale-session`` this
    fixture is expected to come back *clean*: lost responses are covered
    by the capped-backoff retransmit budget, any exhaustion that does
    slip through is attributable to the control-class fault (I3), and no
    loss flag may appear because no data packet was dropped.  CI runs it
    without negation — a violation here is a real protocol regression.
    """
    return [FaultSpec("control_loss", "link:B->A",
                      {"rate": 0.2, "start": 0.3, "end": None}, index=0)]


#: Named fixture -> its pinned schedule; every fixture runs >= 8 s.
REGRESSIONS = {
    "stale-session": _stale_session_schedule,
    "control-plane-grey": _control_plane_grey_schedule,
}

#: What each named fixture is expected to produce: ``"violate"`` fixtures
#: prove the harness has teeth (CI negates their exit status),
#: ``"clean"`` fixtures pin hard-won robustness behaviour (CI runs them
#: plain — a violation is a regression).
REGRESSION_EXPECTATIONS = {
    "stale-session": "violate",
    "control-plane-grey": "clean",
}


def regression_scenario(name: str,
                        config: SoakConfig) -> tuple[SoakConfig,
                                                     list[FaultSpec]]:
    """Resolve a named regression fixture into (config, pinned schedule)."""
    try:
        schedule = REGRESSIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown regression {name!r}; "
            f"available: {', '.join(sorted(REGRESSIONS))}") from None
    return dataclasses.replace(config, regression=name,
                               duration_s=max(config.duration_s, 8.0)), schedule


# -- parallel multi-seed execution ---------------------------------------------


def soak_worker(payload: dict[str, Any]) -> dict[str, Any]:
    """Module-level (picklable) worker for :func:`repro.runtime.run_sweep`."""
    config = SoakConfig.from_dict(payload["config"])
    schedule = payload.get("schedule")
    specs = ([FaultSpec.from_dict(d) for d in schedule]
             if schedule is not None else None)
    return run_soak(config, specs).to_dict()


def run_many(base: SoakConfig, seeds: list[int],
             runtime: RuntimeContext | None = None) -> dict[int, dict[str, Any]]:
    """Run one soak per seed (parallel under ``runtime.workers``).

    Soak jobs are deliberately uncacheable (empty fingerprint): a soak
    asserts *current-code* behaviour, and serving yesterday's verdict
    from the result cache would defeat the point of running it in CI.
    """
    jobs = [
        Job(key=seed,
            payload={"config": dataclasses.replace(base, seed=seed).to_dict()},
            fingerprint="", sim_s=base.duration_s + base.grace_s)
        for seed in seeds
    ]
    sweep = run_sweep(jobs, soak_worker, runtime=runtime, label="chaos-soak")
    out: dict[int, dict[str, Any]] = dict(sweep.results)
    for seed, err in sweep.errors.items():
        out[seed] = {"seed": seed, "ok": False, "schedule": [],
                     "stats": {},
                     "violations": [{"invariant": "CRASH", "time": -1.0,
                                     "detail": str(err)}]}
    return out
