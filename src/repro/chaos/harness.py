"""Invariant-checked soak harness (``fancy-repro chaos``).

One soak run builds the canonical two-switch topology, deploys a full
FANcY monitor (dedicated counters + a small zooming tree), drives
jittered UDP over a handful of entries, materialises a seeded random
fault schedule (:mod:`repro.chaos.schedule`), and then checks the
robustness invariants (:mod:`repro.chaos.invariants`):

* I1 liveness and I2 session monotonicity at every checkpoint;
* I3 attribution, I4 eventual detection, I5 conservation and
  I6 corruption integrity once, after the wind-down drain.

Wind-down sequence — order matters: traffic stops at ``duration_s``, the
monitor keeps running through a grace period (late detections of a
just-started persistent fault land here), then the harness marks itself
stopped, tears the monitor down, and drains the event queue completely
so conservation and integrity are checked against a quiescent wire.

The harness also installs a *recovery hook*: when a sender FSM declares
the link dead (state FAILED — terminal by design, §4.1 leaves
re-establishment to the control plane), the harness plays control plane
and revives the FSM shortly after.  Without this, one early LINK_DOWN
would end monitoring and trivially mask every later invariant.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams
from repro.core.output import FailureKind
from repro.core.protocol import SenderState
from repro.runtime.context import RuntimeContext
from repro.runtime.executor import run_sweep
from repro.runtime.jobs import Job, stable_seed
from repro.simulator.engine import Simulator
from repro.simulator.topology import PORT_TO_PEER, TwoSwitchTopology
from repro.simulator.udp import UdpSource

from .invariants import (
    SessionTracker,
    Violation,
    check_attribution,
    check_conservation,
    check_detection,
    check_integrity,
    check_liveness,
)
from .schedule import FaultSpec, Materialized, generate_schedule, materialize

__all__ = [
    "SoakConfig",
    "SoakResult",
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


class _RecoveryState:
    """Shared stop flag + revival counter for the link-failure hook."""

    __slots__ = ("stopped", "revivals")

    def __init__(self) -> None:
        self.stopped = False
        self.revivals = 0


def _install_recovery(monitor: FancyLinkMonitor, sim: Simulator,
                      state: _RecoveryState) -> None:
    """Chain a delayed FSM revival behind each sender's failure callback."""
    for sender in (monitor.dedicated_sender, monitor.tree_sender):
        if sender is None:
            continue

        original = sender.on_link_failure

        def wrapped(fsm_id: str, now: float, _sender: Any = sender,
                    _original: Any = original) -> None:
            if _original is not None:
                _original(fsm_id, now)  # record the LINK_DOWN report first

            def revive() -> None:
                # Guarded: never revive after teardown (a post-stop restart
                # would re-arm timers and the drain would never finish),
                # and never touch an FSM something else already revived.
                if state.stopped or _sender.state is not SenderState.FAILED:
                    return
                state.revivals += 1
                _sender.restart()

            sim.schedule(_REVIVE_DELAY_S, revive)

        sender.on_link_failure = wrapped


def _entries(config: SoakConfig) -> tuple[list[str], list[str]]:
    dedicated = [f"hp/{i}" for i in range(config.n_dedicated)]
    best_effort = [f"be/{i}" for i in range(config.n_best_effort)]
    return dedicated, best_effort


def run_soak(config: SoakConfig,
             schedule: list[FaultSpec] | None = None) -> SoakResult:
    """Execute one seeded soak run; return its violations and stats.

    ``schedule`` overrides the generated fault schedule — this is how the
    shrinker replays reduced schedules and how reproducer files replay
    pinned ones.  Everything else (traffic jitter, fault RNGs, hash
    seeds) derives from ``config.seed`` via ``stable_seed``.
    """
    dedicated, best_effort = _entries(config)
    if schedule is None:
        schedule = generate_schedule(config.seed, config.duration_s,
                                     dedicated, best_effort)

    sim = Simulator()
    topo = TwoSwitchTopology(sim)
    fancy = FancyConfig(
        high_priority=dedicated,
        tree_params=HashTreeParams(width=8, depth=2, split=2, pipelined=True),
        dedicated_session_s=0.050,
        tree_session_s=0.200,
        twait_s=0.015,  # > worst-case forward displacement budget (12 ms)
        seed=stable_seed(config.seed, "fancy", bits=31),
        accept_stale_responses=config.regression == "stale-session",
    )
    monitor = FancyLinkMonitor(sim, topo.upstream, PORT_TO_PEER,
                               topo.downstream, PORT_TO_PEER, config=fancy)
    state = _RecoveryState()
    _install_recovery(monitor, sim, state)

    sources: list[UdpSource] = []
    for i, entry in enumerate(dedicated + best_effort):
        src = UdpSource(
            sim, topo.source.send, entry, flow_id=i,
            rate_bps=config.rate_bps, packet_size=config.packet_size,
            jitter=0.1, seed=stable_seed(config.seed, "src", i),
        )
        src.start(delay=0.001 * i)
        sources.append(src)
        sim.schedule_at(config.duration_s, src.stop)

    materialized: Materialized = materialize(schedule, config.seed, sim,
                                             topo, monitor)
    monitor.start(delay=0.005)

    # -- run with periodic I1/I2 checkpoints --------------------------------
    violations: list[Violation] = []
    tracker = SessionTracker(monitor)
    end = config.duration_s + config.grace_s
    t = config.checkpoint_s
    while t < end - 1e-9:
        sim.run(until=t)
        violations.extend(check_liveness(monitor, sim.now))
        violations.extend(tracker.check(monitor, sim.now))
        t += config.checkpoint_s
    sim.run(until=end)
    violations.extend(check_liveness(monitor, sim.now))
    violations.extend(tracker.check(monitor, sim.now))

    # -- wind-down: stop, then drain to quiescence --------------------------
    state.stopped = True
    monitor.stop()
    sim.run()  # complete drain: in-flight packets, guarded revivals, etc.

    violations.extend(check_attribution(monitor.log, schedule, monitor,
                                        dedicated, best_effort))
    violations.extend(check_detection(monitor.log, schedule, monitor,
                                      dedicated, best_effort,
                                      horizon=config.duration_s))
    violations.extend(check_conservation([topo.link_ab, topo.link_ba],
                                         sim.now))
    violations.extend(check_integrity(monitor, materialized.chaos_models(),
                                      sim.now))

    stats = _collect_stats(monitor, topo, materialized, sources, state, sim)
    return SoakResult(seed=config.seed, violations=violations,
                      schedule=list(schedule), stats=stats)


def _collect_stats(monitor: FancyLinkMonitor, topo: TwoSwitchTopology,
                   materialized: Materialized, sources: list[UdpSource],
                   state: _RecoveryState, sim: Simulator) -> dict[str, Any]:
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
        "sim_time": sim.now,
        "packets_sent": sum(s.packets_sent for s in sources),
        "link_ab": topo.link_ab.stats.as_dict(),
        "link_ba": topo.link_ba.stats.as_dict(),
        "chaos": {m.name: m.stats() for m in materialized.chaos_models()},
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
        "revivals": state.revivals,
        "reports": reports,
    }


# -- named protocol-regression fixtures ----------------------------------------


def _stale_session_scenario(config: SoakConfig) -> tuple[SoakConfig,
                                                         list[FaultSpec]]:
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
    config = dataclasses.replace(
        config,
        regression="stale-session",
        duration_s=max(config.duration_s, 8.0),
    )
    schedule = [
        FaultSpec("reorder", "reverse",
                  {"rate": 1.0, "max_displacement_s": 0.3,
                   "start": 0.3, "end": None}, index=0),
        FaultSpec("duplicate", "reverse",
                  {"rate": 1.0, "copies": 2, "start": 0.3, "end": None},
                  index=1),
    ]
    return config, schedule


def _control_plane_grey_scenario(config: SoakConfig) -> tuple[SoakConfig,
                                                              list[FaultSpec]]:
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
    config = dataclasses.replace(
        config,
        regression="control-plane-grey",
        duration_s=max(config.duration_s, 8.0),
    )
    schedule = [
        FaultSpec("control_loss", "reverse",
                  {"rate": 0.2, "start": 0.3, "end": None}, index=0),
    ]
    return config, schedule


REGRESSIONS = {
    "stale-session": _stale_session_scenario,
    "control-plane-grey": _control_plane_grey_scenario,
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
        builder = REGRESSIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown regression {name!r}; "
            f"available: {', '.join(sorted(REGRESSIONS))}") from None
    return builder(config)


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
