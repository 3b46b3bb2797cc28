"""The five benchmark workloads.

Each workload is one call of a public function of the program, with
inputs built from the seed outside the timed region.  ``summarize``
turns the result into the run's *simulated statistics* — everything in
it is a pure function of the inputs, so it must repeat exactly from run
to run, with tracing on or off, and across commits that only change
speed.  Its SHA-256 is the digest the harness pins.

Why these five, and which layer each one loads, is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: seed -> inputs.  Runs before the timed region (part of ``setup_s``).
    build: Callable[[int], Any]
    #: (inputs, traced) -> result.  The timed region is exactly this call.
    run: Callable[[Any, bool], Any]
    #: (inputs, result) -> simulated statistics, see :func:`_summary`.
    summarize: Callable[[Any, Any], dict[str, Any]]


def digest(summary: dict[str, Any]) -> str:
    """Content hash of a run's simulated statistics."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _summary(*, sim_s: float, events: int, detections: list[Any],
             injected: int, latencies_ms: list[float], detected_fraction: Optional[float],
             false_flags: int, failed_checks: list[str], checks: int,
             absorbed: int = 0, sessions: int = 0, jobs: int = 0, jobs_failed: int = 0,
             recovery_fraction: Optional[float] = None,
             tpr_model_abs_err: Optional[float] = None,
             rerouted_packets: int = 0, breaches: int = 0,
             absorbed_exhaustions: int = 0, health_snapshots: int = 0,
             prometheus_bytes: int = 0, trace_bytes: int = 0,
             flagged: Any = None, n_detections: Optional[int] = None) -> dict[str, Any]:
    """One schema for all workloads; absent quantities stay 0 / None."""
    return {
        "sim_s": sim_s,
        "events": events,
        "absorbed": absorbed,
        "sessions": sessions,
        "jobs": jobs,
        "jobs_failed": jobs_failed,
        "detections": detections,
        "n_detections": len(detections) if n_detections is None else n_detections,
        "injected": injected,
        "latencies_ms": latencies_ms,
        "detected_fraction": detected_fraction,
        "false_flags": false_flags,
        "flagged": flagged,
        "recovery_fraction": recovery_fraction,
        "tpr_model_abs_err": tpr_model_abs_err,
        "rerouted_packets": rerouted_packets,
        "breaches": breaches,
        "absorbed_exhaustions": absorbed_exhaustions,
        "health_snapshots": health_snapshots,
        "prometheus_bytes": prometheus_bytes,
        "trace_bytes": trace_bytes,
        "failed_checks": failed_checks,
        "checks": checks,
    }


def _failed(checks: dict[str, bool]) -> list[str]:
    return [name for name, ok in checks.items() if not ok]


# -- paper_fig9a ---------------------------------------------------------------


@contextmanager
def _count_simulator_events() -> Iterator[list[int]]:
    """Sum ``events_processed`` over every ``Simulator.run`` in the block.

    The heatmap result does not carry event counts and its simulators
    are gone by the time it returns; wrapping the public ``run`` costs
    one extra frame per simulation (48 here), not per event.
    """
    from repro.simulator.engine import Simulator

    total = [0]
    original = Simulator.run

    def run(self: Any, until: Optional[float] = None) -> None:
        before = self.events_processed
        try:
            original(self, until)
        finally:
            total[0] += self.events_processed - before

    Simulator.run = run  # type: ignore[method-assign]
    try:
        yield total
    finally:
        Simulator.run = original  # type: ignore[method-assign]


def _build_fig9a(seed: int) -> dict[str, Any]:
    from repro.experiments import fig9  # noqa: F401  (import cost is set-up)
    from repro.experiments.heatmaps import QUICK_SCALE

    return {"seed": seed, "scale": QUICK_SCALE}


def _run_fig9a(inputs: dict[str, Any], traced: bool) -> dict[str, Any]:
    from repro.experiments import fig9

    with _count_simulator_events() as events:
        result = fig9.run_single(quick=True, seed=inputs["seed"])
    result["events_processed"] = events[0]
    return result


def _summarize_fig9a(inputs: dict[str, Any], result: dict[str, Any]) -> dict[str, Any]:
    from repro.core.probability import DetectionProbabilityModel
    from repro.experiments.runner import EVAL_TREE, ExperimentSpec

    scale = inputs["scale"]
    cells = result["cells"]
    spec = ExperimentSpec()
    model = DetectionProbabilityModel(session_s=spec.tree_session_s,
                                      depth=EVAL_TREE.depth)
    detections = []
    latencies_ms: list[float] = []
    injected = false_flags = 0
    model_err: list[float] = []
    for key in sorted(cells):
        cell = cells[key]
        i, j = key
        for rep, run in enumerate(cell.runs):
            injected += run.n_failed
            false_flags += run.false_positives
            latencies_ms.extend(t * 1e3 for t in run.detection_times)
            detections.append([i, j, rep, run.n_detected, run.detection_times])
        pps = scale.rows[i].scaled(scale.max_pps_per_entry).packets_per_second()
        horizon = statistics.fmean(run.horizon_s for run in cell.runs)
        predicted = model.detection_probability(pps, scale.loss_rates[j], horizon)
        model_err.append(abs(cell.avg_tpr - predicted))
    n_cells = len(scale.rows) * len(scale.loss_rates)
    sweep = result["sweep"]
    checks = {
        "sweep_has_no_errors": not result["errors"],
        "every_cell_ran": len(cells) == n_cells
        and all(c.n_runs == scale.repetitions for c in cells.values()),
    }
    return _summary(
        sim_s=n_cells * scale.repetitions * scale.duration_s,
        events=result["events_processed"],
        jobs=sweep["total"],
        jobs_failed=sweep["failed"],
        detections=detections,
        n_detections=len(latencies_ms),
        injected=injected,
        latencies_ms=latencies_ms,
        detected_fraction=statistics.fmean(c.avg_tpr for c in cells.values())
        if cells else 0.0,
        false_flags=false_flags,
        # The closed form goes through libm's exp(); keep the digest from
        # depending on its last bits.
        tpr_model_abs_err=round(statistics.fmean(model_err), 9) if model_err else None,
        failed_checks=_failed(checks), checks=len(checks),
    )


# -- fabric closed loop (discrete and fluid) --------------------------------------


def _fabric_config(seed: int, fluid: bool) -> Any:
    from repro.experiments.fabric import FabricExpConfig

    return FabricExpConfig(
        fat_tree_duration_s=30.0 if fluid else 4.0,
        background_entries=16, tree=True, fluid=fluid, seed=seed)


def _run_fat_tree(config: Any, traced: bool) -> dict[str, Any]:
    from repro.experiments import fabric

    return fabric.run_fat_tree_case(config)


def _unexplained(detections: list[Any], failed_link: str, victim: Any) -> int:
    """Distinct flagged (link, entry) pairs no injected fault explains."""
    flagged = {(rec[0], rec[2]) for rec in detections}
    flagged.discard((failed_link, repr(victim)))
    return len(flagged)


def _summarize_fat_tree(config: Any, result: dict[str, Any]) -> dict[str, Any]:
    detections = [list(rec) for rec in result["detections"]]
    delay = result["detection_delay"]
    recovery = result["recovery_fraction"]
    checks = {
        "fault_detected": delay is not None,
        "loop_closes": result["reroute_delay"] is not None,
        "recovery_above_0.8": recovery is not None and recovery > 0.8,
        "attribution_correct": bool(result["attribution_correct"]),
    }
    return _summary(
        sim_s=config.fat_tree_duration_s,
        events=result["events_processed"],
        absorbed=result["fluid_absorbed"],
        # The closed-loop result carries only the least-served link's
        # count; times the monitored links it is a lower bound.
        sessions=result["sessions_completed_min"] * result["n_sessions"],
        detections=detections,
        injected=1,
        latencies_ms=[] if delay is None else [delay * 1e3],
        detected_fraction=0.0 if delay is None else 1.0,
        false_flags=_unexplained(detections, result["failed_link"],
                                 result["victim"]),
        flagged=result["flagged_links"],
        recovery_fraction=recovery,
        rerouted_packets=result["rerouted_packets"],
        failed_checks=_failed(checks), checks=len(checks),
    )


# -- serve_soak ------------------------------------------------------------------


def _build_serve(seed: int) -> Any:
    from repro.service.soak import ServeConfig

    # The paper-timer QUICK of benchmarks/test_service_bench.py (50 ms
    # dedicated sessions on a 4-ring, 20 % control grey from t=2 s),
    # stretched from 20 to 300 simulated seconds.
    return ServeConfig(
        seed=seed, ring_size=4, duration_s=300.0, health_every_s=50.0,
        supervise_every_s=0.5, churn_every_s=8.0, universe_size=60, top_n=20,
        n_flows=6, total_rate_bps=2_000_000.0, dedicated_session_s=0.05,
        tree_session_s=0.2, twait_s=0.015, rtx_timeout_s=0.05,
        declare_grace_s=1.0, grey_start_s=2.0, trace_window_s=2.0)


def _run_serve(config: Any, traced: bool) -> Any:
    from repro.service.soak import run_serve

    return run_serve(config, shards=1)


def _summarize_serve(config: Any, result: Any) -> dict[str, Any]:
    declared = sorted(link for link, state in result.ladder_states.items()
                      if state == "declared")
    breaches = sum(result.breaches.values())
    checks = {
        "no_invariant_violation": result.ok,
        "every_link_served": len(result.links) == 2 * config.ring_size
        and all(n > 0 for n in result.sessions_completed.values()),
    }
    return _summary(
        sim_s=len(result.links) * config.duration_s,
        events=result.events_processed,
        absorbed=result.fluid_absorbed,
        sessions=sum(result.sessions_completed.values()),
        jobs=result.shards,
        detections=[list(rec) for rec in result.detections],
        # The default schedule greys a control channel only: no data-plane
        # fault is injected, so any flag, DECLARED link or breach is false.
        injected=0,
        latencies_ms=[],
        detected_fraction=None,
        false_flags=len(result.detections) + len(declared) + breaches,
        flagged=result.ladder_states,
        breaches=breaches,
        absorbed_exhaustions=result.absorbed_exhaustions,
        health_snapshots=len(result.snapshots),
        prometheus_bytes=len(result.prometheus),
        trace_bytes=len(result.trace_jsonl),
        failed_checks=_failed(checks), checks=len(checks),
    )


# -- fabric_sharded ----------------------------------------------------------------


def _build_sharded(seed: int) -> dict[str, Any]:
    from repro.experiments import fabric

    config = _fabric_config(seed, fluid=True)
    # The merged result does not name the planned fault; the plan is the
    # same pure function of the config the probes themselves use.
    plan = fabric._case_plan("fat_tree", config)
    return {"config": config, "failed_link": plan["failed_link"],
            "victim": plan["victim"]}


def _run_sharded(inputs: dict[str, Any], traced: bool) -> dict[str, Any]:
    from repro.experiments import fabric
    from repro.runtime import RuntimeContext

    # A tracer only sees its own process, so the traced run keeps the
    # two-shard plan but executes the shards in process; the result is
    # byte-identical for any worker count.
    workers = 1 if traced else 2
    # quick=True would silently overwrite the durations.
    return fabric.run_sharded(
        inputs["config"], case="fat_tree", shards=2,
        runtime=RuntimeContext(workers=workers), quick=False)


def _summarize_sharded(inputs: dict[str, Any], result: dict[str, Any]) -> dict[str, Any]:
    config = inputs["config"]
    failed_link, victim = inputs["failed_link"], inputs["victim"]
    detections = [list(rec) for rec in result["detections"]]
    on_fault = [rec[3] for rec in detections
                if rec[0] == failed_link and rec[2] == repr(victim)]
    first = min(on_fault) if on_fault else None
    n_links = len(result["links"])
    checks = {
        "every_link_probed": n_links == 64
        and all(n > 0 for n in result["sessions_completed"].values()),
        "fault_detected": first is not None,
    }
    return _summary(
        sim_s=n_links * config.fat_tree_duration_s,
        events=result["events_processed"],
        absorbed=result["fluid_absorbed"],
        sessions=sum(result["sessions_completed"].values()),
        jobs=result["shards"],
        detections=detections,
        injected=1,
        latencies_ms=[] if first is None
        else [(first - config.failure_time_s) * 1e3],
        detected_fraction=0.0 if first is None else 1.0,
        false_flags=_unexplained(detections, failed_link, victim),
        prometheus_bytes=len(result["prometheus"]),
        trace_bytes=len(result["trace_jsonl"]),
        failed_checks=_failed(checks), checks=len(checks),
    )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "paper_fig9a",
        "the figure people regenerate: 48 TCP sims with zooming under real loss; "
        "fabric, fluid, service and telemetry idle",
        _build_fig9a, _run_fig9a, _summarize_fig9a),
    Workload(
        "fabric_discrete",
        "per-packet path at fabric scale: engine+link+switch with 64 monitors "
        "tagging every packet; TCP and fluid idle",
        lambda seed: _fabric_config(seed, fluid=False),
        _run_fat_tree, _summarize_fat_tree),
    Workload(
        "fabric_fluid",
        "same scenario fed in bulk: protocol FSMs and counter absorb dominate; "
        "a per-packet-path gain must not move it",
        lambda seed: _fabric_config(seed, fluid=True),
        _run_fat_tree, _summarize_fat_tree),
    Workload(
        "serve_soak",
        "long-running operator run: entry churn, control grey, ladder, I1-I6 "
        "supervision, health snapshots, trace JSONL",
        _build_serve, _run_serve, _summarize_serve),
    Workload(
        "fabric_sharded",
        "only run that crosses processes: 2-worker pool, pickling, 64 net builds, "
        "shard merge of Prometheus and traces",
        _build_sharded, _run_sharded, _summarize_sharded),
)}

