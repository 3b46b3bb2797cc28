"""Metric catalogue: names, units, directions, bounds, and how each is
computed from the runs.  ``README.md`` carries the prose definitions.

Host-time metrics (measured on the machine's clock) vary run to run and
are reported as a sample; simulated-time metrics and counts are a pure
function of the inputs and are reported as one exact value.
"""

from __future__ import annotations

import statistics
from typing import Any

from harness import high_percentile, quartiles
from trace import LAYERS

#: name -> (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may get worse; 0 means it must not move.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.20),
    "sim_s_per_wall_s": ("sim-s/s", "higher", 0.10),
    "peak_rss_mib": ("MiB", "lower", 0.05),
    "events_per_detection": ("count", "lower", 0.0),
    "detection_latency_sim_ms": ("sim-ms", "lower", 0.0),
    "detected_fraction": ("ratio", "higher", 0.0),
    "false_flag_count": ("count", "lower", 0.0),
    "recovery_fraction": ("ratio", "higher", 0.0),
    "tpr_model_abs_err": ("ratio", "lower", 0.0),
    "failed_ops_fraction": ("ratio", "lower", 0.0),
}

#: Two workers on two cores give the noisiest wall, hence a wider bound.
BOUND_OVERRIDES = {("sim_s_per_wall_s", "fabric_sharded"): 0.15}

#: Host-time metrics: the ones the contract's driver gates (BENCHMARK.json).
HOST_TIME = ("sim_s_per_wall_s", "peak_rss_mib", "setup_s")

#: ``setup_s`` is a few tenths of a second, so a fifth of it is within
#: scheduler noise: the bound never drops below this many seconds.
SETUP_FLOOR_S = 0.05


def bound_for(metric: str, workload: str, parent_median: float) -> float:
    """Absolute amount ``metric`` may worsen on ``workload``."""
    share = BOUND_OVERRIDES.get((metric, workload), END_TO_END[metric][2])
    allowed = share * abs(parent_median)
    if metric == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    return allowed


def _entry(name: str, **fields: Any) -> dict[str, Any]:
    unit, better, _bound = END_TO_END[name]
    return {"unit": unit, "better": better, **fields}


def _sample(name: str, values: list[float]) -> dict[str, Any]:
    return _entry(name, values=values, **quartiles(values))


def end_to_end(runs: list[dict[str, Any]], setups: list[float],
               attempted: int, failed: int) -> dict[str, dict[str, Any]]:
    """Every end-to-end metric defined on these untraced runs.

    Simulated quantities come from the first run; ``judge`` has already
    counted any run that disagrees with it as failed.
    """
    summary = runs[0]["summary"]
    out = {
        "setup_s": _sample("setup_s", setups),
        "sim_s_per_wall_s": _sample(
            "sim_s_per_wall_s",
            [run["summary"]["sim_s"] / run["wall_s"] for run in runs]),
        "peak_rss_mib": _sample("peak_rss_mib",
                                [run["peak_rss_mib"] for run in runs]),
    }
    latencies = summary["latencies_ms"]
    if summary["injected"] and latencies:
        out["events_per_detection"] = _entry(
            "events_per_detection", value=summary["events"] / len(latencies))
        extra: dict[str, Any] = {"n": len(latencies)}
        high = high_percentile(latencies)
        if high is not None:
            extra["high_percentile"] = {"p": high[0], "value": high[1]}
        out["detection_latency_sim_ms"] = _entry(
            "detection_latency_sim_ms", value=statistics.median(latencies), **extra)
    if summary["injected"]:
        out["detected_fraction"] = _entry(
            "detected_fraction", value=summary["detected_fraction"])
    out["false_flag_count"] = _entry("false_flag_count", value=summary["false_flags"])
    for name in ("recovery_fraction", "tpr_model_abs_err"):
        if summary[name] is not None:
            out[name] = _entry(name, value=summary[name])
    out["failed_ops_fraction"] = _entry(
        "failed_ops_fraction", value=failed / attempted,
        attempted=attempted, failed=failed)
    return out


# -- per-layer ------------------------------------------------------------------------

#: Counts the results already carry: name -> (unit, better).
EXACT_COUNTS: dict[str, tuple[str, str]] = {
    "simulator.engine.events": ("count", "lower"),
    "simulator.engine.wall_us_per_event": ("us/event", "lower"),
    "simulator.fluid.absorbed": ("count", "higher"),
    "core.protocol.sessions_completed": ("count", "higher"),
    "core.protocol.events_per_session": ("count", "lower"),
    "core.detector.detections": ("count", "higher"),
    "fabric.rerouted_packets": ("count", "higher"),
    "service.breaches": ("count", "lower"),
    "service.absorbed_exhaustions": ("count", "higher"),
    "service.health_snapshots": ("count", "higher"),
    "telemetry.prometheus_bytes": ("count", "lower"),
    "telemetry.trace_bytes": ("count", "lower"),
    "runtime.jobs": ("count", "lower"),
    "runtime.jobs_failed": ("count", "lower"),
}

TRACE_METRICS: dict[str, tuple[str, str]] = {
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.span_count": ("count", "lower"),
}


def exact_counts(run: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The exact-count rows from one untraced run (0 = not carried)."""
    summary = run["summary"]
    events, sessions = summary["events"], summary["sessions"]
    values = {
        "simulator.engine.events": events,
        "simulator.engine.wall_us_per_event": run["wall_s"] * 1e6 / events,
        "simulator.fluid.absorbed": summary["absorbed"],
        "core.protocol.sessions_completed": sessions,
        "core.protocol.events_per_session": events / sessions if sessions else 0,
        "core.detector.detections": summary["n_detections"],
        "fabric.rerouted_packets": summary["rerouted_packets"],
        "service.breaches": summary["breaches"],
        "service.absorbed_exhaustions": summary["absorbed_exhaustions"],
        "service.health_snapshots": summary["health_snapshots"],
        "telemetry.prometheus_bytes": summary["prometheus_bytes"],
        "telemetry.trace_bytes": summary["trace_bytes"],
        "runtime.jobs": summary["jobs"],
        "runtime.jobs_failed": summary["jobs_failed"],
    }
    return {name: {"value": values[name], "unit": EXACT_COUNTS[name][0]}
            for name in EXACT_COUNTS}


def traced_layers(trace: dict[str, Any], untraced_wall_s: float
                  ) -> dict[str, dict[str, Any]]:
    """``<layer>.self_s`` / ``.calls_in`` plus the ``trace.*`` rows."""
    out: dict[str, dict[str, Any]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = {"value": trace["self_s"][layer], "unit": "s"}
        out[f"{layer}.calls_in"] = {"value": trace["calls_in"][layer], "unit": "count"}
    out["trace.coverage"] = {"value": trace["coverage"], "unit": "ratio"}
    out["trace.overhead_ratio"] = {
        "value": trace["wall_s"] / untraced_wall_s, "unit": "ratio"}
    out["trace.span_count"] = {"value": trace["span_count"], "unit": "count"}
    return out


def per_layer_names(probe_names: list[str]) -> list[str]:
    """Every per-layer metric a traced invocation prints, in order."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls_in")]
    return names + list(TRACE_METRICS) + list(EXACT_COUNTS) + list(probe_names)


def layer_better(name: str) -> str:
    if name in EXACT_COUNTS:
        return EXACT_COUNTS[name][1]
    if name in TRACE_METRICS:
        return TRACE_METRICS[name][1]
    return "lower"   # self time, boundary crossings, probe costs
