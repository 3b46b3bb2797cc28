"""Experiment fig11 — sensitivity analysis of tree parameters (Appendix D).

Compares eight hash-based-tree geometries (depth/split/width, 125 KB–1 MB
of memory) under bursts of simultaneous prefix failures on the trace with
the most prefixes (trace 4).  Reported per design: TPR, median detection
time, false positives, and the fraction of failed bytes detected.

Expected shape (paper, Figure 11): bigger split → higher TPR and faster
detection for failure bursts (split-3 designs win; the split-1 design is
slowest with the worst TPR); bigger depth → slower detection with a mild
TPR cost; memory can be traded for speed without losing much TPR (e.g.
4/2/44 has decent TPR among the cheapest designs but among the worst
median detection times).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core.detector import FancyConfig, FancyLinkMonitor
from ..core.hashtree import HashTreeParams
from ..core.analysis import tree_total_memory_bits
from ..runtime.context import RuntimeContext, resolve
from ..runtime.executor import run_sweep
from ..runtime.jobs import Job, fingerprint, stable_seed
from ..simulator.failures import EntryLossFailure
from ..traffic.zipf import assign_rates
from .metrics import median
from .report import render_table
from .runner import link_trial

__all__ = ["Fig11Config", "TREE_DESIGNS", "run", "render", "main"]

#: The eight designs of Figure 11: (depth, split, width) and the paper's
#: memory label.
TREE_DESIGNS: tuple[tuple[HashTreeParams, str], ...] = (
    (HashTreeParams(width=205, depth=3, split=3, pipelined=True), "3/3/205 (1MB)"),
    (HashTreeParams(width=190, depth=3, split=2, pipelined=True), "3/2/190 (500KB)"),
    (HashTreeParams(width=100, depth=3, split=3, pipelined=True), "3/3/100 (500KB)"),
    (HashTreeParams(width=32, depth=4, split=3, pipelined=True), "4/3/32 (500KB)"),
    (HashTreeParams(width=100, depth=3, split=2, pipelined=True), "3/2/100 (250KB)"),
    (HashTreeParams(width=44, depth=4, split=2, pipelined=True), "4/2/44 (250KB)"),
    (HashTreeParams(width=110, depth=3, split=1, pipelined=True), "3/1/110 (125KB)"),
    (HashTreeParams(width=28, depth=4, split=2, pipelined=True), "4/2/28 (125KB)"),
)


@dataclass(frozen=True)
class Fig11Config:
    designs: tuple[tuple[HashTreeParams, str], ...] = TREE_DESIGNS
    burst_sizes: tuple[int, ...] = (10, 50)
    n_prefixes: int = 400
    total_rate_bps: float = 12e6
    loss_rate: float = 1.0        # paper: 100 % loss bursts
    zooming_speed_s: float = 0.200
    duration_s: float = 20.0
    failure_time_s: float = 1.5
    repetitions: int = 2          # paper: 10
    max_flows_per_second: float = 20.0
    seed: int = 0


QUICK_CONFIG = Fig11Config(
    designs=TREE_DESIGNS[:2] + TREE_DESIGNS[5:7],
    burst_sizes=(10,),
    n_prefixes=120,
    total_rate_bps=10e6,
    duration_s=14.0,
    repetitions=2,
)


def run_once(params: HashTreeParams, burst: int, config: Fig11Config, rep: int) -> dict:
    rng = random.Random(stable_seed(config.seed, params.width, params.depth,
                                    params.split, burst, rep))
    entries = [f"p{i}" for i in range(config.n_prefixes)]
    rates = assign_rates(entries, config.total_rate_bps, alpha=1.0)
    # Fail prefixes with observable traffic (paper: only prefixes detectable
    # at the tested zooming speed/depth), sampled from the top third.
    pool = entries[: config.n_prefixes // 3]
    failed = rng.sample(pool, min(burst, len(pool)))

    failure = EntryLossFailure(failed, config.loss_rate,
                               start_time=config.failure_time_s,
                               seed=rng.randrange(2 ** 31))
    sim, topo = link_trial(failure, [
        (entry, rates[entry],
         min(max(0.5, rates[entry] / 100e3), config.max_flows_per_second),
         1500, rng.randrange(2 ** 31))
        for entry in entries
    ])
    monitor = FancyLinkMonitor(
        sim, topo.upstream, 1, topo.downstream, 1,
        FancyConfig(high_priority=[], tree_params=params,
                    tree_session_s=config.zooming_speed_s, seed=config.seed + rep),
    )
    monitor.start()
    sim.run(until=config.duration_s)

    detection_times = []
    detected_rate = 0.0
    detected = 0
    for entry in failed:
        when = monitor.first_flag_time(entry)
        if when is not None and when >= config.failure_time_s:
            detected += 1
            detected_rate += rates[entry]
            detection_times.append(when - config.failure_time_s)
    failed_set = set(failed)
    fps = sum(1 for e in entries if e not in failed_set and monitor.entry_is_flagged(e))
    total_failed_rate = sum(rates[e] for e in failed)
    return {
        "tpr": detected / len(failed),
        "detected_bytes": detected_rate / total_failed_rate if total_failed_rate else 0.0,
        "median_detection": median(detection_times),
        "false_positives": fps,
    }


def _design_worker(payload: tuple) -> dict:
    """Top-level (picklable, cache-friendly) wrapper around run_once."""
    params, burst, config, rep = payload
    return run_once(params, burst, config, rep)


def run(config: Optional[Fig11Config] = None, quick: bool = True,
        runtime: Optional[RuntimeContext] = None) -> dict:
    config = config or (QUICK_CONFIG if quick else Fig11Config())
    jobs = [
        Job(
            key=(label, burst, rep),
            payload=(params, burst, config, rep),
            fingerprint=fingerprint("fig11", config, params, burst, rep),
            sim_s=config.duration_s,
        )
        for params, label in config.designs
        for burst in config.burst_sizes
        for rep in range(config.repetitions)
    ]
    sweep = run_sweep(jobs, _design_worker, runtime=resolve(runtime),
                      label="fig11")
    results: dict[tuple[str, int], dict] = {}
    for params, label in config.designs:
        for burst in config.burst_sizes:
            runs = [sweep.results[(label, burst, rep)]
                    for rep in range(config.repetitions)
                    if (label, burst, rep) in sweep.results]
            if not runs:
                continue
            medians = [r["median_detection"] for r in runs
                       if r["median_detection"] is not None]
            results[(label, burst)] = {
                "tpr": sum(r["tpr"] for r in runs) / len(runs),
                "detected_bytes": sum(r["detected_bytes"] for r in runs) / len(runs),
                "median_detection": median(medians),
                "false_positives": sum(r["false_positives"] for r in runs) / len(runs),
                "memory_kb": tree_total_memory_bits(params) / 8 / 1024,
            }
    return {"results": results, "config": config, "errors": sweep.errors}


def render(result: dict) -> str:
    headers = ["design", "burst", "TPR", "detected bytes", "median detection (s)",
               "FPs", "memory (KB)"]
    rows = []
    for (label, burst), data in result["results"].items():
        md = data["median_detection"]
        rows.append([
            label, str(burst),
            f"{data['tpr']:.2f}",
            f"{data['detected_bytes']:.2f}",
            "-" if md is None else f"{md:.2f}",
            f"{data['false_positives']:.1f}",
            f"{data['memory_kb']:.0f}",
        ])
    return render_table(
        "Figure 11 (Appendix D) — hash-based tree sensitivity under failure bursts",
        headers, rows,
    )


def main(quick: bool = True, runtime: Optional[RuntimeContext] = None) -> str:
    runtime = resolve(runtime)
    config = QUICK_CONFIG if quick else Fig11Config()
    if runtime.seed:
        from dataclasses import replace
        config = replace(config, seed=runtime.seed)
    text = render(run(config=config, quick=quick, runtime=runtime))
    print(text)
    return text
