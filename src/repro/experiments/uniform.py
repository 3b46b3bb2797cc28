"""Experiment uniform — failures affecting all entries (§5.1.3).

Injects uniform random loss across every entry (the "link-level" gray
failure class: CRC errors, dirty fiber, interface flaps) with traffic
assigned to entries by a Zipf distribution.  Expected result (paper): in
all experiments FANcY detects the failure and classifies it as uniform —
a majority of root-level counters mismatch — with average detection time
of about one zooming interval (200 ms).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core.detector import FancyConfig, FancyLinkMonitor
from ..core.hashtree import HashTreeParams
from ..core.output import FailureKind
from ..runtime.context import RuntimeContext, resolve
from ..runtime.executor import run_sweep
from ..runtime.jobs import Job, fingerprint, stable_seed
from ..simulator.failures import UniformLossFailure
from ..traffic.zipf import assign_rates
from .report import render_table
from .runner import EVAL_TREE, link_trial

__all__ = ["UniformConfig", "run", "render", "main"]


@dataclass(frozen=True)
class UniformConfig:
    """Classifying a loss rate ``q`` as uniform requires more than
    ``width / 2`` root counters to mismatch within one zooming interval,
    i.e. roughly ``rate_pps × zoom × q > width`` — on the paper's 100 Gbps
    links that holds down to 0.1 % loss.  The Python-scale configurations
    shrink the tree width together with the traffic rate, but do not keep
    the inequality everywhere: ``QUICK_CONFIG``'s link carries ≈ 2 050
    data pps (24 Mbps of 1 500 B packets; 2 033 measured over t = 1–4 s),
    so at q = 0.5 the product is ≈ 205 > 48 = width, and at q = 0.1 it is
    ≈ 41 < 48.  There detection waits on a near-threshold session (13–29
    mismatching roots per session measured, against a bar of > 24)."""

    loss_rates: tuple[float, ...] = (1.0, 0.5, 0.1, 0.01)
    n_entries: int = 500
    total_rate_bps: float = 600e6
    zipf_alpha: float = 1.0
    tree: HashTreeParams = EVAL_TREE
    tree_session_s: float = 0.200
    duration_s: float = 5.0
    failure_time_s: float = 1.5
    repetitions: int = 2
    seed: int = 0


QUICK_CONFIG = UniformConfig(
    loss_rates=(0.5, 0.1),
    n_entries=300,
    total_rate_bps=24e6,
    tree=HashTreeParams(width=48, depth=3, split=2, pipelined=True),
    duration_s=4.0,
    repetitions=1,
)


def run_once(loss_rate: float, config: UniformConfig, rep: int) -> dict:
    rng = random.Random(stable_seed(config.seed, rep, loss_rate))
    failure = UniformLossFailure(
        loss_rate, start_time=config.failure_time_s, seed=rng.randrange(2 ** 31)
    )
    entries = [f"p{i}" for i in range(config.n_entries)]
    rates = assign_rates(entries, config.total_rate_bps, config.zipf_alpha)
    # Modest flows/s per entry.
    sim, topo = link_trial(failure, [
        (entry, rates[entry], max(0.5, rates[entry] / 200e3), 1500,
         rng.randrange(2 ** 31))
        for entry in entries
    ])
    monitor = FancyLinkMonitor(
        sim, topo.upstream, 1, topo.downstream, 1,
        FancyConfig(high_priority=[], tree_params=config.tree,
                    tree_session_s=config.tree_session_s, seed=config.seed + rep),
    )
    monitor.start()
    sim.run(until=config.duration_s)

    report = monitor.log.first_report(kind=FailureKind.UNIFORM)
    detected = report is not None and report.time >= config.failure_time_s
    return {
        "detected": detected,
        "detection_time": (report.time - config.failure_time_s) if detected else None,
        "uniform_reports": monitor.tree_strategy.uniform_reports,
        "leaf_reports": len(monitor.log.by_kind(FailureKind.TREE_LEAF)),
    }


def _uniform_worker(payload: tuple) -> dict:
    """Top-level (picklable, cache-friendly) wrapper around run_once."""
    loss_rate, config, rep = payload
    return run_once(loss_rate, config, rep)


def run(config: Optional[UniformConfig] = None, quick: bool = True,
        runtime: Optional[RuntimeContext] = None) -> dict:
    config = config or (QUICK_CONFIG if quick else UniformConfig())
    jobs = [
        Job(
            key=(loss, rep),
            payload=(loss, config, rep),
            fingerprint=fingerprint("uniform", config, loss, rep),
            sim_s=config.duration_s,
        )
        for loss in config.loss_rates
        for rep in range(config.repetitions)
    ]
    sweep = run_sweep(jobs, _uniform_worker, runtime=resolve(runtime),
                      label="uniform")
    rows = {}
    for loss in config.loss_rates:
        runs = [sweep.results[(loss, rep)] for rep in range(config.repetitions)
                if (loss, rep) in sweep.results]
        if not runs:
            continue
        detected = [r for r in runs if r["detected"]]
        times = [r["detection_time"] for r in detected]
        rows[loss] = {
            "detection_rate": len(detected) / len(runs),
            "avg_detection_time": sum(times) / len(times) if times else None,
            "runs": runs,
        }
    return {"rows": rows, "config": config, "errors": sweep.errors}


def render(result: dict) -> str:
    headers = ["loss rate", "detected", "avg detection time (s)"]
    rows = []
    for loss, data in result["rows"].items():
        t = data["avg_detection_time"]
        rows.append([
            f"{loss:g}",
            f"{data['detection_rate']:.0%}",
            "-" if t is None else f"{t:.3f}",
        ])
    return render_table(
        "§5.1.3 — uniform failures: detection as uniform random drops "
        "(expected ≈ one zooming interval)",
        headers,
        rows,
    )


def main(quick: bool = True, runtime: Optional[RuntimeContext] = None) -> str:
    runtime = resolve(runtime)
    config = QUICK_CONFIG if quick else UniformConfig()
    if runtime.seed:
        from dataclasses import replace
        config = replace(config, seed=runtime.seed)
    text = render(run(config=config, quick=quick, runtime=runtime))
    print(text)
    return text
