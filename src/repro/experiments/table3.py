"""Experiment table3 — FANcY on CAIDA-like traces (Table 3, §5.2).

Methodology mirrors the paper: for each trace, dedicated counters go to
the 500 prefixes with the most bytes *trace-wide*; a 30-second slice is
replayed; prefixes drawn from the top of the slice fail one at a time at
a random instant, for each loss rate.  We score the TPR over prefixes
(total, and split by dedicated / hash-tree coverage), the TPR over bytes
(rate-weighted), and the average detection time.

Expected shape (paper): ≥91 % of affected bytes detected in 2–5 s for
loss ≥10 %; dedicated counters stay ≈100 % down to 0.1 % loss while the
tree's TPR collapses at ≤1 % loss (no drops in three consecutive
sessions), pulling the byte coverage down to ≈56–77 %; detection is
*better* at 50 % loss than at 100 % because blackholed TCP collapses to
sparse RTO retransmissions.

The quick configuration scales the slice down (fewer prefixes, scaled
rates, fewer sampled failures) while keeping the distributional shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core.detector import FancyConfig, FancyLinkMonitor
from ..core.hashtree import HashTreeParams
from ..runtime.context import RuntimeContext, resolve
from ..runtime.executor import run_sweep
from ..runtime.jobs import Job, fingerprint, stable_seed
from ..simulator.failures import EntryLossFailure
from ..traffic.caida import CAIDA_TRACES, SyntheticCaidaTrace, TraceSlice
from .report import render_table
from .runner import EVAL_TREE, link_trial

__all__ = ["Table3Config", "run", "render", "main", "run_one_failure", "build_slice",
           "slice_flows"]


@dataclass(frozen=True)
class Table3Config:
    trace_indices: tuple[int, ...] = (0, 1, 2, 3)
    loss_rates: tuple[float, ...] = (1.0, 0.75, 0.5, 0.1, 0.01, 0.001)
    n_dedicated: int = 500
    slice_prefixes: int = 250_000
    rate_scale: float = 1.0
    n_failures: int = 60            # paper: top-10,000 one by one
    failure_pool: int = 10_000      # sample failures from the top-N of the slice
    repetitions: int = 1            # paper: 3 per prefix
    duration_s: float = 30.0
    max_flows_per_second: float = 50.0
    tree: HashTreeParams = EVAL_TREE
    seed: int = 0


# The paper samples failures from the top 10 K of ≈250 K prefixes (the
# top ~4 % by traffic); the scaled-down pool keeps the same bias toward
# entries that actually drive traffic.
QUICK_CONFIG = Table3Config(
    trace_indices=(0,),
    loss_rates=(1.0, 0.5, 0.1),
    n_dedicated=40,
    slice_prefixes=250,
    rate_scale=0.004,
    n_failures=9,
    failure_pool=60,
    duration_s=10.0,
)


def build_slice(trace_index: int, config: Table3Config) -> tuple[SyntheticCaidaTrace, TraceSlice]:
    trace = SyntheticCaidaTrace(
        CAIDA_TRACES[trace_index],
        seed=config.seed,
        n_prefixes=min(config.slice_prefixes * 4, CAIDA_TRACES[trace_index].n_prefixes),
    )
    sl = trace.slice(
        duration_s=config.duration_s,
        max_prefixes=config.slice_prefixes,
        rate_scale=config.rate_scale,
        min_rate_bps=500,
    )
    return trace, sl


def slice_flows(sl: TraceSlice, max_flows_per_second: float,
                rng: random.Random) -> list[tuple[str, float, float, int, int]]:
    """One :func:`~repro.experiments.runner.link_trial` flow per slice prefix."""
    return [
        (prefix, sl.rates_bps[prefix],
         min(sl.flows_per_second[prefix], max_flows_per_second),
         sl.packet_size, rng.randrange(2 ** 31))
        for prefix in sl.prefixes
    ]


def run_one_failure(
    failed_prefix: str,
    loss_rate: float,
    trace: SyntheticCaidaTrace,
    sl: TraceSlice,
    config: Table3Config,
    rep: int = 0,
) -> dict:
    """Replay the slice with one prefix failing; score the detection."""
    rng = random.Random(stable_seed(config.seed, failed_prefix, loss_rate, rep))
    failure_time = rng.uniform(0.5, 2.0)
    failure = EntryLossFailure(
        {failed_prefix}, loss_rate, start_time=failure_time, seed=rng.randrange(2 ** 31)
    )
    sim, topo = link_trial(failure, slice_flows(sl, config.max_flows_per_second, rng))
    dedicated = trace.top_prefixes(config.n_dedicated)
    monitor = FancyLinkMonitor(
        sim, topo.upstream, 1, topo.downstream, 1,
        FancyConfig(high_priority=dedicated, tree_params=config.tree,
                    seed=config.seed + rep),
    )
    monitor.start()
    sim.run(until=config.duration_s)

    is_dedicated = failed_prefix in set(dedicated)
    when = monitor.first_flag_time(failed_prefix)
    detected = when is not None and when >= failure_time
    false_positives = sum(
        1 for p in sl.prefixes if p != failed_prefix and monitor.entry_is_flagged(p)
    )
    return {
        "prefix": failed_prefix,
        "rate_bps": sl.rates_bps[failed_prefix],
        "dedicated": is_dedicated,
        "detected": detected,
        "detection_time": (when - failure_time) if detected else None,
        "false_positives": false_positives,
    }


#: Per-process memo of rebuilt trace slices (worker processes rebuild the
#: deterministic slice once per (trace, config) instead of pickling it).
_SLICE_MEMO: dict = {}


def _rebuild_slice(trace_index: int, config: Table3Config):
    key = (trace_index, fingerprint(config))
    if key not in _SLICE_MEMO:
        _SLICE_MEMO[key] = build_slice(trace_index, config)
    return _SLICE_MEMO[key]


def _failure_worker(payload: tuple) -> dict:
    """Top-level (picklable, cache-friendly) wrapper around run_one_failure."""
    trace_index, prefix, loss_rate, config, rep = payload
    trace, sl = _rebuild_slice(trace_index, config)
    return run_one_failure(prefix, loss_rate, trace, sl, config, rep)


def run(config: Optional[Table3Config] = None, quick: bool = True,
        runtime: Optional[RuntimeContext] = None) -> dict:
    config = config or (QUICK_CONFIG if quick else Table3Config())
    jobs: list[Job] = []
    for loss_rate in config.loss_rates:
        for trace_index in config.trace_indices:
            trace, sl = _rebuild_slice(trace_index, config)
            rng = random.Random(stable_seed(config.seed, trace_index, loss_rate))
            pool = list(sl.prefixes[: config.failure_pool])
            dedicated = set(trace.top_prefixes(config.n_dedicated))
            # Stratified sample so both columns (dedicated / tree) have
            # data even with a small quick-mode sample.
            ded_pool = [p for p in pool if p in dedicated]
            tree_pool = [p for p in pool if p not in dedicated]
            n_ded = min(len(ded_pool), max(1, config.n_failures // 3))
            n_tree = min(len(tree_pool), config.n_failures - n_ded)
            sample = rng.sample(ded_pool, n_ded) + rng.sample(tree_pool, n_tree)
            for prefix in sample:
                for rep in range(config.repetitions):
                    jobs.append(Job(
                        key=(loss_rate, trace_index, prefix, rep),
                        payload=(trace_index, prefix, loss_rate, config, rep),
                        fingerprint=fingerprint(
                            "table3", config, trace_index, prefix, loss_rate, rep
                        ),
                        sim_s=config.duration_s,
                    ))
    sweep = run_sweep(jobs, _failure_worker, runtime=resolve(runtime),
                      label="table3")
    rows: dict[float, dict] = {}
    for loss_rate in config.loss_rates:
        outcomes = [sweep.results[job.key] for job in jobs
                    if job.key[0] == loss_rate and job.key in sweep.results]
        rows[loss_rate] = _aggregate(outcomes)
    return {"rows": rows, "config": config, "errors": sweep.errors}


def _aggregate(outcomes: list[dict]) -> dict:
    def tpr(subset: list[dict]) -> Optional[float]:
        if not subset:
            return None
        return sum(1 for o in subset if o["detected"]) / len(subset)

    total_bytes = sum(o["rate_bps"] for o in outcomes)
    detected_bytes = sum(o["rate_bps"] for o in outcomes if o["detected"])
    times = [o["detection_time"] for o in outcomes if o["detection_time"] is not None]
    return {
        "tpr_bytes": detected_bytes / total_bytes if total_bytes else None,
        "tpr_total": tpr(outcomes),
        "tpr_dedicated": tpr([o for o in outcomes if o["dedicated"]]),
        "tpr_tree": tpr([o for o in outcomes if not o["dedicated"]]),
        "avg_detection_time": sum(times) / len(times) if times else None,
        "avg_false_positives": (
            sum(o["false_positives"] for o in outcomes) / len(outcomes) if outcomes else None
        ),
        "n": len(outcomes),
    }


def render(result: dict) -> str:
    headers = [
        "loss rate", "TPR bytes", "TPR total", "TPR dedicated", "TPR hash-tree",
        "detection time (s)", "avg FPs", "runs",
    ]
    rows = []
    for loss, agg in result["rows"].items():
        rows.append([
            f"{loss:g}",
            _pct(agg["tpr_bytes"]),
            _pct(agg["tpr_total"]),
            _pct(agg["tpr_dedicated"]),
            _pct(agg["tpr_tree"]),
            "-" if agg["avg_detection_time"] is None else f"{agg['avg_detection_time']:.2f}",
            "-" if agg["avg_false_positives"] is None else f"{agg['avg_false_positives']:.2f}",
            str(agg["n"]),
        ])
    return render_table(
        "Table 3 — FANcY accuracy and detection speed on CAIDA-like traces",
        headers,
        rows,
    )


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1%}"


def main(quick: bool = True, runtime: Optional[RuntimeContext] = None) -> str:
    runtime = resolve(runtime)
    config = QUICK_CONFIG if quick else Table3Config()
    if runtime.seed:
        from dataclasses import replace
        config = replace(config, seed=runtime.seed)
    text = render(run(config=config, quick=quick, runtime=runtime))
    print(text)
    return text
