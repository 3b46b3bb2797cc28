"""Experiment baselines — comparison to simple designs (§5.2).

Replays the Table 3 scenario against the §2.4 alternatives:

* **single link counter** — detects the loss but implicates every other
  prefix (false positives = all monitored prefixes minus the failed one);
* **dedicated-only within budget** — 1,024 exact counters per port
  (1.25 MB translated at 80 bits/entry): perfect for covered prefixes,
  blind for the rest, which carry ≈40 % of the bytes;
* **counting Bloom filter with FANcY's memory** — TPR comparable to the
  single-counter design but ≈100 false positives per detected failure
  versus FANcY's ≈0.03 (paper numbers).

FANcY's own numbers come from the Table 3 machinery, so the comparison
isolates the data-structure choice under identical traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

from ..baselines.simple import (
    CountingBloomReceiver,
    CountingBloomSender,
    SingleLinkCounterReceiver,
    SingleLinkCounterSender,
    StrategyLinkMonitor,
)
from ..core.analysis import max_dedicated_entries
from ..core.detector import FancyConfig, FancyLinkMonitor
from ..runtime.jobs import stable_seed
from ..simulator.failures import EntryLossFailure
from .report import render_table
from .runner import link_trial
from .table3 import QUICK_CONFIG, Table3Config, build_slice, slice_flows

__all__ = ["BaselineComparisonConfig", "run", "render", "main"]

#: FANcY's per-port memory budget in the evaluation (20 KB/port; 1.25 MB
#: switch-wide over 64 ports).
PORT_BUDGET_BYTES = 20 * 1024


@dataclass(frozen=True)
class BaselineComparisonConfig:
    table3: Table3Config = QUICK_CONFIG
    loss_rate: float = 0.5
    n_failures: int = 8
    cbf_cells: Optional[int] = None  # default: port budget / 32-bit cells
    seed: int = 7


def _run_design(design: str, failed_prefix: str, cfg: BaselineComparisonConfig,
                trace, sl) -> dict:
    t3 = cfg.table3
    rng = random.Random(stable_seed(cfg.seed, design, failed_prefix))
    failure_time = rng.uniform(0.5, 2.0)
    failure = EntryLossFailure({failed_prefix}, cfg.loss_rate,
                               start_time=failure_time, seed=rng.randrange(2 ** 31))
    sim, topo = link_trial(failure, slice_flows(sl, t3.max_flows_per_second, rng))
    link = (sim, topo.upstream, 1, topo.downstream, 1)

    monitor: Any
    if design == "fancy":
        monitor = FancyLinkMonitor(*link, FancyConfig(
            high_priority=trace.top_prefixes(t3.n_dedicated), tree_params=t3.tree,
            seed=cfg.seed))
    elif design == "single_counter":
        sender = SingleLinkCounterSender()
        monitor = StrategyLinkMonitor(*link, sender, SingleLinkCounterReceiver(),
                                      fsm_id="single")
    elif design == "dedicated_only":
        n = min(max_dedicated_entries(PORT_BUDGET_BYTES), len(sl.prefixes))
        monitor = FancyLinkMonitor(*link, FancyConfig(
            high_priority=list(sl.prefixes[:n]), tree_params=None, seed=cfg.seed))
    elif design == "counting_bloom":
        cells = cfg.cbf_cells or (PORT_BUDGET_BYTES * 8) // 32
        sender = CountingBloomSender(cells, candidate_entries=sl.prefixes,
                                     seed=cfg.seed)
        monitor = StrategyLinkMonitor(
            *link, sender, CountingBloomReceiver(cells, seed=cfg.seed),
            fsm_id="cbf", report_size_bytes=max(64, cells * 4 + 30),
        )
    else:
        raise ValueError(f"unknown design {design!r}")
    monitor.start()
    sim.run(until=t3.duration_s)

    n_prefixes = len(sl.prefixes)
    if design == "single_counter":
        detected = sender.detections > 0
        fps = (n_prefixes - 1) if detected else 0
    elif design == "counting_bloom":
        detected = failed_prefix in sender.flagged
        fps = len(sender.flagged - {failed_prefix})
    else:
        detected = monitor.first_flag_time(failed_prefix) is not None
        fps = sum(1 for p in sl.prefixes
                  if p != failed_prefix and monitor.entry_is_flagged(p))
    return {"detected": detected, "false_positives": fps,
            "rate_bps": sl.rates_bps[failed_prefix]}


DESIGNS = ("fancy", "single_counter", "dedicated_only", "counting_bloom")


def run(config: Optional[BaselineComparisonConfig] = None) -> dict:
    cfg = config or BaselineComparisonConfig()
    trace, sl = build_slice(cfg.table3.trace_indices[0], cfg.table3)
    rng = random.Random(cfg.seed)
    pool = list(sl.prefixes[: cfg.table3.failure_pool])
    sample = rng.sample(pool, min(cfg.n_failures, len(pool)))
    results: dict[str, dict] = {}
    for design in DESIGNS:
        outcomes = [_run_design(design, p, cfg, trace, sl) for p in sample]
        detected = [o for o in outcomes if o["detected"]]
        results[design] = {
            "tpr": len(detected) / len(outcomes) if outcomes else None,
            "avg_false_positives": (
                sum(o["false_positives"] for o in outcomes) / len(outcomes)
                if outcomes else None
            ),
            "n": len(outcomes),
        }
    results["_meta"] = {
        "n_prefixes": len(sl.prefixes),
        "loss_rate": cfg.loss_rate,
        "port_budget_bytes": PORT_BUDGET_BYTES,
    }
    return results


def render(result: dict) -> str:
    headers = ["design", "TPR", "avg false positives", "localizes?"]
    label = {
        "fancy": "FANcY (dedicated + tree)",
        "single_counter": "single counter per link",
        "dedicated_only": "dedicated counters within budget",
        "counting_bloom": "counting Bloom filter",
    }
    localizes = {
        "fancy": "yes",
        "single_counter": "no",
        "dedicated_only": "covered prefixes only",
        "counting_bloom": "with collisions",
    }
    rows = []
    for design in DESIGNS:
        data = result[design]
        rows.append([
            label[design],
            "-" if data["tpr"] is None else f"{data['tpr']:.1%}",
            "-" if data["avg_false_positives"] is None else f"{data['avg_false_positives']:.2f}",
            localizes[design],
        ])
    meta = result["_meta"]
    title = (
        f"§5.2 — comparison to simple designs "
        f"({meta['n_prefixes']} prefixes, loss {meta['loss_rate']:g}, "
        f"{meta['port_budget_bytes'] // 1024} KB/port budget)"
    )
    return render_table(title, headers, rows)


def main() -> str:
    text = render(run())
    print(text)
    return text
