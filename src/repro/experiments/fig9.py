"""Experiment fig9 — hash-based tree heatmaps (Figure 9a / 9b).

Figure 9a: single-entry failures monitored by the tree (depth 3, split 2,
width 190, 200 ms zooming).  Expected shape: TPR 1 for loss >10 %
regardless of entry size; degradation for low-traffic entries at ≤1 %
loss (three consecutive mismatching sessions become unlikely); detection
time ≈ 3 × zooming speed (~0.6–0.7 s) for healthy entries.

Figure 9b: 100 entries failing simultaneously.  Expected shape: TPR
consistent with 9a, detection time rising to ≈5–6 s for high-loss cells —
the pipelined zoom explores a bounded number of paths per session
(k^(d-1) = 4), so a hundred-entry burst drains over ~25 sessions.

The default (quick) scale reduces the 9b burst to 30 entries and caps
per-entry packet rates; the CLI exposes the paper-faithful sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..runtime.context import RuntimeContext, resolve
from ..traffic.synthetic import ENTRY_SIZE_GRID_100
from .heatmaps import PAPER_SCALE, QUICK_SCALE, HeatmapScale, render_heatmap_pair, run_heatmap

__all__ = ["run_single", "run_multi", "render", "main"]

QUICK_SCALE_MULTI = HeatmapScale(
    rows=ENTRY_SIZE_GRID_100[2::5],
    loss_rates=(1.0, 0.1),
    repetitions=1,
    duration_s=12.0,
    max_pps_per_entry=40,
    n_background=5,
    n_failed=30,
)

PAPER_SCALE_MULTI = replace(PAPER_SCALE, rows=ENTRY_SIZE_GRID_100, n_failed=100)


def run_single(scale: Optional[HeatmapScale] = None, quick: bool = True, seed: int = 0,
               runtime: Optional[RuntimeContext] = None) -> dict:
    scale = scale or (QUICK_SCALE if quick else PAPER_SCALE)
    return run_heatmap("tree", scale, seed=seed, n_failed=1, runtime=runtime)


def run_multi(scale: Optional[HeatmapScale] = None, quick: bool = True, seed: int = 0,
              runtime: Optional[RuntimeContext] = None) -> dict:
    scale = scale or (QUICK_SCALE_MULTI if quick else PAPER_SCALE_MULTI)
    return run_heatmap("tree", scale, seed=seed, runtime=runtime)


def render(result: dict) -> str:
    n = result["n_failed"]
    which = "9a (single-entry failures)" if n == 1 else f"9b ({n}-entry failures)"
    return render_heatmap_pair(f"Figure {which} — hash-based tree", result)


def main(quick: bool = True, multi: bool = False,
         runtime: Optional[RuntimeContext] = None) -> str:
    runtime = resolve(runtime)
    result = (run_multi(quick=quick, seed=runtime.seed, runtime=runtime) if multi
              else run_single(quick=quick, seed=runtime.seed, runtime=runtime))
    text = render(result)
    print(text)
    return text
