"""Experiment fig7 — dedicated counters heatmaps (Figure 7).

Single-entry gray failures tracked by a dedicated counter, swept over the
18-row entry-size grid and the loss-rate axis.  Expected shape (paper):

* TPR ≈ 1 everywhere the failed entry drives ≥500 Kbps or drops ≥1 % of
  packets; accuracy degrades only in the bottom-right corner (tiny
  entries × 0.1 % loss) where whole repetitions see no drop at all;
* detection time ≈ the counter-exchange frequency plus session
  opening/closing (~70–150 ms) for healthy-size entries, growing to
  seconds in the bottom rows where the first affected packet itself takes
  that long to appear.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.context import RuntimeContext, resolve
from .heatmaps import PAPER_SCALE, QUICK_SCALE, HeatmapScale, render_heatmap_pair, run_heatmap

__all__ = ["run", "render", "main"]


def run(scale: Optional[HeatmapScale] = None, quick: bool = True, seed: int = 0,
        workers: Optional[int] = None,
        runtime: Optional[RuntimeContext] = None) -> dict:
    scale = scale or (QUICK_SCALE if quick else PAPER_SCALE)
    return run_heatmap("dedicated", scale, seed=seed, workers=workers,
                       runtime=runtime)


def render(result: dict) -> str:
    return render_heatmap_pair("Figure 7 — dedicated counters", result)


def main(quick: bool = True, workers: Optional[int] = None,
         runtime: Optional[RuntimeContext] = None) -> str:
    runtime = resolve(runtime, workers=workers)
    text = render(run(quick=quick, seed=runtime.seed, runtime=runtime))
    print(text)
    return text
