"""Shared machinery for the Figure 7 / 9 heatmap experiments.

A heatmap sweeps (entry size × loss rate) cells; each cell runs several
randomized repetitions of an entry-failure experiment and aggregates TPR
and average detection time.  ``HeatmapScale`` holds the cost knobs: the
paper-faithful configuration (30 s horizon, 10 repetitions, uncapped
rates) versus the reduced default that preserves shape at tractable cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..runtime.context import RuntimeContext, resolve
from ..runtime.executor import run_sweep
from ..runtime.jobs import spec_job
from ..traffic.synthetic import ENTRY_SIZE_GRID, LOSS_RATES, EntrySize
from .metrics import CellResult
from .runner import ExperimentSpec, run_cell

__all__ = ["HeatmapScale", "QUICK_SCALE", "PAPER_SCALE", "run_heatmap", "render_heatmap_pair"]


@dataclass(frozen=True)
class HeatmapScale:
    """Cost/fidelity knobs for a heatmap sweep."""

    rows: tuple[EntrySize, ...]
    loss_rates: tuple[float, ...]
    repetitions: int
    duration_s: float
    max_pps_per_entry: Optional[float]
    n_background: int
    n_failed: int = 1

    def subset(self, every_nth_row: int) -> "HeatmapScale":
        return replace(self, rows=self.rows[::every_nth_row])


#: Reduced configuration used by the default benchmark harness.
QUICK_SCALE = HeatmapScale(
    rows=ENTRY_SIZE_GRID[::3],
    loss_rates=(1.0, 0.5, 0.1, 0.01),
    repetitions=2,
    duration_s=8.0,
    max_pps_per_entry=300,
    n_background=5,
)

#: Paper-faithful configuration (expensive; run via the CLI with --full).
PAPER_SCALE = HeatmapScale(
    rows=ENTRY_SIZE_GRID,
    loss_rates=LOSS_RATES,
    repetitions=10,
    duration_s=30.0,
    max_pps_per_entry=None,
    n_background=10,
)


def _cell_worker(payload: tuple) -> dict:
    """Top-level cell runner, one sweep job per heatmap cell.

    Takes ``(spec, repetitions)`` or ``(spec, repetitions, options)``
    and returns a JSON-serializable dict so the runtime can cache it.
    With ``options={"telemetry": True}`` the cell runs under a fresh
    :class:`~repro.telemetry.Telemetry` session and the returned dict
    carries the cell's metrics snapshot under ``"metrics"`` (which the
    executor forwards into the ``cell_done`` run-log event).
    """
    spec, repetitions, *rest = payload
    options = rest[0] if rest else {}
    if options.get("telemetry"):
        from ..telemetry.session import Telemetry

        session = Telemetry(profile=bool(options.get("profile")))
        out = run_cell(spec, repetitions=repetitions, telemetry=session).to_dict()
        out["metrics"] = session.snapshot()
        return out
    return run_cell(spec, repetitions=repetitions).to_dict()


def run_heatmap(mode: str, scale: HeatmapScale, seed: int = 0,
                n_failed: Optional[int] = None,
                runtime: Optional[RuntimeContext] = None) -> dict:
    """Sweep the grid; returns row/col labels plus TPR and latency maps.

    Execution goes through :func:`repro.runtime.run_sweep`: cells stream
    in as they complete, finished cells are cached (when the runtime has
    a cache dir), crashed cells are retried and — if they keep failing —
    reported under ``result["errors"]`` without losing the rest of the
    grid.  ``runtime.workers`` > 1 runs cells in parallel processes — the
    intended way to run the paper-faithful ``PAPER_SCALE`` sweeps, whose
    cells are independent simulations.
    """
    runtime = resolve(runtime)
    failed = n_failed if n_failed is not None else scale.n_failed
    options = None
    if runtime.telemetry:
        options = {"telemetry": True, "profile": runtime.profile}
    jobs = []
    for i, entry_size in enumerate(scale.rows):
        for j, loss_rate in enumerate(scale.loss_rates):
            spec = ExperimentSpec(
                entry_size=entry_size,
                loss_rate=loss_rate,
                n_failed=failed,
                n_background=scale.n_background,
                mode=mode,
                duration_s=scale.duration_s,
                max_pps_per_entry=scale.max_pps_per_entry,
                seed=seed + i * 101 + j,
            )
            jobs.append(spec_job(
                (i, j), spec, scale.repetitions,
                sim_s=scale.duration_s * scale.repetitions,
                options=options,
            ))

    sweep = run_sweep(jobs, _cell_worker, runtime=runtime,
                      label=f"heatmap:{mode}")
    cells: dict[tuple[int, int], CellResult] = {
        key: CellResult.from_dict(value) for key, value in sweep.results.items()
    }

    tpr = {key: cell.avg_tpr for key, cell in cells.items()}
    latency = {key: cell.avg_detection_time for key, cell in cells.items()}
    return {
        "row_labels": [e.label for e in scale.rows],
        "col_labels": [f"{r:.3%}".rstrip("0").rstrip(".") for r in scale.loss_rates],
        "tpr": tpr,
        "latency": latency,
        "cells": cells,
        "mode": mode,
        "n_failed": failed,
        "errors": sweep.errors,
        "sweep": sweep.summary,
    }


def render_heatmap_pair(title: str, result: dict) -> str:
    from .report import render_heatmap

    left = render_heatmap(
        f"{title} — Avg TPR",
        result["row_labels"],
        result["col_labels"],
        result["tpr"],
    )
    right = render_heatmap(
        f"{title} — Avg detection time (s)",
        result["row_labels"],
        result["col_labels"],
        result["latency"],
    )
    return left + "\n\n" + right
