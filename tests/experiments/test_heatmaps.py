"""Tests for the heatmap machinery (micro scale, so they stay fast)."""

from __future__ import annotations

import pytest

from repro.experiments.heatmaps import (
    PAPER_SCALE,
    QUICK_SCALE,
    HeatmapScale,
    render_heatmap_pair,
    run_heatmap,
)
from repro.runtime import RuntimeContext
from repro.traffic.synthetic import ENTRY_SIZE_GRID, EntrySize

MICRO = HeatmapScale(
    rows=(EntrySize(1e6, 20), EntrySize(100e3, 5)),
    loss_rates=(1.0, 0.1),
    repetitions=1,
    duration_s=5.0,
    max_pps_per_entry=100,
    n_background=2,
)


class TestScales:
    def test_quick_scale_is_subset_of_paper(self):
        assert set(QUICK_SCALE.rows) <= set(PAPER_SCALE.rows)
        assert set(QUICK_SCALE.loss_rates) <= set(PAPER_SCALE.loss_rates)
        assert QUICK_SCALE.duration_s < PAPER_SCALE.duration_s

    def test_paper_scale_matches_paper_parameters(self):
        assert PAPER_SCALE.rows == ENTRY_SIZE_GRID
        assert PAPER_SCALE.repetitions == 10
        assert PAPER_SCALE.duration_s == 30.0
        assert PAPER_SCALE.max_pps_per_entry is None

    def test_subset_helper(self):
        smaller = PAPER_SCALE.subset(3)
        assert len(smaller.rows) == 6
        assert smaller.rows[0] == PAPER_SCALE.rows[0]


class TestRunHeatmap:
    @pytest.fixture(scope="class")
    def dedicated_result(self):
        return run_heatmap("dedicated", MICRO, seed=3)

    def test_grid_complete(self, dedicated_result):
        result = dedicated_result
        assert len(result["row_labels"]) == 2
        assert len(result["col_labels"]) == 2
        assert set(result["tpr"]) == {(i, j) for i in range(2) for j in range(2)}

    def test_values_sane(self, dedicated_result):
        result = dedicated_result
        assert all(0.0 <= v <= 1.0 for v in result["tpr"].values())
        assert all(v >= 0.0 for v in result["latency"].values())
        assert result["tpr"][(0, 0)] == 1.0

    def test_render_pair(self, dedicated_result):
        text = render_heatmap_pair("test", dedicated_result)
        assert "Avg TPR" in text and "detection time" in text
        assert "1Mbps/20" in text

    def test_tree_mode_and_n_failed(self):
        result = run_heatmap("tree", MICRO, seed=3, n_failed=2)
        assert result["n_failed"] == 2
        assert result["mode"] == "tree"
        assert result["tpr"][(0, 0)] >= 0.5


class TestParallelExecution:
    def test_parallel_matches_serial(self):
        """Process-pool cells must produce identical results (seeded)."""
        serial = run_heatmap("dedicated", MICRO, seed=9)
        parallel = run_heatmap("dedicated", MICRO, seed=9,
                               runtime=RuntimeContext(workers=2))
        assert serial["tpr"] == parallel["tpr"]
        assert serial["latency"] == parallel["latency"]
