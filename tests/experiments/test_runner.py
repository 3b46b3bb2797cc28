"""Tests for the shared experiment runner (kept cheap: short horizons)."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.experiments.heatmaps import QUICK_SCALE
from repro.experiments.runner import ExperimentSpec, run_cell, run_entry_failure
from repro.traffic.synthetic import EntrySize

FAST = dict(duration_s=6.0, n_background=3, max_pps_per_entry=150,
            failure_window_s=1.5)


class TestDedicatedMode:
    def test_blackhole_detected(self):
        spec = ExperimentSpec(entry_size=EntrySize(1e6, 20), loss_rate=1.0,
                              mode="dedicated", **FAST)
        run = run_entry_failure(spec)
        assert run.tpr == 1.0
        assert run.detection_times[0] < 1.0
        assert run.false_positives == 0

    def test_partial_loss_detected(self):
        spec = ExperimentSpec(entry_size=EntrySize(1e6, 20), loss_rate=0.1,
                              mode="dedicated", **FAST)
        assert run_entry_failure(spec).tpr == 1.0

    def test_repetitions_randomize_failure_time(self):
        spec = ExperimentSpec(entry_size=EntrySize(1e6, 20), loss_rate=1.0,
                              mode="dedicated", **FAST)
        t0 = run_entry_failure(spec, rep=0).extra["failure_time"]
        t1 = run_entry_failure(spec, rep=1).extra["failure_time"]
        assert t0 != t1

    def test_deterministic_given_seed_and_rep(self):
        spec = ExperimentSpec(entry_size=EntrySize(1e6, 20), loss_rate=0.5,
                              mode="dedicated", **FAST)
        a = run_entry_failure(spec, rep=0)
        b = run_entry_failure(spec, rep=0)
        assert a.detection_times == b.detection_times


class TestTreeMode:
    def test_blackhole_detected_via_tree(self):
        spec = ExperimentSpec(entry_size=EntrySize(1e6, 20), loss_rate=1.0,
                              mode="tree", **FAST)
        run = run_entry_failure(spec)
        assert run.tpr == 1.0
        # Tree detection takes >= depth sessions: slower than dedicated.
        assert run.detection_times[0] > 0.4

    def test_multi_entry_failures(self):
        spec = ExperimentSpec(entry_size=EntrySize(200e3, 5), loss_rate=1.0,
                              mode="tree", n_failed=5, duration_s=10.0,
                              n_background=3, max_pps_per_entry=50)
        run = run_entry_failure(spec)
        assert run.tpr == 1.0


class TestFullMode:
    def test_dedicated_covers_failed_entries(self):
        spec = ExperimentSpec(entry_size=EntrySize(1e6, 20), loss_rate=1.0,
                              mode="full", **FAST)
        run = run_entry_failure(spec)
        assert run.tpr == 1.0


class TestUniformMode:
    def test_uniform_failure_scored_as_single_detection(self):
        from repro.core.hashtree import HashTreeParams
        spec = ExperimentSpec(
            entry_size=EntrySize(100e3, 2), loss_rate=0.5, mode="tree",
            uniform=True, n_failed=0, n_background=120,
            tree_params=HashTreeParams(width=24, depth=3, split=2),
            duration_s=5.0, max_pps_per_entry=50,
        )
        run = run_entry_failure(spec)
        assert run.n_failed == 1
        assert run.tpr == 1.0


class TestRunCell:
    def test_aggregates_repetitions(self):
        spec = ExperimentSpec(entry_size=EntrySize(1e6, 20), loss_rate=1.0,
                              mode="dedicated", **FAST)
        cell = run_cell(spec, repetitions=2)
        assert cell.n_runs == 2
        assert cell.avg_tpr == 1.0

    def test_a_cell_holds_one_repetition_at_a_time(self):
        """Peak ``tracemalloc`` bytes of Figure 9a's heaviest quick cell
        (500 Mbps / 250 flows per second under a blackhole, seed 0) over
        both repetitions, and what is still traced when it returns.  When
        every sink lived until its simulator died and the second
        repetition started on the first one's uncollected simulator, it
        peaked at 7 192 191 bytes; with completed flows' sinks dropped,
        at 1 772 647 (mostly the blackholed entry's senders, which never
        complete).  Reclaiming each repetition at its end is what leaves
        ≈ 6 kB behind instead of the last simulator's ≈ 1.8 MB."""
        scale = QUICK_SCALE
        spec = ExperimentSpec(entry_size=scale.rows[0], loss_rate=scale.loss_rates[0],
                              n_background=scale.n_background, mode="tree",
                              duration_s=scale.duration_s,
                              max_pps_per_entry=scale.max_pps_per_entry)
        gc.collect()
        tracemalloc.start()
        try:
            cell = run_cell(spec, repetitions=2)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cell.n_runs == 2 and cell.avg_tpr == 1.0
        assert peak <= 2_000_000
        assert left <= 64_000

    def test_unknown_mode_rejected(self):
        spec = ExperimentSpec(mode="bogus")
        with pytest.raises(ValueError):
            run_entry_failure(spec)

    def test_pps_cap_scales_entry(self):
        spec = ExperimentSpec(entry_size=EntrySize(500e6, 250),
                              max_pps_per_entry=100)
        assert spec.effective_entry_size().packets_per_second() == pytest.approx(100)
