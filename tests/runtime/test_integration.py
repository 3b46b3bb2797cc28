"""Runtime ↔ experiments integration: crash tolerance, determinism, caching.

These cover the subsystem acceptance behaviours end-to-end on micro-scale
grids so they stay fast:

* a heatmap sweep with one deliberately crashing cell still returns every
  other cell and surfaces the failure in the JSONL run log;
* parallel and serial runs of the same seeded fig9 grid are identical;
* entry-failure repetitions are reproducible across processes (the
  hashlib seed derivation, not ``repr``/``PYTHONHASHSEED`` dependent);
* heatmap sweeps resume from a pre-seeded cache dir.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path


from repro.experiments import fig9, heatmaps
from repro.experiments.heatmaps import HeatmapScale, run_heatmap
from repro.experiments.runner import ExperimentSpec, run_entry_failure
from repro.runtime import RuntimeContext
from repro.traffic.synthetic import EntrySize

REPO_ROOT = Path(__file__).resolve().parents[2]

MICRO = HeatmapScale(
    rows=(EntrySize(1e6, 20), EntrySize(100e3, 5)),
    loss_rates=(1.0, 0.1),
    repetitions=1,
    duration_s=4.0,
    max_pps_per_entry=100,
    n_background=2,
)

MICRO_TREE = HeatmapScale(
    rows=(EntrySize(1e6, 20), EntrySize(200e3, 5)),
    loss_rates=(1.0, 0.5),
    repetitions=1,
    duration_s=5.0,
    max_pps_per_entry=80,
    n_background=2,
)


class TestHeatmapCrashTolerance:
    def test_crashing_cell_keeps_rest_of_grid(self, monkeypatch, tmp_path):
        """Regression for the old bare ``pool.map`` that lost all work."""
        original = heatmaps._cell_worker

        def crashing(payload):
            spec, repetitions = payload
            if spec.loss_rate == 1.0 and spec.entry_size == MICRO.rows[0]:
                raise RuntimeError("deliberately poisoned cell")
            return original(payload)

        monkeypatch.setattr(heatmaps, "_cell_worker", crashing)
        log = tmp_path / "run.jsonl"
        result = run_heatmap(
            "dedicated", MICRO, seed=3,
            runtime=RuntimeContext(retries=1, run_log=log),
        )

        all_keys = {(i, j) for i in range(2) for j in range(2)}
        assert set(result["tpr"]) == all_keys - {(0, 0)}
        assert set(result["errors"]) == {(0, 0)}
        assert result["errors"][(0, 0)]["kind"] == "crash"
        assert "poisoned" in result["errors"][(0, 0)]["message"]
        # every surviving cell is a real simulation result
        assert result["tpr"][(1, 0)] >= 0.0

        events = [json.loads(l) for l in log.read_text().splitlines()]
        failed = [e for e in events if e["event"] == "cell_failed"]
        assert len(failed) == 1 and failed[0]["key"] == [0, 0]
        assert events[-1]["failed"] == 1


class TestParallelDeterminism:
    def test_fig9_parallel_matches_serial(self):
        """4-worker and serial runs of the same seeded grid are identical."""
        serial = fig9.run_single(scale=MICRO_TREE, seed=5)
        parallel = fig9.run_single(scale=MICRO_TREE, seed=5,
                                   runtime=RuntimeContext(workers=4))
        assert serial["tpr"] == parallel["tpr"]
        assert serial["latency"] == parallel["latency"]
        assert not serial["errors"] and not parallel["errors"]


class TestCrossProcessReproducibility:
    def test_entry_failure_reproducible_in_fresh_process(self):
        """The failure time (first RNG draw) matches a fresh interpreter,
        regardless of PYTHONHASHSEED — repr-based seeding did not."""
        spec = ExperimentSpec(
            entry_size=EntrySize(100e3, 2), loss_rate=1.0, n_background=0,
            duration_s=0.6, max_pps_per_entry=20, seed=11,
        )
        local = run_entry_failure(spec, rep=2).extra["failure_time"]
        code = (
            "from repro.experiments.runner import ExperimentSpec, run_entry_failure;"
            "from repro.traffic.synthetic import EntrySize;"
            "spec = ExperimentSpec(entry_size=EntrySize(100e3, 2), loss_rate=1.0,"
            " n_background=0, duration_s=0.6, max_pps_per_entry=20, seed=11);"
            "print(repr(run_entry_failure(spec, rep=2).extra['failure_time']))"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=env, check=True)
        assert float(out.stdout.strip()) == local


class TestHeatmapCaching:
    def test_second_run_hits_cache_and_matches(self, tmp_path):
        runtime = RuntimeContext(cache_dir=tmp_path / "cache")
        first = run_heatmap("dedicated", MICRO, seed=3, runtime=runtime)
        second = run_heatmap("dedicated", MICRO, seed=3, runtime=runtime)
        assert second["sweep"]["cache_hits"] == 4
        assert second["tpr"] == first["tpr"]
        assert second["latency"] == first["latency"]

    def test_seed_change_misses_cache(self, tmp_path):
        runtime = RuntimeContext(cache_dir=tmp_path / "cache")
        run_heatmap("dedicated", MICRO, seed=3, runtime=runtime)
        other = run_heatmap("dedicated", MICRO, seed=4, runtime=runtime)
        assert other["sweep"]["cache_hits"] == 0
