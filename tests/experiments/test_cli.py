"""Tests for the CLI entry point (cheap experiments only)."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import EXPERIMENTS, build_runtime, main
from repro.runtime import DEFAULT_CACHE_DIR, RuntimeContext


class TestCli:
    def test_all_experiments_registered(self):
        expected = {
            "table1", "table2", "fig2", "fig7", "fig8", "fig9a", "fig9b",
            "uniform", "table3", "baselines", "overhead", "table4", "fig10",
            "fig11", "table5", "telemetry", "fabric",
        }
        assert set(EXPERIMENTS) == expected

    def test_table2_via_cli(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Loss Radar" in out

    def test_table4_via_cli(self, capsys):
        assert main(["table4"]) == 0
        assert "switch.p4" in capsys.readouterr().out

    def test_overhead_via_cli(self, capsys):
        assert main(["overhead"]) == 0
        assert "overhead" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    @pytest.mark.parametrize("argv, complaint", [
        (["table2", "--shards", "4", "--fluid", "--trace"], "--trace, --fluid, --shards"),
        (["fig9a", "--fluid"], "--fluid"),
        (["fabric", "--shards", "-1"], "--shards must be >= 0"),
    ])
    def test_flags_that_would_do_nothing_are_rejected(self, argv, complaint, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert complaint in captured.err
        assert "===" not in captured.out     # nothing ran


def _default_args() -> argparse.Namespace:
    """Namespace with the CLI's default flag values."""
    return argparse.Namespace(
        workers=None, cache_dir=DEFAULT_CACHE_DIR, no_cache=False, seed=0,
        timeout=None, retries=1, run_log=None, quiet=False,
        telemetry=False, profile=False,
    )


class TestRuntimeFlags:
    """The CLI threads an explicit RuntimeContext — no mutable globals."""

    def test_no_workers_global_left(self):
        import repro.cli as cli
        assert not hasattr(cli, "_WORKERS")

    def test_build_runtime_defaults(self):
        ns = _default_args()
        runtime = build_runtime(ns)
        assert isinstance(runtime, RuntimeContext)
        assert runtime.workers is None
        assert str(runtime.cache_dir) == DEFAULT_CACHE_DIR
        assert runtime.seed == 0
        assert runtime.progress is True

    def test_build_runtime_no_cache(self):
        ns = _default_args()
        ns.no_cache = True
        assert build_runtime(ns).cache_dir is None

    def test_build_runtime_flags_flow_through(self):
        ns = _default_args()
        ns.workers, ns.seed, ns.timeout, ns.retries, ns.quiet = 4, 7, 30.0, 2, True
        runtime = build_runtime(ns)
        assert runtime.workers == 4
        assert runtime.seed == 7
        assert runtime.timeout_s == 30.0
        assert runtime.retries == 2
        assert runtime.progress is False

    def test_cli_run_with_runtime_flags(self, capsys, tmp_path):
        """End-to-end: flags parse and a (sweep-free) experiment still runs."""
        rc = main(["table2", "--workers", "2", "--seed", "3",
                   "--cache-dir", str(tmp_path / "cache"), "--quiet"])
        assert rc == 0
        assert "Loss Radar" in capsys.readouterr().out

    def test_cli_seed_flag_reaches_sweeps(self, capsys, tmp_path):
        """--seed flows into the experiment (uniform re-seeded run works)."""
        rc = main(["uniform", "--seed", "5", "--no-cache", "--quiet"])
        assert rc == 0
        assert "uniform" in capsys.readouterr().out
