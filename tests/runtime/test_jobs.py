"""Tests for job fingerprints and the stable seed derivation."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.core.hashtree import HashTreeParams
from repro.experiments.runner import ExperimentSpec
from repro.runtime.jobs import (
    Job,
    canonical,
    fingerprint,
    spec_job,
    stable_seed,
)
from repro.traffic.synthetic import EntrySize

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCanonical:
    def test_dict_key_order_is_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_dataclass_renders_fields_recursively(self):
        text = canonical(ExperimentSpec(entry_size=EntrySize(1e6, 50)))
        assert "ExperimentSpec{" in text
        assert "EntrySize{" in text
        assert "HashTreeParams{" in text  # nested tree geometry included

    def test_float_repr_roundtrips(self):
        assert canonical(0.1) == repr(0.1)
        assert canonical(0.1) != canonical(0.10001)


class TestFingerprint:
    def test_stable_across_calls(self):
        spec = ExperimentSpec(loss_rate=0.5)
        assert fingerprint(spec, 3) == fingerprint(spec, 3)

    def test_changes_with_any_spec_field(self):
        base = ExperimentSpec(loss_rate=0.5)
        assert fingerprint(base) != fingerprint(ExperimentSpec(loss_rate=0.1))
        assert fingerprint(base) != fingerprint(ExperimentSpec(loss_rate=0.5, seed=1))
        assert fingerprint(base) != fingerprint(
            ExperimentSpec(loss_rate=0.5, duration_s=base.duration_s + 1)
        )

    def test_changes_with_tree_geometry(self):
        a = ExperimentSpec(tree_params=HashTreeParams(width=190, depth=3, split=2))
        b = ExperimentSpec(tree_params=HashTreeParams(width=190, depth=4, split=2))
        assert fingerprint(a) != fingerprint(b)

    def test_changes_with_repetitions(self):
        spec = ExperimentSpec()
        assert fingerprint(spec, 2) != fingerprint(spec, 3)

    def test_spec_job_builds_cacheable_job(self):
        spec = ExperimentSpec(loss_rate=0.5)
        job = spec_job((0, 1), spec, 2, sim_s=16.0)
        assert isinstance(job, Job)
        assert job.key == (0, 1)
        assert job.payload == (spec, 2)
        assert job.fingerprint == fingerprint(spec, 2, None)
        assert job.sim_s == 16.0


class TestStableSeed:
    def test_deterministic_and_distinct(self):
        assert stable_seed(7, 0, "setup") == stable_seed(7, 0, "setup")
        assert stable_seed(7, 0, "setup") != stable_seed(7, 1, "setup")
        assert stable_seed(7, 0, "setup") != stable_seed(8, 0, "setup")
        assert stable_seed(7, 0, "setup") != stable_seed(7, 0, "other")

    def test_fits_in_63_bits(self):
        assert 0 <= stable_seed(1, 2, 3) < (1 << 63)

    def test_identical_across_processes_and_hash_seeds(self):
        """The seed must not depend on PYTHONHASHSEED or process identity."""
        expected = stable_seed(7, 3, "setup")
        code = (
            "from repro.runtime.jobs import stable_seed;"
            "print(stable_seed(7, 3, 'setup'))"
        )
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            assert int(out.stdout.strip()) == expected
