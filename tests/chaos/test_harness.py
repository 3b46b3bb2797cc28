"""End-to-end tests for the invariant-checked soak harness.

The heavy lifting (50-seed randomized soaks) lives in the CI chaos job;
here a handful of fixed seeds prove the harness runs clean on the
hardened protocol, and the ``stale-session`` regression fixture proves
the harness *fails* when the hardening is disabled — i.e. the invariants
have teeth.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.chaos.harness import (
    REGRESSIONS,
    SoakConfig,
    regression_scenario,
    run_many,
    run_soak,
)
from repro.chaos.invariants import Violation
from repro.chaos.schedule import FaultSpec
from repro.chaos.shrink import load_reproducer, shrink, write_reproducer
from repro.fabric.chaos import FabricSoakConfig, fabric_soak
from repro.runtime import RuntimeContext

QUICK = SoakConfig(duration_s=4.0, grace_s=2.5)


@pytest.fixture(scope="module")
def regression_failure():
    """One failing stale-session run, shared by the fixture tests."""
    config, schedule = regression_scenario("stale-session", QUICK)
    result = run_soak(config, schedule)
    return config, schedule, result


class TestSoakPasses:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hardened_protocol_survives_random_schedules(self, seed):
        result = run_soak(dataclasses.replace(QUICK, seed=seed))
        assert result.ok, [v.to_dict() for v in result.violations]
        assert result.schedule  # never an empty schedule
        assert result.stats["packets_sent"] > 0
        # sessions keep completing despite the faults
        completed = result.stats["sessions_completed"]
        assert any(n > 0 for n in completed.values())

    def test_result_round_trips_to_json_dict(self):
        result = run_soak(dataclasses.replace(QUICK, seed=0))
        doc = result.to_dict()
        assert doc["ok"] is True
        assert doc["seed"] == 0
        assert [FaultSpec.from_dict(d) for d in doc["schedule"]] \
            == result.schedule


#: Per-FSM ``(rejected_corrupt, rejected_stale)`` totals, recorded while
#: ``payload_checksum`` was a truncated SHA-256 over text and re-asserted
#: across its replacement by CRC-32 over a binary encoding: changing how
#: the check is computed may change no verdict.  FSMs that rejected
#: nothing are left out.  Seed 6 is the one with receiver-side corruption.
PINNED_REJECTIONS = {
    0: {"dedicated_sender": (5, 0), "tree_sender": (4, 0)},
    1: {},
    2: {"tree_sender": (0, 1)},
    6: {"dedicated_sender": (0, 15), "tree_sender": (0, 3),
        "dedicated_receiver": (23, 0), "tree_receiver": (14, 0)},
    "stale-session": {"dedicated_sender": (0, 267), "tree_sender": (0, 128)},
    "control-plane-grey": {},
}


#: SHA-256 of ``json.dumps(result.to_dict(), sort_keys=True)``: the
#: whole soak result — violations, schedule and every stat — recorded
#: while the two-switch soak still ran on its own topology, its own
#: fault wiring and its own checkpoint loop, and the ring soak on a
#: copy of each.  One driver on the fabric may change no byte of either.
PINNED_RESULTS = {
    0: "ed5b329aca331fa89bbeba64a5c6011cce6a5ed4d14f7f314f2d72e4d04bdefc",
    6: "f89f8659cced9200d755cf7a3b2aa49561fa5824ca05011841fc357ed2b988af",
    "stale-session":
        "f366f2eb93f2c2d7909b4b0e3874f505858acb3e65bd64e3925c22ae3e207192",
    "control-plane-grey":
        "b19ea0b2e2d4485c6fb18fc70987d7952e7d9ccc103cbe00a62bfb141801f38b",
    "ring/3":
        "612b492bc09a467387dae50708e2968b60f39da5a0b6d0c27e3ab98398dfd197",
}


def _result_sha(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestResultsPinned:
    @pytest.mark.parametrize("seed", [0, 6])
    def test_seeded_soak_bytes(self, seed):
        result = run_soak(dataclasses.replace(QUICK, seed=seed))
        assert _result_sha(result) == PINNED_RESULTS[seed]

    def test_failing_fixture_bytes(self, regression_failure):
        _, _, result = regression_failure
        assert _result_sha(result) == PINNED_RESULTS["stale-session"]

    def test_clean_fixture_bytes(self):
        result = run_soak(*regression_scenario("control-plane-grey", QUICK))
        assert _result_sha(result) == PINNED_RESULTS["control-plane-grey"]

    def test_ring_soak_bytes(self):
        result = fabric_soak(FabricSoakConfig(seed=3))
        assert _result_sha(result) == PINNED_RESULTS["ring/3"]


class TestRejectionTotalsPinned:
    @pytest.mark.parametrize("scenario", PINNED_REJECTIONS, ids=str)
    def test_rejections_unchanged_by_the_checksum_swap(self, scenario):
        if isinstance(scenario, int):
            result = run_soak(dataclasses.replace(QUICK, seed=scenario))
        else:
            result = run_soak(*regression_scenario(scenario, QUICK))
        rejected = {
            fsm: (counts["corrupt"], counts["stale"])
            for fsm, counts in result.stats["rejected"].items()
            if counts["corrupt"] or counts["stale"]
        }
        assert rejected == PINNED_REJECTIONS[scenario]
        # every corruption the chaos models delivered was caught (I6)
        assert sum(c for c, _ in rejected.values()) == sum(
            m["corrupted_control"] for m in result.stats["chaos"].values())


class TestRegressionFixture:
    def test_known_fixture_registered(self):
        assert "stale-session" in REGRESSIONS
        with pytest.raises(ValueError):
            regression_scenario("no-such-fixture", QUICK)

    def test_unhardened_sender_violates_attribution(self, regression_failure):
        config, schedule, result = regression_failure
        assert config.regression == "stale-session"
        assert not result.ok
        assert {v.invariant for v in result.violations} == {"I3"}
        # stale Reports were actually delivered and acted upon
        rejected = result.stats["rejected"]["dedicated_sender"]
        assert rejected["stale"] > 0

    def test_hardened_protocol_passes_the_same_schedule(self,
                                                        regression_failure):
        config, schedule, _ = regression_failure
        hardened = dataclasses.replace(config, regression=None)
        result = run_soak(hardened, schedule)
        assert result.ok, [v.to_dict() for v in result.violations]
        # the faults still hit the wire: stale messages arrive, but the
        # hardened sender rejects instead of acting on them
        assert result.stats["rejected"]["dedicated_sender"]["stale"] > 0


class TestShrinking:
    def test_shrinks_to_single_fault(self, regression_failure):
        config, schedule, failing = regression_failure
        minimal, result, runs = shrink(
            schedule, failing, lambda cand: run_soak(config, cand))
        assert 1 <= len(minimal) < len(schedule)
        assert runs >= 1
        assert any(v.invariant == "I3" for v in result.violations)

    def test_reproducer_round_trip(self, regression_failure, tmp_path):
        config, schedule, result = regression_failure
        path = write_reproducer(tmp_path / "repro.json", config, schedule,
                                result, runs_used=2)
        loaded_config, loaded_schedule = load_reproducer(path)
        assert loaded_config == config
        assert loaded_schedule == schedule
        assert "--replay" in path.read_text()

    def test_reproducer_format_validated(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_reproducer(bogus)

    def test_replayed_reproducer_still_fails(self, regression_failure,
                                             tmp_path):
        config, schedule, result = regression_failure
        path = write_reproducer(tmp_path / "repro.json", config, schedule,
                                result)
        loaded_config, loaded_schedule = load_reproducer(path)
        replay = run_soak(loaded_config, loaded_schedule)
        assert not replay.ok
        assert any(v.invariant == "I3" for v in replay.violations)


class TestRunMany:
    def test_serial_sweep_returns_per_seed_docs(self):
        runtime = RuntimeContext(workers=None, cache_dir=None, progress=False)
        results = run_many(QUICK, [0, 1], runtime=runtime)
        assert sorted(results) == [0, 1]
        for seed, doc in results.items():
            assert doc["seed"] == seed
            assert doc["ok"] is True, doc["violations"]


class TestConfigAndViolations:
    def test_config_round_trip(self):
        config = SoakConfig(seed=9, duration_s=3.0, regression="stale-session")
        assert SoakConfig.from_dict(config.to_dict()) == config

    def test_violation_to_dict(self):
        v = Violation("I5", 1.25, "link ab: delivered mismatch")
        assert v.to_dict() == {"invariant": "I5", "time": 1.25,
                               "detail": "link ab: delivered mismatch"}
