"""Tests for the fault-tolerant sweep executor."""

from __future__ import annotations

import json
import os
import signal
import time
import weakref
from pathlib import Path

import pytest

from repro.runtime import Job, RuntimeContext, fingerprint, run_sweep


# --------------------------------------------------------------------------
# A parallel sweep forks one child per job, so a worker reaches it through
# the fork and need not pickle; only its result travels back pickled.

def ok_worker(payload):
    return {"value": payload * payload}


def crash_on_three(payload):
    if payload == 3:
        raise RuntimeError("poisoned cell")
    return {"value": payload}


def exit_on_three(payload):
    if payload == 3:
        os._exit(7)  # dies hard: no exception, no result
    return {"value": payload}


def unpicklable_result(payload):
    return {"value": lambda: payload}


def always_crash(payload):
    raise ValueError(f"always fails ({payload})")


def sleepy_worker(payload):
    time.sleep(payload)
    return {"slept": payload}


def flaky_worker(payload):
    """Fails the first attempt (marker file), succeeds afterwards."""
    marker, value = payload
    if not os.path.exists(marker):
        Path(marker).write_text("attempt 1")
        raise RuntimeError("transient failure")
    return {"value": value}


def counting_worker(payload):
    """Records every invocation on disk so tests can count recomputations."""
    directory, value = payload
    Path(directory, f"call-{value}-{os.getpid()}-{time.monotonic_ns()}").touch()
    return {"value": value}


def _assert_no_child_left():
    """Every forked worker has been reaped: none is alive or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _jobs(values, cacheable=True, name="t"):
    return [
        Job(key=v, payload=v,
            fingerprint=fingerprint(name, v) if cacheable else "")
        for v in values
    ]


# --------------------------------------------------------------------------


class TestSerialExecution:
    def test_all_results_collected(self):
        sweep = run_sweep(_jobs([1, 2, 3]), ok_worker)
        assert sweep.results == {1: {"value": 1}, 2: {"value": 4}, 3: {"value": 9}}
        assert sweep.ok
        assert sweep.summary["completed"] == 3

    def test_poisoned_cell_yields_partial_results(self):
        sweep = run_sweep(_jobs([1, 2, 3, 4]), crash_on_three,
                          runtime=RuntimeContext(retries=1))
        assert set(sweep.results) == {1, 2, 4}
        assert set(sweep.errors) == {3}
        err = sweep.errors[3]
        assert err["kind"] == "crash"
        assert "poisoned" in err["message"]
        assert err["attempts"] == 2  # initial try + 1 retry
        assert sweep.summary["failed"] == 1

    def test_retry_then_succeed(self, tmp_path):
        marker = str(tmp_path / "marker")
        jobs = [Job(key="x", payload=(marker, 7), fingerprint="")]
        sweep = run_sweep(jobs, flaky_worker, runtime=RuntimeContext(retries=1))
        assert sweep.results == {"x": {"value": 7}}
        assert sweep.ok

    def test_retry_then_give_up(self):
        sweep = run_sweep(_jobs([5]), always_crash,
                          runtime=RuntimeContext(retries=2))
        assert sweep.errors[5]["attempts"] == 3
        assert sweep.results == {}

    def test_per_cell_timeout(self):
        jobs = [Job(key="slow", payload=5.0, fingerprint=""),
                Job(key="fast", payload=0.0, fingerprint="")]
        sweep = run_sweep(jobs, sleepy_worker,
                          runtime=RuntimeContext(timeout_s=0.3, retries=0))
        assert "fast" in sweep.results
        assert sweep.errors["slow"]["kind"] == "timeout"

    def test_job_timeout_overrides_default(self):
        jobs = [Job(key="slow", payload=5.0, fingerprint="", timeout_s=0.2)]
        sweep = run_sweep(jobs, sleepy_worker, runtime=RuntimeContext(retries=0))
        assert sweep.errors["slow"]["kind"] == "timeout"


    def test_finished_job_is_released_at_the_job_boundary(self):
        """Job i's reference cycles are gone before job i+1 starts."""
        class Node:
            pass

        sentinels: list[weakref.ref] = []

        def cyclic_worker(payload):
            survivors = sum(ref() is not None for ref in sentinels)
            node = Node()
            node.me = node
            sentinels.append(weakref.ref(node))
            # Enough live containers to run the collector a few dozen times:
            # `node` ages into the old generation, as a simulator does, where
            # only a full collection finds it once the job is over.
            ballast = [[] for _ in range(20_000)]
            return {"survivors": survivors, "ballast": len(ballast)}

        sweep = run_sweep(_jobs([1, 2, 3], cacheable=False), cyclic_worker)
        assert [sweep.results[k]["survivors"] for k in (1, 2, 3)] == [0, 0, 0]
        assert all(ref() is None for ref in sentinels)


class TestParallelExecution:
    def test_results_match_serial(self):
        values = list(range(8))
        serial = run_sweep(_jobs(values), ok_worker)
        parallel = run_sweep(_jobs(values), ok_worker,
                             runtime=RuntimeContext(workers=4))
        assert serial.results == parallel.results

    def test_poisoned_cell_keeps_other_cells(self):
        sweep = run_sweep(_jobs([1, 2, 3, 4, 5]), crash_on_three,
                          runtime=RuntimeContext(workers=2, retries=1))
        assert set(sweep.results) == {1, 2, 4, 5}
        assert sweep.errors[3]["kind"] == "crash"

    def test_parallel_timeout(self):
        jobs = [Job(key="slow", payload=10.0, fingerprint=""),
                Job(key="fast", payload=0.0, fingerprint="")]
        sweep = run_sweep(jobs, sleepy_worker,
                          runtime=RuntimeContext(workers=2, timeout_s=0.4,
                                                 retries=0))
        assert "fast" in sweep.results
        assert sweep.errors["slow"]["kind"] == "timeout"
        _assert_no_child_left()

    def test_worker_that_dies_hard_costs_only_its_own_cell(self):
        sweep = run_sweep(_jobs([1, 2, 3, 4, 5]), exit_on_three,
                          runtime=RuntimeContext(workers=2, retries=1))
        assert set(sweep.results) == {1, 2, 4, 5}
        assert set(sweep.errors) == {3}
        err = sweep.errors[3]
        assert (err["kind"], err["attempts"]) == ("died", 2)
        assert "status 7" in err["message"]
        _assert_no_child_left()

    def test_worker_reaches_the_child_without_pickling(self):
        offset = 10

        def closure_worker(payload):
            return {"value": payload + offset}

        sweep = run_sweep(_jobs([1, 2], cacheable=False), closure_worker,
                          runtime=RuntimeContext(workers=2))
        assert sweep.results == {1: {"value": 11}, 2: {"value": 12}}

    def test_result_that_does_not_pickle_is_a_crash(self):
        sweep = run_sweep(_jobs([1], cacheable=False), unpicklable_result,
                          runtime=RuntimeContext(workers=2, retries=0))
        assert sweep.errors[1]["kind"] == "crash"
        assert "does not pickle" in sweep.errors[1]["message"]

    def test_interrupted_sweep_leaves_no_worker_running(self):
        """An exception in the parent mid-sweep kills and reaps the children."""
        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted()

        jobs = [Job(key=k, payload=10.0, fingerprint="") for k in "ab"]
        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            with pytest.raises(Interrupted):
                run_sweep(jobs, sleepy_worker,
                          runtime=RuntimeContext(workers=2, retries=0))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        _assert_no_child_left()

    def test_parallel_retry_then_succeed(self, tmp_path):
        marker = str(tmp_path / "marker")
        jobs = [Job(key="x", payload=(marker, 9), fingerprint="")]
        sweep = run_sweep(jobs, flaky_worker,
                          runtime=RuntimeContext(workers=2, retries=1))
        assert sweep.results == {"x": {"value": 9}}


class TestCachingSweeps:
    def test_cache_hit_skips_recompute(self, tmp_path):
        calls = tmp_path / "calls"
        calls.mkdir()
        cache_dir = tmp_path / "cache"
        jobs = [Job(key=v, payload=(str(calls), v), fingerprint=fingerprint("c", v))
                for v in range(4)]
        runtime = RuntimeContext(cache_dir=cache_dir)

        first = run_sweep(jobs, counting_worker, runtime=runtime)
        assert first.cache_hits == 0 and first.cache_misses == 4
        n_calls_first = len(list(calls.iterdir()))
        assert n_calls_first == 4

        second = run_sweep(jobs, counting_worker, runtime=runtime)
        assert second.cache_hits == 4 and second.cache_misses == 0
        assert second.results == first.results
        assert len(list(calls.iterdir())) == n_calls_first  # nothing recomputed

    def test_resume_after_interrupt(self, tmp_path):
        """Pre-seeded cache (a killed sweep) → only remaining cells run."""
        calls = tmp_path / "calls"
        calls.mkdir()
        cache_dir = tmp_path / "cache"
        runtime = RuntimeContext(cache_dir=cache_dir)
        jobs = [Job(key=v, payload=(str(calls), v), fingerprint=fingerprint("r", v))
                for v in range(6)]

        # "Interrupted" sweep: only the first three cells completed.
        run_sweep(jobs[:3], counting_worker, runtime=runtime)
        assert len(list(calls.iterdir())) == 3

        resumed = run_sweep(jobs, counting_worker, runtime=runtime)
        assert resumed.cache_hits == 3 and resumed.cache_misses == 3
        assert set(resumed.results) == set(range(6))
        assert len(list(calls.iterdir())) == 6  # 3 old + 3 new, no rework

    def test_fingerprint_change_invalidates(self, tmp_path):
        calls = tmp_path / "calls"
        calls.mkdir()
        runtime = RuntimeContext(cache_dir=tmp_path / "cache")
        job_v1 = [Job(key=0, payload=(str(calls), 0), fingerprint=fingerprint("spec", 1))]
        job_v2 = [Job(key=0, payload=(str(calls), 0), fingerprint=fingerprint("spec", 2))]
        run_sweep(job_v1, counting_worker, runtime=runtime)
        sweep = run_sweep(job_v2, counting_worker, runtime=runtime)
        assert sweep.cache_hits == 0 and sweep.cache_misses == 1

    def test_failed_cells_are_not_cached(self, tmp_path):
        runtime = RuntimeContext(cache_dir=tmp_path / "cache", retries=0)
        jobs = _jobs([3], name="fail")
        first = run_sweep(jobs, crash_on_three, runtime=runtime)
        assert first.errors
        # After the "bug" is fixed the cell recomputes instead of hitting
        # a poisoned cache entry.
        second = run_sweep(jobs, ok_worker, runtime=runtime)
        assert second.results == {3: {"value": 9}}
        assert second.cache_hits == 0


class TestRunLogIntegration:
    def test_failure_surfaces_in_jsonl_run_log(self, tmp_path):
        log = tmp_path / "run.jsonl"
        sweep = run_sweep(_jobs([1, 2, 3]), crash_on_three,
                          runtime=RuntimeContext(retries=0, run_log=log))
        assert set(sweep.results) == {1, 2}
        events = [json.loads(line) for line in log.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep_start" and kinds[-1] == "sweep_end"
        failed = [e for e in events if e["event"] == "cell_failed"]
        assert len(failed) == 1
        assert failed[0]["key"] == 3
        assert "poisoned" in failed[0]["error"]
        end = events[-1]
        assert end["completed"] == 2 and end["failed"] == 1
