"""Run driver: fresh subprocesses, medians, hygiene guards.

Single process, single thread.  Each run of a workload is one
``child.py`` subprocess, started and waited for in turn; only
``fabric_sharded`` lets the program itself use two workers.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"

#: A child gets this long before it counts as hung (the slowest traced
#: run takes about a third of it on the reference box).
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not run at all (as opposed to a failed check)."""


def preflight() -> None:
    """Refuse to run where the program under test is missing."""
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program to benchmark: {REPO_ROOT / 'src' / 'repro'} is missing")


# -- statistics ---------------------------------------------------------------------


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, quartiles and count — ``statistics.quantiles(n=4)``'s
    definition, which needs two values; one value is its own quartiles."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def high_percentile(values: list[float]) -> Optional[tuple[float, float]]:
    """``(p, value)`` for the highest usual percentile that still has at
    least ten samples beyond it; None when the sample is too small."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


# -- host ------------------------------------------------------------------------------


def host_info() -> dict[str, Any]:
    """Facts a reader needs to judge the timings, taken at start."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load1_at_start": load1,
        # More runnable tasks than cores before we even begin: host-time
        # numbers from this set are suspect.
        "noisy_host": load1 > nproc,
    }


# -- running children ------------------------------------------------------------------


def spawn(workload: str, seed: int, *, traced: bool = False,
          setup_only: bool = False) -> dict[str, Any]:
    """One child run; returns its JSON with ``setup_s`` added."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: child hung for {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # time.monotonic() is one system-wide clock on Linux, so the child's
    # reading is comparable with ours.
    out["setup_s"] = out["t_call"] - spawned
    return out


def golden_digest(workload: str, seed: int) -> Optional[str]:
    """Pinned digest, or None for a (workload, seed) that has none."""
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))


def judge(runs: list[dict[str, Any]], workload: str, seed: int) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over a set of runs of one workload.

    An operation is one run times one check: the workload's own shape
    checks, agreement of the run's digest with the first run's, and —
    where a golden is pinned — with the golden.
    """
    attempted = failed = 0
    reasons: list[str] = []
    golden = golden_digest(workload, seed)
    first = runs[0]["digest"]
    for i, run in enumerate(runs):
        kind = "traced" if run.get("traced") else "timed"
        attempted += run["summary"]["checks"]
        for name in run["summary"]["failed_checks"]:
            failed += 1
            reasons.append(f"{workload} run {i} ({kind}): check {name} failed")
        attempted += 1
        if run["digest"] != first:
            failed += 1
            reasons.append(f"{workload} run {i} ({kind}): digest {run['digest']} "
                           f"differs from run 0's {first}")
        if golden is not None:
            attempted += 1
            if run["digest"] != golden:
                failed += 1
                reasons.append(f"{workload} run {i} ({kind}): digest {run['digest']} "
                               f"differs from golden {golden}")
    return attempted, failed, reasons


def timed_runs(workload: str, seed: int, *, seconds: Optional[float] = None,
               count: Optional[int] = None, setup_only_runs: int = 3
               ) -> tuple[list[dict[str, Any]], list[float]]:
    """Untraced runs: exactly ``count``, or until ``seconds`` of timed wall.

    Returns the runs and every ``setup_s`` sample taken (the runs' own
    plus ``setup_only_runs`` children that stop where timing would start).
    """
    setups = [spawn(workload, seed, setup_only=True)["setup_s"]
              for _ in range(setup_only_runs)]
    runs: list[dict[str, Any]] = []
    measured = 0.0

    def enough() -> bool:
        if count is not None:
            return len(runs) >= count
        return measured >= (seconds or 0.0)

    while not runs or not enough():
        run = spawn(workload, seed)
        runs.append(run)
        setups.append(run["setup_s"])
        measured += run["wall_s"]
    return runs, setups
