"""Greedy fault-schedule shrinking and reproducer files.

When a soak run violates an invariant, the raw schedule may contain
faults that have nothing to do with the violation.  :func:`shrink`
re-runs the soak with one fault deleted at a time and keeps any deletion
that preserves a violation of the same invariant, iterating to a fixed
point (delta-debugging's ddmin specialised to single-element deletion —
schedules are at most a handful of faults, so the quadratic worst case
is a few dozen runs, further bounded by ``max_runs``).

Soundness leans on two repo-wide design rules: every fault owns a
private RNG seeded from its *original* schedule index
(:mod:`repro.chaos.schedule`), and both
:class:`~repro.simulator.failures.CompositeFailure` and
:class:`~repro.chaos.perturbations.ChaosModel` evaluate components
without short-circuiting.  Deleting one fault therefore never perturbs
the random streams of the survivors, so a kept deletion reproduces the
violation for the same mechanical reason the original did.

:func:`write_reproducer` pins the end state to a JSON file (uploaded as
a CI artifact by the chaos-soak job) with the exact command to replay
it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from .harness import SoakConfig, SoakResult
from .schedule import FaultSpec

__all__ = ["shrink", "write_reproducer", "load_reproducer"]

RunFn = Callable[[list[FaultSpec]], SoakResult]


def _violated(result: SoakResult, invariants: set[str]) -> bool:
    return any(v.invariant in invariants for v in result.violations)


def shrink(
    schedule: list[FaultSpec],
    failing: SoakResult,
    run_fn: RunFn,
    max_runs: int = 48,
) -> tuple[list[FaultSpec], SoakResult, int]:
    """Minimise ``schedule`` while some originally-violated invariant stays
    violated.

    Returns ``(minimal_schedule, result_on_minimal, runs_used)``.  The
    returned result is always one that still exhibits a target
    violation, so its details can go straight into the reproducer.
    """
    targets = {v.invariant for v in failing.violations}
    current = list(schedule)
    best = failing
    runs = 0
    changed = True
    while changed and len(current) > 1 and runs < max_runs:
        changed = False
        for i in range(len(current)):
            if runs >= max_runs:
                break
            candidate = current[:i] + current[i + 1:]
            result = run_fn(candidate)
            runs += 1
            if _violated(result, targets):
                current = candidate
                best = result
                changed = True
                break  # restart the scan over the shorter schedule
    return current, best, runs


def _replay_command(config: SoakConfig, path: str) -> str:
    cmd = (f"fancy-repro chaos --replay {path}")
    if config.regression:
        cmd += f" --regression {config.regression}"
    return cmd


def write_reproducer(
    path: str | Path,
    config: SoakConfig,
    schedule: list[FaultSpec],
    result: SoakResult,
    runs_used: int = 0,
) -> Path:
    """Persist a minimal failing schedule as a self-describing JSON file."""
    path = Path(path)
    doc = {
        "format": "fancy-chaos-reproducer/1",
        "config": config.to_dict(),
        "schedule": [s.to_dict() for s in schedule],
        "violations": [v.to_dict() for v in result.violations],
        "stats": result.stats,
        "shrink_runs": runs_used,
        "replay": _replay_command(config, str(path)),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_reproducer(path: str | Path) -> tuple[SoakConfig, list[FaultSpec]]:
    """Load a reproducer file back into a runnable (config, schedule)."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != "fancy-chaos-reproducer/1":
        raise ValueError(f"{path}: not a chaos reproducer file")
    config = SoakConfig.from_dict(doc["config"])
    schedule = [FaultSpec.from_dict(d) for d in doc["schedule"]]
    return config, schedule
