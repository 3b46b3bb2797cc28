"""Chaos-injection subsystem: fault models beyond loss, soak, shrink.

The paper's Table 1 taxonomises gray failures by *which packets
disappear*; real gray hardware also reorders, duplicates, corrupts,
delays, flaps and reboots.  This package injects those behaviours into
the simulator and checks that the (hardened) FANcY protocol neither
deadlocks, nor invents failures, nor misses persistent ones:

* :mod:`~repro.chaos.perturbations` — composable wire perturbation
  models attached to links via ``link.chaos``;
* :mod:`~repro.chaos.schedule` — seeded random fault schedules and
  their wiring onto a topology;
* :mod:`~repro.chaos.invariants` — the I1–I6 robustness invariants;
* :mod:`~repro.chaos.harness` — the soak runner
  (``fancy-repro chaos``), including named regression fixtures;
* :mod:`~repro.chaos.shrink` — minimal-reproducer schedule shrinking.

See docs/ROBUSTNESS.md for the fault taxonomy, the protocol-hardening
guarantees, and how to replay a CI reproducer artifact.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".harness": (
        "REGRESSIONS", "SoakConfig", "SoakResult", "regression_scenario", "run_many",
        "run_soak", "soak_worker",
    ),
    ".invariants": ("Violation",),
    ".perturbations": (
        "ChaosModel", "CorruptField", "DelaySpike", "Duplicate", "LinkFlap",
        "Perturbation", "Reorder",
    ),
    ".schedule": ("FaultSpec", "generate_schedule", "materialize"),
    ".shrink": ("load_reproducer", "shrink", "write_reproducer"),
})
