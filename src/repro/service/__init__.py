"""Long-running FANcY supervision service (docs/ROBUSTNESS.md).

The single-link experiments and the chaos soak run minutes of simulated
time and evaluate their invariants at teardown; an ISP deployment runs
*days* with thousands of per-link sessions, and its failure mode of
interest is not the data plane but the *monitoring* plane — control
channels grey out, counter reports go missing, and a naive detector
converts its own impairment into false LINK_DOWN declarations.  This
package is the degraded-mode answer:

* :mod:`.ladder` — a per-link :class:`~repro.service.ladder.
  DegradationLadder` FSM that steps HEALTHY → USE_LAST_STATE → FREEZE →
  DECLARED on control-channel impairment signals, absorbing retransmit
  exhaustions while the link was recently verified alive.
* :mod:`.supervision` — online I1–I6 invariant observers evaluated
  continuously during the run, breaches metered as
  ``fancy_invariant_breach_total``.
* :mod:`.soak` — the ``fancy-repro serve`` driver: a fabric under a
  chaos schedule with Zipf entry churn, run for simulated days with
  periodic health snapshots, deterministic under seed and ``--shards``.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ladder": ("LADDER_FSM_SPEC", "DegradationLadder", "LadderState", "attach_ladder"),
    ".soak": ("ServeConfig", "ServeResult", "run_serve"),
    ".supervision": ("InvariantSupervisor",),
})
