"""``fancylint`` — repo-specific static analysis for the FANcY reproduction.

The reproduction's correctness rests on two *runtime*-checked contracts:

* the content-addressed result cache keys sweep cells by a job
  fingerprint (``repro.runtime.jobs``) — anything non-deterministic that
  leaks into a cell's computation silently poisons the cache;
* the simulator fast path is proven equivalent to the reference path by
  bit-identical RNG-draw-order tests
  (``tests/simulator/test_fastpath_equivalence.py``) — a stray draw from
  the *global* RNG, a wall-clock read, or an order-unstable set
  iteration breaks that proof without failing any unit test.

``fancylint`` turns those contracts into *compile-time* checks, the same
way the P4 compiler statically rejects programs that exceed Tofino's
stage/SRAM budget.  It is an AST rule engine with per-file repo-specific
rules (FCY001–FCY013, see :mod:`repro.lint.rules`), ruff-style
``file:line:col: CODE message`` diagnostics with fix hints, per-line
``# fancylint: disable=FCYnnn`` suppressions (stale ones are reported
as FCY014).  Every finding fails the run: there is no baseline of
grandfathered findings.

On top of the per-file layer, ``--deep`` runs the **whole-program**
passes over a shared parse-once AST cache: a project call graph
(:mod:`repro.lint.callgraph`) feeding an interprocedural determinism
taint analysis (FCY011, :mod:`repro.lint.taint`), and a static FSM
extractor + model checker (FCY012, :mod:`repro.lint.fsm`) that proves
the protocol classes implement exactly the transition tables declared
in ``repro.core.protocol`` and exports them as ``fsm.json`` / Graphviz
artifacts.

Run it as ``python -m repro.lint [paths...]`` or ``fancy-repro lint``.
See ``docs/STATIC_ANALYSIS.md`` for the rule catalog and policy.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".callgraph": ("CallGraph", "build_callgraph"),
    ".diagnostics": ("Diagnostic",),
    ".engine": ("AstCache", "LintResult", "lint_file", "lint_paths", "lint_source"),
    ".fsm": ("FsmModel", "run_fsm_pass", "write_fsm_artifacts"),
    ".rules": ("ALL_RULES", "Rule", "rule_catalog"),
    ".taint": ("TaintResult", "run_taint"),
})
