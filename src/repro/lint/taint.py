"""FCY011 — interprocedural determinism taint analysis.

The per-file rules flag a wall-clock read or a global-RNG draw only when
it is *textually* inside simulation scope.  Hide the primitive behind a
helper in ``runtime/`` or ``obs/`` and the per-file pass goes blind:
``experiments/fig9.py`` calling ``run_sweep`` never mentions a clock,
yet its output fingerprints now depend on ``time.time()`` three frames
down.  This pass closes the gap with the call graph:

**Propagated nondeterminism.**  Every project function whose body calls
a wall-clock or global-RNG primitive is a taint source; taint propagates
backwards along call (and callback-reference) edges.  A finding is
emitted at each **scope boundary**: a call site in a simulation-scope
file whose direct callee is an out-of-scope tainted project function.
Boundary-only reporting is complete — a tainted callee *inside* sim
scope either trips FCY001/FCY002 itself or contains its own boundary
call site — and yields exactly one finding per entry chain.

**Taint barriers.**  Operational wall-clock use (run-log timestamps,
cache metadata) is sanctioned by suppressing FCY011 **on the primitive
call line**::

    "ts": time.time(),  # fancylint: disable=FCY011 -- operational log timestamp

A barrier stops taint from seeding at that site, so every caller chain
above it comes back clean; the engine counts the barrier as a *used*
suppression (FCY014).

**Seed provenance.**  Call sites passing a ``seed``/``*_seed`` argument
to the sharding planner, the fluid engine, or any ``runtime/`` executor
must pass a value that is either forwarded verbatim (name, attribute,
constant) or derived through :func:`repro.runtime.stable_seed`.
Arithmetic (``seed + shard_index``), ``hash(...)``, and other ad-hoc
derivations are flagged: they re-entangle RNG streams that the PR-8
regrouping-invariance contract requires to be pure functions of
``(base seed, entity id)``.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Mapping
from dataclasses import dataclass, field

from .callgraph import CallGraph, FunctionInfo
from .diagnostics import Diagnostic
from .rules import _ALLOWED_NP_RANDOM_ATTRS, _RNG_DRAW_METHODS, _SIM_SCOPE, _WALL_CLOCK
from .suppress import is_suppressed

__all__ = ["TaintResult", "run_taint", "TAINT_CODE"]

TAINT_CODE = "FCY011"

#: files whose seed-accepting entry points are provenance sinks.
_SEED_SINK_FILES = ("fabric/sharding.py", "simulator/fluid.py")
_SEED_SINK_PREFIX = "runtime/"
_SEED_PARAM = re.compile(r"(^|_)seed$")

#: call wrappers that preserve seed provenance (pass-through coercions).
_SEED_PRESERVING_CALLS = frozenset({"int", "abs", "min", "max"})


@dataclass
class TaintResult:
    """Findings plus the barrier suppressions the analysis consumed."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: ``(path, line)`` of FCY011 barrier directives that stopped a
    #: taint source — *used* suppressions for FCY014.
    used_barriers: set[tuple[str, int]] = field(default_factory=set)
    #: qualname -> (primitive, chain) for introspection / tests.
    tainted: dict[str, tuple[str, tuple[str, ...]]] = field(default_factory=dict)


def _primitive_source(canonical: str) -> str | None:
    """Describe ``canonical`` if it is a nondeterminism primitive."""
    if canonical in _WALL_CLOCK:
        return f"wall-clock `{canonical}()`"
    head, _, attr = canonical.rpartition(".")
    if head == "random" and attr in (_RNG_DRAW_METHODS | {"seed"}):
        return f"global RNG `{canonical}()`"
    if head in ("numpy.random", "np.random") and attr not in _ALLOWED_NP_RANDOM_ATTRS:
        return f"global NumPy RNG `{canonical}()`"
    return None


def _in_sim_scope(rel_path: str | None) -> bool:
    return rel_path is not None and rel_path.startswith(_SIM_SCOPE)


def _seed_sink_params(fn: FunctionInfo, rel_path: str | None) -> list[str]:
    """Seed-named parameters of a provenance-sink function, if any."""
    if rel_path is None:
        return []
    if rel_path not in _SEED_SINK_FILES and not rel_path.startswith(_SEED_SINK_PREFIX):
        return []
    return [p for p in fn.params if _SEED_PARAM.search(p)]


def _local_assignment(fn_node: ast.AST, name: str) -> ast.expr | None:
    """Last simple single-target assignment to ``name`` in the function."""
    found: ast.expr | None = None
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and node.targets[0].id == name:
            found = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                and node.target.id == name and node.value is not None:
            found = node.value
    return found


def _seed_expr_ok(expr: ast.expr, caller: FunctionInfo, graph: CallGraph,
                  depth: int = 0) -> tuple[bool, str]:
    """Is this seed argument expression provenance-clean?

    Returns ``(ok, reason)`` where ``reason`` names the violation kind.
    Conservative in the other direction than most of the linter: only
    *provably* ad-hoc derivations (arithmetic, ``hash``, unknown calls)
    are flagged; opaque names and attributes are trusted — their own
    producers are checked at their own call sites.
    """
    if isinstance(expr, (ast.Constant, ast.Attribute, ast.Subscript, ast.Starred)):
        return True, ""
    if isinstance(expr, ast.Name):
        if depth >= 2:
            return True, ""
        assigned = _local_assignment(caller.node, expr.id)
        if assigned is None:
            return True, ""
        return _seed_expr_ok(assigned, caller, graph, depth + 1)
    if isinstance(expr, ast.IfExp):
        for branch in (expr.body, expr.orelse):
            ok, reason = _seed_expr_ok(branch, caller, graph, depth)
            if not ok:
                return ok, reason
        return True, ""
    if isinstance(expr, ast.Call):
        dotted_parts: list[str] = []
        cursor: ast.expr = expr.func
        while isinstance(cursor, ast.Attribute):
            dotted_parts.append(cursor.attr)
            cursor = cursor.value
        if isinstance(cursor, ast.Name):
            dotted_parts.append(cursor.id)
        dotted = ".".join(reversed(dotted_parts)) if dotted_parts else ""
        if dotted:
            resolved = graph.resolve(caller.module, dotted)
            if resolved is not None and resolved.rsplit(".", 1)[-1] == "stable_seed":
                return True, ""
            if dotted == "stable_seed" or dotted.endswith(".stable_seed"):
                return True, ""
            if dotted == "hash":
                return False, "`hash()` (PYTHONHASHSEED-dependent)"
            if dotted in _SEED_PRESERVING_CALLS:
                for arg in expr.args:
                    ok, reason = _seed_expr_ok(arg, caller, graph, depth + 1)
                    if not ok:
                        return ok, reason
                return True, ""
        return False, f"ad-hoc call `{dotted or '<expr>'}(...)`"
    if isinstance(expr, (ast.BinOp, ast.UnaryOp, ast.BoolOp)):
        return False, "arithmetic on the seed"
    return True, ""


def run_taint(
    graph: CallGraph,
    rel_paths: Mapping[str, str | None],
    suppressions: Mapping[str, Mapping[int, frozenset[str]]],
) -> TaintResult:
    """Run both FCY011 analyses over a built call graph.

    ``rel_paths``/``suppressions`` are keyed by the same path
    strings the graph was built from (the engine's AST cache keys).
    """
    result = TaintResult()

    # -- pass 1: seed primitive sources (honoring barriers) ---------------
    taint: dict[str, tuple[str, tuple[str, ...]]] = {}
    for caller in sorted(graph.external_calls):
        for canonical, node in graph.external_calls[caller]:
            desc = _primitive_source(canonical)
            if desc is None:
                continue
            fn = graph.functions.get(caller)
            if fn is None:
                continue
            file_supp = suppressions.get(fn.path, {})
            if is_suppressed(TAINT_CODE, node.lineno, file_supp):
                result.used_barriers.add((fn.path, node.lineno))
                continue
            if caller not in taint:
                taint[caller] = (desc, (caller,))

    # -- pass 2: propagate backwards over call/ref edges ------------------
    frontier = sorted(taint)
    while frontier:
        nxt: set[str] = set()
        for fn_name in frontier:
            desc, chain = taint[fn_name]
            for edge in sorted(graph.callers_of(fn_name),
                               key=lambda e: (e.caller, e.lineno, e.col)):
                if edge.caller not in taint:
                    taint[edge.caller] = (desc, (edge.caller, *chain))
                    nxt.add(edge.caller)
        frontier = sorted(nxt)
    result.tainted = taint

    # -- pass 3: report at sim-scope boundary call sites ------------------
    seen: set[tuple[str, int, int, str]] = set()
    diags: list[Diagnostic] = []
    for caller_name in sorted(graph.functions):
        fn = graph.functions[caller_name]
        if not _in_sim_scope(rel_paths.get(fn.path)):
            continue
        for edge in graph.callees_of(caller_name):
            callee = graph.functions.get(edge.callee)
            if callee is None or edge.callee not in taint:
                continue
            if _in_sim_scope(rel_paths.get(callee.path)):
                continue
            desc, chain = taint[edge.callee]
            via = " -> ".join(chain)
            verb = "passes callback" if edge.kind.startswith("ref") else "calls"
            key = (fn.path, edge.lineno, edge.col, edge.callee)
            if key in seen:
                continue
            seen.add(key)
            diags.append(Diagnostic(
                path=fn.path, line=edge.lineno, col=edge.col, code=TAINT_CODE,
                message=(
                    f"simulation-scope code {verb} `{edge.callee}`, which "
                    f"reaches {desc} via {via}"
                ),
                hint="thread the simulated clock / a seeded RNG into the "
                     "helper, or sanction the primitive line with "
                     "`# fancylint: disable=FCY011 -- <why>`",
            ))

    # -- pass 4: seed provenance at sink call sites -----------------------
    for caller_name in sorted(graph.functions):
        fn = graph.functions[caller_name]
        for edge in graph.callees_of(caller_name):
            if not edge.kind.startswith("call") or not isinstance(edge.node, ast.Call):
                continue
            callee = graph.functions.get(edge.callee)
            if callee is None:
                continue
            sink_params = _seed_sink_params(callee, rel_paths.get(callee.path))
            if not sink_params:
                continue
            params = list(callee.params)
            if callee.cls is not None and params and params[0] in ("self", "cls"):
                params = params[1:]
            bound: list[tuple[str, ast.expr]] = []
            for pos, arg in enumerate(edge.node.args):
                if isinstance(arg, ast.Starred):
                    continue
                if pos < len(params):
                    bound.append((params[pos], arg))
            for kw in edge.node.keywords:
                if kw.arg is not None:
                    bound.append((kw.arg, kw.value))
            for param, arg in bound:
                if not _SEED_PARAM.search(param):
                    continue
                ok, reason = _seed_expr_ok(arg, fn, graph)
                if ok:
                    continue
                key = (fn.path, edge.lineno, edge.col, f"seed:{param}")
                if key in seen:
                    continue
                seen.add(key)
                diags.append(Diagnostic(
                    path=fn.path, line=edge.lineno, col=edge.col,
                    code=TAINT_CODE,
                    message=(
                        f"seed argument `{param}` to `{edge.callee}` is "
                        f"derived via {reason}; seeds entering this sink "
                        "must come from stable_seed"
                    ),
                    hint="derive per-entity seeds with "
                         "repro.runtime.stable_seed(base, ...entity key...)",
                ))

    result.diagnostics = sorted(diags)
    return result
