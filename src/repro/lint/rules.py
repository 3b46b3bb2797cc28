"""The fancylint rule catalog (FCY001–FCY010).

Every rule guards one of the reproduction's determinism / simulator
invariants (see the package docstring and ``docs/STATIC_ANALYSIS.md``):

========  ==============================================================
FCY001    module-level / global RNG use — only seeded ``random.Random``
          or ``numpy`` ``Generator`` instances are deterministic per
          sweep cell; the global RNG poisons the result cache and the
          fused-link draw-order proof.  Also flags ``repr()``-derived seed
          material (use :func:`repro.runtime.stable_seed`).
FCY002    wall-clock reads (``time.time``, ``datetime.now``) in
          simulation / fingerprint code paths — durations must use the
          monotonic clock, simulated timestamps the engine's ``sim.now``.
FCY003    iteration whose order depends on set iteration order (and thus
          on ``PYTHONHASHSEED``) escaping into results or RNG draws.
FCY004    blocking calls (``sleep``, file I/O, ``subprocess``, sockets)
          inside the simulator/core packages, which run entirely inside
          the discrete-event loop.
FCY006    ``==`` / ``!=`` on simulated-time floats outside the approved
          helpers (ordering comparisons or ``math.isclose``).
FCY007    chaos/fault code with an *unseeded* ``random.Random()`` or a
          draw from another object's RNG stream — schedule shrinking is
          only sound when every fault owns a private ``random.Random``
          seeded from its original schedule index, so deleting one fault
          never perturbs the survivors' random streams.  (Global-module
          draws in chaos code are FCY001's job: its scope covers
          ``chaos/``.)
FCY008    graph adjacency / neighbor state held in an unordered set —
          fabric port numbering, ECMP next-hop order, and flowlet paths
          all follow neighbor iteration order, so topology state must be
          insertion-ordered (list, or dict-as-ordered-set), never a
          ``set``.
FCY009    telemetry instruments created inside per-packet / per-event /
          per-control-message hot paths — ``registry.counter()`` et al.
          hash the label set and hit a dict on every call, so the
          factory belongs at bind time or behind a first-use memo; only
          ``.inc()``/``.set()``/``.observe()`` may run per packet.
FCY010    per-packet granularity inside the fluid traffic model
          (``Packet`` construction, per-packet RNG draws in loops) — the
          fluid tier is a fast path only while it stays bulk — and
          shard-spec RNG seeding that bypasses ``stable_seed``, which
          would make shard outputs depend on grouping or process
          entropy.
========  ==============================================================

Rules are small :class:`ast.NodeVisitor` passes over a shared
:class:`FileContext` that pre-resolves import aliases, so e.g.
``import numpy as np; np.random.rand()`` and
``from random import choice; choice(...)`` are both seen canonically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .diagnostics import Diagnostic

__all__ = ["ALL_RULES", "FileContext", "Rule", "rule_catalog"]


# --------------------------------------------------------------------------
# shared context: import-alias resolution + diagnostic emission
# --------------------------------------------------------------------------


@dataclass
class FileContext:
    """Per-file state shared by all rule passes."""

    path: str
    #: Path relative to the ``repro`` package root (``core/zooming.py``),
    #: or ``None`` for files outside the package (rule scoping then
    #: defaults to "applies").
    rel_path: str | None
    #: local name -> canonical dotted module/object path.
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def for_tree(cls, tree: ast.AST, path: str, rel_path: str | None) -> FileContext:
        ctx = cls(path=path, rel_path=rel_path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    ctx.aliases[name.asname or name.name.split(".", 1)[0]] = (
                        name.name if name.asname else name.name.split(".", 1)[0]
                    )
                    if name.asname:
                        ctx.aliases[name.asname] = name.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for name in node.names:
                    if name.name == "*":
                        continue
                    ctx.aliases[name.asname or name.name] = f"{node.module}.{name.name}"
        return ctx

    def canonical(self, node: ast.expr) -> str | None:
        """Dotted canonical name of an expression, through import aliases.

        ``np.random.rand`` -> ``numpy.random.rand`` (with ``import numpy
        as np``); ``choice`` -> ``random.choice`` (with ``from random
        import choice``); plain builtins resolve to themselves.
        """
        parts: list[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        base = self.aliases.get(cursor.id, cursor.id)
        parts.append(base)
        return ".".join(reversed(parts))

    def diagnostic(
        self, node: ast.AST, code: str, message: str, hint: str = ""
    ) -> Diagnostic:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Diagnostic(
            path=self.path,
            line=lineno,
            col=col,
            code=code,
            message=message,
            hint=hint,
        )


class Rule:
    """Base class: one code, one summary, one scoped AST pass."""

    code: str = "FCY000"
    name: str = "base"
    summary: str = ""
    #: Package-relative path prefixes this rule applies to.  Files whose
    #: location inside the ``repro`` package cannot be determined (e.g.
    #: test fixtures) get every rule.
    scope: tuple[str, ...] = ()

    def applies_to(self, rel_path: str | None) -> bool:
        if rel_path is None or not self.scope:
            return True
        return rel_path.startswith(self.scope)

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        raise NotImplementedError


_SIM_SCOPE = ("core/", "simulator/", "experiments/", "traffic/", "chaos/",
              "fabric/")


def _call_name(node: ast.Call, ctx: FileContext) -> str | None:
    return ctx.canonical(node.func)


# --------------------------------------------------------------------------
# FCY001 — global / module-level RNG use
# --------------------------------------------------------------------------

#: ``random.<attr>`` calls that are fine: constructing an *instance*.
_ALLOWED_RANDOM_ATTRS = frozenset({"Random"})
#: ``numpy.random.<attr>`` calls that are fine: seeded generator factories.
_ALLOWED_NP_RANDOM_ATTRS = frozenset({"default_rng", "Generator", "SeedSequence", "RandomState"})


def _is_repr_derived(node: ast.expr) -> bool:
    """True when the expression's value comes from ``repr``/``__repr__``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Attribute) and sub.func.attr == "__repr__":
                return True
            if isinstance(sub.func, ast.Name) and sub.func.id == "repr":
                return True
    return False


class GlobalRngRule(Rule):
    code = "FCY001"
    name = "global-rng"
    summary = (
        "module-level RNG use; only seeded random.Random / numpy Generator "
        "instances keep sweep cells deterministic"
    )
    scope = _SIM_SCOPE + ("catalog.py",)

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, ctx)
            if name is None:
                continue
            if name.startswith("random."):
                attr = name.split(".", 1)[1]
                if attr in _ALLOWED_RANDOM_ATTRS:
                    if any(_is_repr_derived(arg) for arg in node.args):
                        found.append(ctx.diagnostic(
                            node, self.code,
                            "RNG seed material derived via repr(); repr formatting "
                            "is not a stable fingerprint",
                            hint="derive seeds with repro.runtime.stable_seed(...)",
                        ))
                    continue
                found.append(ctx.diagnostic(
                    node, self.code,
                    f"call to global RNG `{name}()`",
                    hint="thread a seeded random.Random instance; seed it with "
                         "repro.runtime.stable_seed",
                ))
            elif name.startswith("numpy.random.") or name.startswith("np.random."):
                attr = name.split("random.", 1)[1].split(".", 1)[0]
                if attr in _ALLOWED_NP_RANDOM_ATTRS:
                    continue
                found.append(ctx.diagnostic(
                    node, self.code,
                    f"call to global NumPy RNG `{name}()`",
                    hint="use a numpy.random.Generator from default_rng(seed)",
                ))
        return found


# --------------------------------------------------------------------------
# FCY002 — wall-clock reads in simulation / fingerprint code paths
# --------------------------------------------------------------------------

_WALL_CLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


class WallClockRule(Rule):
    code = "FCY002"
    name = "wall-clock"
    summary = (
        "wall-clock read in simulation/fingerprint code; use the monotonic "
        "clock for durations, sim.now for simulated timestamps"
    )
    scope = _SIM_SCOPE + ("runtime/jobs.py",)

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, ctx)
            if name in _WALL_CLOCK:
                found.append(ctx.diagnostic(
                    node, self.code,
                    f"wall-clock call `{name}()` in a simulation/fingerprint code path",
                    hint="use time.monotonic()/time.perf_counter() for durations "
                         "or the simulated clock (sim.now)",
                ))
        return found


# --------------------------------------------------------------------------
# FCY003 — hash-order-dependent iteration escaping into results
# --------------------------------------------------------------------------

#: set methods returning another (unordered) set.
_SET_COMBINATORS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})
#: calls whose argument order escapes into the produced sequence.
_ORDER_ESCAPES = frozenset({"list", "tuple", "enumerate", "iter"})
#: order-insensitive consumers: iterating inside these is fine.
_ORDER_SINKS = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset", "bool",
})


def _is_unordered(node: ast.expr, ctx: FileContext) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node, ctx)
        if name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in _SET_COMBINATORS:
            return True
    return False


class UnorderedIterationRule(Rule):
    code = "FCY003"
    name = "unordered-iteration"
    summary = (
        "iteration order of a set (PYTHONHASHSEED-dependent) escapes into "
        "results, fingerprints, or RNG draw sequences"
    )
    scope = _SIM_SCOPE

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        order_sink_args: set[int] = set()
        # First pass: remember unordered expressions consumed by
        # order-insensitive sinks (sorted(set(...)) is the approved idiom).
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _call_name(node, ctx)
                if name in _ORDER_SINKS:
                    for arg in node.args:
                        order_sink_args.add(id(arg))
            elif isinstance(node, ast.Compare):
                # membership tests don't observe iteration order
                for comparator in node.comparators:
                    order_sink_args.add(id(comparator))

        def flag(expr: ast.expr, where: str) -> None:
            if id(expr) in order_sink_args:
                return
            if _is_unordered(expr, ctx):
                found.append(ctx.diagnostic(
                    expr, self.code,
                    f"iteration over an unordered set expression {where}",
                    hint="wrap in sorted(...) so the order is independent of "
                         "PYTHONHASHSEED",
                ))

        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                flag(node.iter, "in a for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    flag(gen.iter, "in a comprehension")
            elif isinstance(node, ast.Call):
                name = _call_name(node, ctx)
                is_join = isinstance(node.func, ast.Attribute) and node.func.attr == "join"
                if (name in _ORDER_ESCAPES or is_join) and node.args:
                    flag(node.args[0], f"passed to `{name or 'join'}()`")
        return found


# --------------------------------------------------------------------------
# FCY004 — blocking calls inside the event-driven packages
# --------------------------------------------------------------------------

_BLOCKING_EXACT = frozenset({
    "time.sleep", "os.system", "os.popen", "open", "input",
})
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "requests.", "urllib.")


class BlockingCallRule(Rule):
    code = "FCY004"
    name = "blocking-call"
    summary = (
        "blocking call in repro.core/repro.simulator, which runs entirely "
        "inside the discrete-event loop"
    )
    scope = ("core/", "simulator/")

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, ctx)
            if name is None:
                continue
            if name in _BLOCKING_EXACT or name.startswith(_BLOCKING_PREFIXES):
                found.append(ctx.diagnostic(
                    node, self.code,
                    f"blocking call `{name}()` inside an event-driven package",
                    hint="simulate delays with sim.schedule(...); do I/O in "
                         "repro.runtime / experiment drivers instead",
                ))
        return found


# --------------------------------------------------------------------------
# FCY006 — exact equality on simulated-time floats
# --------------------------------------------------------------------------


def _is_timeish(node: ast.expr) -> bool:
    label: str | None = None
    if isinstance(node, ast.Attribute):
        label = node.attr
    elif isinstance(node, ast.Name):
        label = node.id
    if label is None:
        return False
    return (
        label == "now"
        or label == "deadline"
        or label.endswith("_deadline")
        or label.endswith("_time")
    )


def _is_sentinel(node: ast.expr) -> bool:
    """None / negative-number sentinels are legitimate exact compares."""
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
    )


class SimTimeEqualityRule(Rule):
    code = "FCY006"
    name = "simtime-equality"
    summary = (
        "exact ==/!= on simulated-time floats; accumulated float error "
        "makes exact equality timing-dependent"
    )
    scope = ("core/", "simulator/", "experiments/")

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_sentinel(left) or _is_sentinel(right):
                    continue
                now_compare = (
                    isinstance(left, ast.Attribute) and left.attr == "now"
                ) or (isinstance(right, ast.Attribute) and right.attr == "now")
                if now_compare or (_is_timeish(left) and _is_timeish(right)):
                    found.append(ctx.diagnostic(
                        node, self.code,
                        "exact ==/!= comparison of simulated-time floats",
                        hint="compare with <=/>= against a window, or use "
                             "math.isclose with an explicit tolerance",
                    ))
                    break
        return found


# --------------------------------------------------------------------------
# FCY007 — shared / unseeded RNG streams in chaos fault code
# --------------------------------------------------------------------------

#: method names that advance a ``random.Random`` stream when called.
_RNG_DRAW_METHODS = frozenset({
    "random", "uniform", "randrange", "randint", "choice", "choices",
    "sample", "shuffle", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "getrandbits", "randbytes", "vonmisesvariate",
    "paretovariate", "weibullvariate", "lognormvariate",
})
#: attribute names under which fault objects conventionally keep their RNG.
_RNG_ATTR_NAMES = frozenset({"rng", "_rng"})


class ChaosRngRule(Rule):
    code = "FCY007"
    name = "chaos-shared-rng"
    summary = (
        "chaos fault code with an unseeded random.Random() or a draw from "
        "another object's RNG stream; schedule shrinking is sound only "
        "when each fault owns a random.Random seeded from its original "
        "schedule index"
    )
    scope = ("chaos/", "simulator/failures.py")

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, ctx)
            if name == "random.Random":
                # Global-module draws (random.random(), ...) are FCY001's
                # job — its scope covers chaos/ — so FCY007 only adds the
                # cases FCY001 deliberately allows.
                if not node.args and not node.keywords:
                    found.append(ctx.diagnostic(
                        node, self.code,
                        "unseeded `random.Random()`; the fault's stream would "
                        "depend on OS entropy and the run would not replay",
                        hint="seed it from the fault's original schedule index: "
                             "random.Random(stable_seed(base_seed, 'fault', "
                             "spec.index))",
                    ))
                continue
            # Cross-object draw: `other.rng.random()` where the receiver is
            # not `self` borrows a sibling fault's stream — the two faults'
            # draw sequences become entangled and neither replays alone.
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _RNG_DRAW_METHODS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in _RNG_ATTR_NAMES
            ):
                root: ast.expr = func.value.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id != "self":
                    owner = ctx.canonical(func.value) or f"{root.id}.{func.value.attr}"
                    found.append(ctx.diagnostic(
                        node, self.code,
                        f"draw from another object's RNG stream `{owner}."
                        f"{func.attr}()`",
                        hint="each fault must draw only from its own seeded "
                             "random.Random (self.rng)",
                    ))
        return found


# --------------------------------------------------------------------------
# FCY008 — adjacency / neighbor state held in an unordered set
# --------------------------------------------------------------------------

#: substrings marking a binding as graph-topology state.
_TOPOLOGY_NAME_MARKERS = ("adj", "neighbor", "neighbour", "peer", "next_hop")


def _binding_label(target: ast.expr) -> str | None:
    """The human name a value is being bound to, through one subscript.

    ``adjacency = ...`` → ``adjacency``; ``self._adj[node] = ...`` →
    ``_adj``; ``graph.neighbors = ...`` → ``neighbors``.
    """
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None


def _is_topology_name(label: str | None) -> bool:
    if label is None:
        return False
    lowered = label.lower()
    return any(marker in lowered for marker in _TOPOLOGY_NAME_MARKERS)


class UnorderedAdjacencyRule(Rule):
    code = "FCY008"
    name = "unordered-adjacency"
    summary = (
        "graph adjacency/neighbor state stored as an unordered set; fabric "
        "port numbering, ECMP next-hop order, and flowlet paths all follow "
        "neighbor iteration order, which a set ties to PYTHONHASHSEED"
    )
    scope = _SIM_SCOPE

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []

        def flag(target: ast.expr, value: ast.expr) -> None:
            label = _binding_label(target)
            if _is_topology_name(label) and _is_unordered(value, ctx):
                found.append(ctx.diagnostic(
                    value, self.code,
                    f"topology state `{label}` assigned an unordered set",
                    hint="keep adjacency insertion-ordered: use a list or a "
                         "dict-of-dicts ordered set (dict[str, None])",
                ))

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    flag(target, node.value)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if getattr(node, "value", None) is not None:
                    flag(node.target, node.value)  # type: ignore[arg-type]
            elif isinstance(node, ast.Call):
                # `adj.setdefault(key, set())` seeds the same unordered state.
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "setdefault"
                    and len(node.args) == 2
                    and _is_topology_name(_binding_label(func.value))
                    and _is_unordered(node.args[1], ctx)
                ):
                    found.append(ctx.diagnostic(
                        node.args[1], self.code,
                        f"topology state `{_binding_label(func.value)}` "
                        "seeded with an unordered set",
                        hint="keep adjacency insertion-ordered: use a list or "
                             "a dict-of-dicts ordered set (dict[str, None])",
                    ))
        return found


# --------------------------------------------------------------------------
# FCY009 — telemetry instruments created inside per-packet/per-event paths
# --------------------------------------------------------------------------

#: function-name substrings marking a per-packet / per-event hot path.
_HOT_PATH_NAME_MARKERS = (
    "packet", "egress", "ingress", "forward", "transmit", "hook", "tick",
    "step", "dispatch", "decide", "steer",
)
#: parameter names that mark a function as packet/event-driven.
_HOT_PATH_PARAM_NAMES = frozenset({"packet", "event"})
#: exact function names (leading underscores stripped) of the protocol
#: FSMs' per-control-message handlers: four messages per session per FSM.
_PER_MESSAGE_HANDLERS = frozenset({
    "on_control", "emit", "send", "count_control", "count_rejected",
})
#: registry methods that *create or look up* an instrument (label
#: hashing + dict lookup per call — cheap once, not per packet).
_INSTRUMENT_FACTORIES = frozenset({"counter", "gauge", "histogram"})
#: receiver-name substrings identifying a metrics registry.
_REGISTRY_NAME_MARKERS = ("metric", "registr")


def _is_hot_path_function(node: ast.AST) -> bool:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    lowered = node.name.lower()
    if any(marker in lowered for marker in _HOT_PATH_NAME_MARKERS):
        return True
    if lowered.lstrip("_") in _PER_MESSAGE_HANDLERS:
        return True
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return any(p in _HOT_PATH_PARAM_NAMES for p in params)


def _memoised_factory_calls(func: ast.AST) -> set[ast.Call]:
    """Factory calls that run once per label, not once per call.

    The lazily memoised shape — the hot path probes a memo and only a
    miss reaches the registry::

        counter = self._rejected.get(reason)
        if counter is None:
            counter = self._rejected[reason] = metrics.counter(...)
        counter.inc()

    i.e. a call assigned, inside ``if <name> is None:``, to that name.
    """
    memoised: set[ast.Call] = set()
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and len(node.test.ops) == 1
            and isinstance(node.test.ops[0], ast.Is)
            and isinstance(node.test.comparators[0], ast.Constant)
            and node.test.comparators[0].value is None
        ):
            continue
        memo = node.test.left.id
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == memo for t in stmt.targets
            ):
                memoised.update(
                    n for n in ast.walk(stmt.value) if isinstance(n, ast.Call))
    return memoised


class HotPathInstrumentRule(Rule):
    code = "FCY009"
    name = "hot-path-instrument"
    summary = (
        "telemetry instrument created inside a per-packet/per-event hot "
        "path; registry.counter()/gauge()/histogram() hash the label set "
        "on every call — resolve the instrument once (at bind time, or "
        "memoised on first use behind an `is None` probe) and keep only "
        ".inc()/.set()/.observe() on the hot path"
    )
    scope = ("obs/", "fabric/", "simulator/", "core/")

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for func in ast.walk(tree):
            if not _is_hot_path_function(func):
                continue
            memoised = _memoised_factory_calls(func)
            for node in ast.walk(func):  # type: ignore[arg-type]
                if not isinstance(node, ast.Call) or node in memoised:
                    continue
                call = node.func
                if (
                    not isinstance(call, ast.Attribute)
                    or call.attr not in _INSTRUMENT_FACTORIES
                ):
                    continue
                receiver = _binding_label(call.value)
                if receiver is None:
                    continue
                lowered = receiver.lower()
                if not any(m in lowered for m in _REGISTRY_NAME_MARKERS):
                    continue
                found.append(ctx.diagnostic(
                    node, self.code,
                    f"instrument factory `{receiver}.{call.attr}(...)` "
                    f"called inside hot-path function "
                    f"`{func.name}`",  # type: ignore[union-attr]
                    hint="create the instrument once (at __init__/bind "
                         "time, or memoized per label) and call "
                         ".inc()/.set()/.observe() here",
                ))
        return found


# --------------------------------------------------------------------------
# FCY010 — per-packet granularity / unstable seeding in fluid & shard code
# --------------------------------------------------------------------------

#: package-relative prefixes of the fluid fast-path implementation.
_FLUID_SCOPE = ("simulator/fluid",)
#: package-relative prefixes of shard planning / spec construction.
_SHARD_SCOPE = ("fabric/sharding",)


class FluidGranularityRule(Rule):
    code = "FCY010"
    name = "fluid-granularity"
    summary = (
        "per-packet work (Packet construction, per-packet RNG draws in "
        "loops) inside fluid-model code, or shard-spec RNG seeding that "
        "bypasses stable_seed; the fluid tier is only a fast path while "
        "it stays bulk, and shard outputs only regroup-invariantly while "
        "every seed is a stable_seed of the link id"
    )
    # Scoping is per sub-check (fluid vs shard files), resolved in
    # ``check`` so fixture files outside the package can opt in by name.
    scope = ()

    def _scopes(self, ctx: FileContext) -> tuple[bool, bool]:
        if ctx.rel_path is not None:
            return (ctx.rel_path.startswith(_FLUID_SCOPE),
                    ctx.rel_path.startswith(_SHARD_SCOPE))
        base = ctx.path.replace("\\", "/").rsplit("/", 1)[-1]
        return ("fluid" in base, "shard" in base)

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        fluid_scope, shard_scope = self._scopes(ctx)
        found: list[Diagnostic] = []
        if fluid_scope:
            found.extend(self._check_fluid(tree, ctx))
        if shard_scope:
            found.extend(self._check_shard(tree, ctx))
        return found

    # -- fluid files: no per-packet granularity --------------------------

    def _check_fluid(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, ctx)
            if name is not None and (
                name == "Packet.acquire" or name.endswith(".Packet.acquire")
                or name == "Packet" or name.endswith(".Packet")
            ):
                found.append(ctx.diagnostic(
                    node, self.code,
                    "per-packet object construction in fluid-model code",
                    hint="the fluid tier feeds counters in bulk at window "
                         "boundaries; if this path needs real packets it "
                         "belongs in the discrete plane",
                ))
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _RNG_DRAW_METHODS):
                    found.append(ctx.diagnostic(
                        node, self.code,
                        f"per-packet RNG draw `{func.attr}()` inside a "
                        "loop in fluid-model code",
                        hint="draw losses per rate segment (one seeded "
                             "binomial per window), not per packet; a "
                             "deliberate per-emission draw needs a "
                             "trailing `# fancylint: disable=FCY010` "
                             "with its justification",
                    ))
        return found

    # -- shard files: every seed through stable_seed ---------------------

    def _check_shard(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, ctx)
            if name == "random.Random":
                if not self._seeded_by_stable_seed(node, ctx):
                    found.append(ctx.diagnostic(
                        node, self.code,
                        "shard-spec RNG seeded without stable_seed; the "
                        "stream would depend on grouping or entropy and "
                        "shard outputs would not be regroup-invariant",
                        hint="seed from the link id: random.Random("
                             "stable_seed(base_seed, 'fabric-shard', "
                             "link_id))",
                    ))
            elif name == "hash":
                found.append(ctx.diagnostic(
                    node, self.code,
                    "hash()-derived seed material in shard planning; "
                    "str hashes are salted per process (PYTHONHASHSEED)",
                    hint="derive per-link seeds with stable_seed(...)",
                ))
        return found

    @staticmethod
    def _seeded_by_stable_seed(node: ast.Call, ctx: FileContext) -> bool:
        if len(node.args) != 1 or node.keywords:
            return False
        seed = node.args[0]
        if not isinstance(seed, ast.Call):
            return False
        name = _call_name(seed, ctx)
        return name is not None and (
            name == "stable_seed" or name.endswith(".stable_seed"))


# --------------------------------------------------------------------------
# FCY013 — trace spans opened on a path that can return without closing
# --------------------------------------------------------------------------


def _span_handle_uses(func: ast.AST, name: str) -> list[ast.AST]:
    """Loads of ``name`` other than its defining store."""
    uses: list[ast.AST] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == name and \
                isinstance(node.ctx, ast.Load):
            uses.append(node)
    return uses


def _close_span_calls(func: ast.AST, handle: str) -> list[ast.Call]:
    """``*.close_span(handle, ...)`` calls inside ``func``."""
    out: list[ast.Call] = []
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "close_span"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == handle):
            out.append(node)
    return out


def _in_finally(func: ast.AST, call: ast.Call) -> bool:
    """Is ``call`` located inside some ``try/finally`` final body?"""
    for node in ast.walk(func):
        if isinstance(node, ast.Try) and node.finalbody:
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if sub is call:
                        return True
    return False


class SpanBalanceRule(Rule):
    code = "FCY013"
    name = "span-balance"
    summary = (
        "trace span opened on a path that can return without closing it; "
        "an abandoned span has no end time, so episode reports and the "
        "chrome trace render it as running forever"
    )
    # All files: span-opening callers live in core/, fabric/ and obs/;
    # fixtures outside the package opt in automatically (rel_path None).
    scope = ()

    def check(self, tree: ast.AST, ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found.extend(self._check_function(func, ctx))
        return found

    def _check_function(self, func: ast.AST,
                        ctx: FileContext) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        # Map statement-level open_span uses: Expr (discarded), Assign.
        for node in ast.walk(func):
            if isinstance(node, ast.Expr) and self._is_open_span(node.value):
                found.append(ctx.diagnostic(
                    node.value, self.code,
                    "open_span() result discarded; the span can never be "
                    "closed",
                    hint="keep the handle and close_span(handle, t) it, or "
                         "store it for a later closer",
                ))
            elif isinstance(node, ast.Assign) and self._is_open_span(node.value):
                found.extend(self._check_assignment(func, node, ctx))
        return found

    @staticmethod
    def _is_open_span(expr: ast.expr) -> bool:
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "open_span")

    def _check_assignment(self, func: ast.AST, node: ast.Assign,
                          ctx: FileContext) -> list[Diagnostic]:
        if len(node.targets) != 1:
            return []
        target = node.targets[0]
        # Stored on an object or into a container: closed elsewhere, by
        # design (session spans on the FSM, recovery spans keyed by link).
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            return []
        if not isinstance(target, ast.Name):
            return []
        handle = target.id
        closes = _close_span_calls(func, handle)
        close_args = {call.args[0] for call in closes}
        # Escape analysis: a handle used anywhere beyond close_span's
        # first argument (tuple packing, dict store, passed to a helper,
        # compared) is handed off — its closer lives elsewhere.
        for use in _span_handle_uses(func, handle):
            if use not in close_args:
                return []
        if not closes:
            return [ctx.diagnostic(
                node.value, self.code,
                f"span handle `{handle}` is never passed to close_span() "
                "in this function and does not escape",
                hint="close_span(handle, t) on every exit path (try/finally)",
            )]
        if any(_in_finally(func, call) for call in closes):
            return []
        first_close = min(call.lineno for call in closes)
        for sub in ast.walk(func):
            if isinstance(sub, ast.Return) and \
                    node.lineno < sub.lineno < first_close:
                return [ctx.diagnostic(
                    node.value, self.code,
                    f"span `{handle}` opened here but the function can "
                    f"return (line {sub.lineno}) before close_span()",
                    hint="close the span in a finally block, or before "
                         "every early return",
                )]
        return []


#: Registry, in rule-code order.
ALL_RULES: tuple[Rule, ...] = (
    GlobalRngRule(),
    WallClockRule(),
    UnorderedIterationRule(),
    BlockingCallRule(),
    SimTimeEqualityRule(),
    ChaosRngRule(),
    UnorderedAdjacencyRule(),
    HotPathInstrumentRule(),
    FluidGranularityRule(),
    SpanBalanceRule(),
)


def rule_catalog() -> str:
    """Human-readable rule listing for ``--list-rules``."""
    lines = []
    for rule in ALL_RULES:
        scope = ", ".join(rule.scope) if rule.scope else "all files"
        lines.append(f"{rule.code} [{rule.name}] — {rule.summary}")
        lines.append(f"    scope: {scope}")
    return "\n".join(lines)
