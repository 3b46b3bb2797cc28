"""FCY012 — static FSM extraction and model checking for the protocol.

The chaos soak checks the protocol FSM invariants *dynamically* (I1–I6):
a bad transition only surfaces if some schedule exercises it.  This pass
proves the complementary static property on every lint run: the
transition graphs **implemented** by ``FancySender``/``FancyReceiver``
are exactly the ones **declared** next to them in ``core/protocol.py``
(``SENDER_FSM_SPEC`` / ``RECEIVER_FSM_SPEC``).

**Extraction** is an abstract interpretation of each FSM class.  The
abstract value is the set of states ``self.state`` may hold (the full
member set rendered as ``*``).  Guards refine it (``self.state is X``,
``is not`` with a terminal body, ``in (A, B)``, ``and``-conjunctions);
``self._set_state(X)`` emits one edge per possible source state and
narrows the context to ``{X}``.  Contexts propagate interprocedurally to
``self.method()`` calls *and* to bare method references passed as call
arguments — a timer callback runs in the state context that armed it,
which is exactly the protocol's timer discipline.  A fixpoint over
method entry contexts converges because contexts only grow.  Running
the fixpoint twice — once over all methods, once excluding the spec's
``lifecycle_methods`` — splits the edge set into protocol transitions
and lifecycle (teardown/reboot) edges, which are declared separately.

**Checks** (all FCY012):

* code transition not declared in the spec (drift, code ahead);
* declared transition not implemented (drift, spec ahead);
* enum state unreachable from ``initial`` over declared transitions;
* non-lifecycle transition out of a declared ``terminal`` state;
* ``timeout``-kind transition without a capped-backoff path: every
  in-class caller of the method that declares the failure must also arm
  the declared ``backoff_helper``, whose body must cap its factor
  (a ``min(...)`` with a ``*cap*`` operand);
* malformed spec (unknown state/class names, missing keys).

The extracted models are exported as ``fsm.json`` plus one Graphviz
``fsm-<role>.dot`` per FSM (``--fsm-out``), so the declared protocol is
a reviewable artifact, not a comment.
"""

from __future__ import annotations

import ast
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .diagnostics import Diagnostic

__all__ = [
    "FSM_CODE",
    "ExtractedEdge",
    "FsmModel",
    "FsmSpec",
    "check_fsm",
    "extract_fsms",
    "fsm_to_dot",
    "fsm_to_json",
    "run_fsm_pass",
    "write_fsm_artifacts",
]

FSM_CODE = "FCY012"

_SPEC_SUFFIX = "_FSM_SPEC"
_REQUIRED_KEYS = (
    "role", "fsm_class", "state_enum", "initial", "terminal",
    "lifecycle_methods", "backoff_helper", "transitions",
)


@dataclass(frozen=True)
class FsmSpec:
    """A declared transition table (one ``*_FSM_SPEC`` literal)."""

    role: str
    fsm_class: str
    state_enum: str
    initial: str
    terminal: tuple[str, ...]
    lifecycle_methods: tuple[str, ...]
    backoff_helper: str | None
    #: ``(from, to, label, kind)``; ``from`` may be ``"*"``.
    transitions: tuple[tuple[str, str, str, str], ...]
    path: str
    lineno: int


@dataclass(frozen=True, order=True)
class ExtractedEdge:
    """One implemented transition, with its witness location."""

    src: str        #: source state name, or ``"*"`` (any state)
    dst: str
    method: str     #: method containing the state assignment
    lineno: int

    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)


@dataclass
class FsmModel:
    """Spec + extraction results for one FSM class."""

    spec: FsmSpec
    states: tuple[str, ...]
    full_edges: tuple[ExtractedEdge, ...]
    protocol_edges: tuple[ExtractedEdge, ...]
    lifecycle_edges: tuple[ExtractedEdge, ...]
    #: methods that arm the declared backoff helper, per caller analysis
    backoff_ok: bool = True
    #: method name -> set of self-methods it calls (for backoff witnesses)
    self_calls: dict[str, frozenset[str]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)


# --------------------------------------------------------------------------
# spec discovery
# --------------------------------------------------------------------------


def _literal_specs(tree: ast.Module, path: str) -> list[tuple[str, dict[str, Any], int]]:
    """``(name, literal dict, lineno)`` for each ``*_FSM_SPEC`` assignment."""
    out: list[tuple[str, dict[str, Any], int]] = []
    for node in tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if not (isinstance(target, ast.Name) and target.id.endswith(_SPEC_SUFFIX)):
            continue
        if value is None:
            continue
        try:
            literal = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            continue
        if isinstance(literal, dict):
            out.append((target.id, literal, node.lineno))
    return out


def _parse_spec(name: str, literal: dict[str, Any], path: str,
                lineno: int, diags: list[Diagnostic]) -> FsmSpec | None:
    missing = [key for key in _REQUIRED_KEYS if key not in literal]
    if missing:
        diags.append(Diagnostic(
            path=path, line=lineno, col=1, code=FSM_CODE,
            message=f"FSM spec `{name}` is missing keys: {', '.join(missing)}",
            hint="see docs/STATIC_ANALYSIS.md for the spec format",
        ))
        return None
    transitions = tuple(
        (str(t[0]), str(t[1]), str(t[2]), str(t[3]))
        for t in literal["transitions"]
    )
    helper = literal["backoff_helper"]
    return FsmSpec(
        role=str(literal["role"]),
        fsm_class=str(literal["fsm_class"]),
        state_enum=str(literal["state_enum"]),
        initial=str(literal["initial"]),
        terminal=tuple(str(s) for s in literal["terminal"]),
        lifecycle_methods=tuple(str(m) for m in literal["lifecycle_methods"]),
        backoff_helper=None if helper is None else str(helper),
        transitions=transitions,
        path=path,
        lineno=lineno,
    )


def _enum_members(tree: ast.Module, enum_name: str) -> tuple[str, ...]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == enum_name:
            members: list[str] = []
            for item in node.body:
                if isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            members.append(target.id)
            return tuple(members)
    return ()


def _find_class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


# --------------------------------------------------------------------------
# abstract interpretation
# --------------------------------------------------------------------------


class _ClassExtractor:
    """Abstract interpreter over one FSM class.

    ``ctx`` is a frozenset of possible state names; the full member set
    plays the role of "any state" and renders as ``*`` in edges.  A
    ``None`` exit context means the statement list cannot fall through
    (it returned/raised on every path).
    """

    def __init__(self, cls: ast.ClassDef, enum_name: str,
                 members: tuple[str, ...]) -> None:
        self.enum_name = enum_name
        self.members = members
        self.all_states = frozenset(members)
        self.methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {
            item.name: item for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.state_attr, self.setter = self._find_setter()
        self.may_transition = self._may_transition_fixpoint()

    # -- structural discovery ---------------------------------------------

    def _find_setter(self) -> tuple[str, str | None]:
        """The state attribute name and its setter method, if any.

        The state attribute is the ``self.<attr>`` that is assigned or
        compared against members of the FSM's enum (``self.state =
        SenderState.IDLE``, ``self.state is SenderState.COUNTING``); the
        setter is a non-``__init__`` method assigning that attribute
        from one of its own parameters (the protocol's ``_set_state``).
        Direct-assignment FSMs have a state attribute but no setter.
        """
        attr_votes: dict[str, int] = {}
        for fn in self.methods.values():
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and self._member_of(node.value) is not None):
                        attr_votes[target.attr] = attr_votes.get(target.attr, 0) + 1
                elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                    left = node.left
                    comp = node.comparators[0]
                    enumish = self._member_of(comp) is not None or (
                        isinstance(comp, (ast.Tuple, ast.List, ast.Set))
                        and any(self._member_of(e) is not None
                                for e in comp.elts))
                    if (enumish and isinstance(left, ast.Attribute)
                            and isinstance(left.value, ast.Name)
                            and left.value.id == "self"):
                        attr_votes[left.attr] = attr_votes.get(left.attr, 0) + 1
        if not attr_votes:
            return "state", None
        state_attr = max(sorted(attr_votes), key=lambda a: attr_votes[a])
        for name, fn in self.methods.items():
            if name == "__init__":
                continue
            params = [a.arg for a in fn.args.args[1:]]
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr == state_attr
                            and isinstance(node.value, ast.Name)
                            and node.value.id in params):
                        return state_attr, name
        return state_attr, None

    def _member_of(self, expr: ast.expr) -> str | None:
        """``SenderState.WAIT_ACK`` → ``"WAIT_ACK"`` if it names a member."""
        if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                and expr.value.id == self.enum_name
                and expr.attr in self.all_states):
            return expr.attr
        return None

    def _is_state_read(self, expr: ast.expr) -> bool:
        return (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr == self.state_attr)

    def _direct_transitions(self, fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and \
                            self._is_state_read(target):
                        return True
            if isinstance(node, ast.Call) and self.setter is not None and \
                    isinstance(node.func, ast.Attribute) and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id == "self" and node.func.attr == self.setter:
                return True
        return False

    def _self_call_targets(self, fn: ast.AST) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self" \
                    and node.func.attr in self.methods:
                out.add(node.func.attr)
        return out

    def _may_transition_fixpoint(self) -> set[str]:
        """Methods whose inline call may change ``self.state``."""
        direct = {name for name, fn in self.methods.items()
                  if self._direct_transitions(fn)}
        changed = True
        while changed:
            changed = False
            for name, fn in self.methods.items():
                if name in direct:
                    continue
                if self._self_call_targets(fn) & direct:
                    direct.add(name)
                    changed = True
        return direct

    # -- guard refinement --------------------------------------------------

    def _refine(self, test: ast.expr, ctx: frozenset[str],
                ) -> tuple[frozenset[str], frozenset[str]]:
        """(true-branch ctx, false-branch ctx) under guard ``test``."""
        if isinstance(test, ast.Compare) and len(test.ops) == 1 and \
                self._is_state_read(test.left):
            op = test.ops[0]
            comp = test.comparators[0]
            member = self._member_of(comp)
            if member is not None:
                if isinstance(op, (ast.Is, ast.Eq)):
                    return ctx & {member}, ctx - {member}
                if isinstance(op, (ast.IsNot, ast.NotEq)):
                    return ctx - {member}, ctx & {member}
            if isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
                group = {m for e in comp.elts
                         if (m := self._member_of(e)) is not None}
                if group:
                    if isinstance(op, ast.In):
                        return ctx & group, ctx - group
                    if isinstance(op, ast.NotIn):
                        return ctx - group, ctx & group
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            true_ctx = ctx
            for value in test.values:
                true_ctx, _ = self._refine(value, true_ctx)
            # a failed conjunct tells us nothing about which one failed
            return true_ctx, ctx
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            true_ctx, false_ctx = self._refine(test.operand, ctx)
            return false_ctx, true_ctx
        return ctx, ctx

    # -- simulation --------------------------------------------------------

    def simulate(self, method: str, entry: frozenset[str],
                 edges: list[ExtractedEdge],
                 propagate: dict[str, frozenset[str]],
                 include: frozenset[str]) -> None:
        """Walk one method body, collecting edges and propagations."""
        fn = self.methods[method]

        def record_transition(dst: str, lineno: int, ctx: frozenset[str]) -> None:
            if not ctx:
                return
            if ctx == self.all_states:
                edges.append(ExtractedEdge("*", dst, method, lineno))
            else:
                for src in sorted(ctx):
                    edges.append(ExtractedEdge(src, dst, method, lineno))

        def send_to(target: str, ctx: frozenset[str]) -> None:
            if target in include and target != self.setter:
                propagate[target] = propagate.get(target, frozenset()) | ctx

        def eval_call(node: ast.Call, ctx: frozenset[str]) -> frozenset[str]:
            """Handle one call expression; returns the context after it."""
            func = node.func
            # self._set_state(X)
            if (self.setter is not None and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self" and func.attr == self.setter
                    and node.args):
                member = self._member_of(node.args[0])
                if member is not None:
                    record_transition(member, node.lineno, ctx)
                    return frozenset({member})
                return self.all_states
            # bare method references in argument position: the callback
            # will run in the context that registered it
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if (isinstance(arg, ast.Attribute)
                        and isinstance(arg.value, ast.Name)
                        and arg.value.id == "self"
                        and arg.attr in self.methods):
                    send_to(arg.attr, ctx)
            # self.method() inline call
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self" and func.attr in self.methods):
                send_to(func.attr, ctx)
                if func.attr in self.may_transition:
                    return self.all_states
            return ctx

        def eval_expr(expr: ast.expr, ctx: frozenset[str]) -> frozenset[str]:
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    ctx = eval_call(node, ctx)
            return ctx

        def run_block(body: Sequence[ast.stmt],
                      ctx: frozenset[str]) -> frozenset[str] | None:
            """Returns fall-through context, or None if none exists."""
            current: frozenset[str] | None = ctx
            for stmt in body:
                if current is None:
                    break
                current = run_stmt(stmt, current)
            return current

        def join(a: frozenset[str] | None,
                 b: frozenset[str] | None) -> frozenset[str] | None:
            if a is None:
                return b
            if b is None:
                return a
            return a | b

        def run_stmt(stmt: ast.stmt,
                     ctx: frozenset[str]) -> frozenset[str] | None:
            if isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    eval_expr(stmt.value, ctx)
                return None
            if isinstance(stmt, ast.If):
                ctx = eval_expr(stmt.test, ctx)
                true_ctx, false_ctx = self._refine(stmt.test, ctx)
                after_true = run_block(stmt.body, true_ctx)
                after_false = run_block(stmt.orelse, false_ctx) \
                    if stmt.orelse else false_ctx
                return join(after_true, after_false)
            if isinstance(stmt, ast.Assign):
                after = eval_expr(stmt.value, ctx)
                member = self._member_of(stmt.value) \
                    if not isinstance(stmt.value, ast.Call) else None
                for target in stmt.targets:
                    if isinstance(target, ast.Attribute) and \
                            self._is_state_read(target):
                        if member is not None:
                            record_transition(member, stmt.lineno, ctx)
                            return frozenset({member})
                        return self.all_states
                return after
            if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                if getattr(stmt, "value", None) is not None:
                    return eval_expr(stmt.value, ctx)
                return ctx
            if isinstance(stmt, ast.Expr):
                return eval_expr(stmt.value, ctx)
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                if isinstance(stmt, ast.While):
                    ctx = eval_expr(stmt.test, ctx)
                else:
                    ctx = eval_expr(stmt.iter, ctx)
                body_exit = run_block(stmt.body, ctx)
                after = join(ctx, body_exit)
                if stmt.orelse and after is not None:
                    after = run_block(stmt.orelse, after)
                return after
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    ctx = eval_expr(item.context_expr, ctx)
                return run_block(stmt.body, ctx)
            if isinstance(stmt, ast.Try):
                body_exit = run_block(stmt.body, ctx)
                after = body_exit
                for handler in stmt.handlers:
                    after = join(after, run_block(handler.body, ctx))
                if stmt.orelse and after is not None:
                    after = run_block(stmt.orelse, after)
                if stmt.finalbody:
                    base = after if after is not None else ctx
                    after = run_block(stmt.finalbody, base)
                return after
            return ctx

        run_block(fn.body, entry)

    # -- fixpoint ----------------------------------------------------------

    def extract(self, exclude: Sequence[str] = ()) -> tuple[ExtractedEdge, ...]:
        """Fixpoint extraction over all methods except ``exclude``."""
        include = frozenset(self.methods) - frozenset(exclude)
        entries: dict[str, frozenset[str]] = {}
        for name in include:
            if name == self.setter:
                continue
            entries[name] = self.all_states if not name.startswith("_") \
                else frozenset()
        for _ in range(64):  # converges long before this; hard stop for safety
            edges: list[ExtractedEdge] = []
            propagate: dict[str, frozenset[str]] = {}
            for name in sorted(entries):
                self.simulate(name, entries[name], edges, propagate,
                              frozenset(entries))
            changed = False
            for target, ctx in propagate.items():
                merged = entries.get(target, frozenset()) | ctx
                if merged != entries.get(target):
                    entries[target] = merged
                    changed = True
            if not changed:
                return tuple(sorted(set(edges)))
        return tuple(sorted(set(edges)))


def extract_fsms(
    parsed: Sequence[tuple[str, ast.Module]],
) -> tuple[list[FsmModel], list[Diagnostic]]:
    """Find every declared FSM spec and extract its implementation."""
    models: list[FsmModel] = []
    spec_diags: list[Diagnostic] = []

    for path, tree in parsed:
        for name, literal, lineno in _literal_specs(tree, path):
            spec = _parse_spec(name, literal, path, lineno, spec_diags)
            if spec is None:
                continue
            members = _enum_members(tree, spec.state_enum)
            cls = _find_class(tree, spec.fsm_class)
            if not members or cls is None:
                what = (f"state enum `{spec.state_enum}`" if not members
                        else f"class `{spec.fsm_class}`")
                spec_diags.append(Diagnostic(
                    path=path, line=lineno, col=1, code=FSM_CODE,
                    message=f"FSM spec `{name}` references unknown {what} "
                            "in this module",
                    hint="declare the spec next to the FSM it describes",
                ))
                continue
            extractor = _ClassExtractor(cls, spec.state_enum, members)
            full = extractor.extract()
            protocol = extractor.extract(exclude=spec.lifecycle_methods)
            protocol_keys = {e.key() for e in protocol}
            lifecycle = tuple(e for e in full if e.key() not in protocol_keys)
            helper = spec.backoff_helper
            backoff_ok = True
            if helper is not None:
                backoff_ok = _backoff_is_capped(extractor, helper)
            models.append(FsmModel(
                spec=spec, states=members, full_edges=full,
                protocol_edges=protocol, lifecycle_edges=lifecycle,
                backoff_ok=backoff_ok,
                self_calls={
                    name: frozenset(extractor._self_call_targets(fn))
                    for name, fn in extractor.methods.items()
                },
            ))
    return models, spec_diags


def _backoff_is_capped(extractor: _ClassExtractor, helper: str) -> bool:
    """The backoff helper exists and caps its factor with ``min(..cap..)``."""
    fn = extractor.methods.get(helper)
    if fn is None:
        return False
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "min":
            for arg in node.args:
                names = [sub.attr for sub in ast.walk(arg)
                         if isinstance(sub, ast.Attribute)]
                names += [sub.id for sub in ast.walk(arg)
                          if isinstance(sub, ast.Name)]
                if any("cap" in n for n in names):
                    return True
    return False


# --------------------------------------------------------------------------
# model checking
# --------------------------------------------------------------------------


def _covered_by(edge: tuple[str, str], declared: set[tuple[str, str]]) -> bool:
    return edge in declared or ("*", edge[1]) in declared


def check_fsm(model: FsmModel) -> list[Diagnostic]:
    """All FCY012 findings for one extracted model."""
    spec = model.spec
    diags: list[Diagnostic] = []

    def at_spec(message: str, hint: str = "") -> Diagnostic:
        return Diagnostic(path=spec.path, line=spec.lineno, col=1,
                          code=FSM_CODE, message=message, hint=hint)

    states = set(model.states)
    declared_prot = {(t[0], t[1]) for t in spec.transitions
                     if t[3] != "lifecycle"}
    declared_life = {(t[0], t[1]) for t in spec.transitions
                     if t[3] == "lifecycle"}

    # spec hygiene: every named state must exist
    named = {spec.initial, *spec.terminal}
    for src, dst, _label, _kind in spec.transitions:
        named.update({src, dst})
    for name in sorted(named - states - {"*"}):
        diags.append(at_spec(
            f"FSM spec for `{spec.fsm_class}` names unknown state `{name}`",
            hint=f"states must be members of {spec.state_enum}",
        ))

    # drift: code ahead of spec
    for edge in model.protocol_edges:
        if not _covered_by(edge.key(), declared_prot):
            diags.append(Diagnostic(
                path=spec.path, line=edge.lineno, col=1, code=FSM_CODE,
                message=(
                    f"`{spec.fsm_class}.{edge.method}` implements transition "
                    f"{edge.src} -> {edge.dst} that is not declared in the "
                    "FSM spec"
                ),
                hint="add it to the spec's transitions, or remove the code path",
            ))
    for edge in model.lifecycle_edges:
        if not _covered_by(edge.key(), declared_life | declared_prot):
            diags.append(Diagnostic(
                path=spec.path, line=edge.lineno, col=1, code=FSM_CODE,
                message=(
                    f"lifecycle method `{spec.fsm_class}.{edge.method}` "
                    f"implements undeclared transition {edge.src} -> {edge.dst}"
                ),
                hint="declare it with kind \"lifecycle\" in the FSM spec",
            ))

    # drift: spec ahead of code
    implemented_prot = {e.key() for e in model.protocol_edges}
    implemented_life = {e.key() for e in model.lifecycle_edges}
    for src, dst, label, kind in spec.transitions:
        universe = implemented_life | implemented_prot if kind == "lifecycle" \
            else implemented_prot
        if (src, dst) in universe:
            continue
        if src == "*" and any(e == ("*", dst) or e[1] == dst for e in universe):
            # wildcard satisfied by an any-state edge or concrete arms
            if ("*", dst) in universe or all(
                    (s, dst) in universe for s in states if s != dst):
                continue
        diags.append(at_spec(
            f"declared transition {src} -> {dst} (`{label}`, {kind}) has no "
            f"implementation in `{spec.fsm_class}`",
            hint="the spec and the code have drifted; fix whichever is wrong",
        ))

    # unreachable states, over the declared graph
    reachable = {spec.initial} & states
    frontier = list(reachable)
    declared_all = declared_prot | declared_life
    while frontier:
        src = frontier.pop()
        for dsrc, ddst in declared_all:
            if (dsrc == src or dsrc == "*") and ddst in states \
                    and ddst not in reachable:
                reachable.add(ddst)
                frontier.append(ddst)
    for state in model.states:
        if state not in reachable:
            diags.append(at_spec(
                f"state {spec.state_enum}.{state} is unreachable from "
                f"{spec.initial} over the declared transitions",
                hint="remove the dead state or declare the missing transition",
            ))

    # non-lifecycle transitions out of terminal states
    for src, dst, label, kind in spec.transitions:
        if kind == "lifecycle":
            continue
        if src in spec.terminal or (src == "*" and spec.terminal):
            diags.append(at_spec(
                f"declared transition {src} -> {dst} (`{label}`) leaves "
                f"terminal state(s) {', '.join(spec.terminal)} outside a "
                "lifecycle method",
                hint="terminal states may only be left by lifecycle edges",
            ))
    for edge in model.protocol_edges:
        if edge.src in spec.terminal:
            diags.append(Diagnostic(
                path=spec.path, line=edge.lineno, col=1, code=FSM_CODE,
                message=(
                    f"`{spec.fsm_class}.{edge.method}` leaves terminal state "
                    f"{edge.src} outside a lifecycle method"
                ),
                hint="only lifecycle methods may reset a terminal FSM",
            ))

    # timeout edges require a capped-backoff path
    timeout_edges = [t for t in spec.transitions if t[3] == "timeout"]
    if timeout_edges:
        if spec.backoff_helper is None:
            diags.append(at_spec(
                "spec declares timeout transitions but no backoff_helper",
                hint="name the method that arms the capped retransmission timer",
            ))
        elif not model.backoff_ok:
            diags.append(at_spec(
                f"backoff helper `{spec.backoff_helper}` does not cap its "
                "factor (no `min(...)` over a *cap* bound found)",
                hint="cap the exponential backoff: min(2**n, cap) * timeout",
            ))
        else:
            witnesses = {e.method for e in model.protocol_edges
                         if (e.src, e.dst) in {(t[0], t[1]) for t in timeout_edges}}
            for method in sorted(witnesses):
                if not _callers_arm_backoff(model, method):
                    diags.append(at_spec(
                        f"timeout transition witness `{spec.fsm_class}."
                        f"{method}` is reachable without arming backoff "
                        f"helper `{spec.backoff_helper}`",
                        hint="every retry path must go through the capped timer",
                    ))
    model.diagnostics = diags
    return diags


def _callers_arm_backoff(model: FsmModel, witness: str) -> bool:
    """Every in-class caller of ``witness`` also arms the backoff helper."""
    helper = model.spec.backoff_helper
    if helper is None:
        return True
    callers = [name for name, targets in model.self_calls.items()
               if witness in targets and name != witness]
    if not callers:
        return False
    return all(helper in model.self_calls[name] for name in callers)


# --------------------------------------------------------------------------
# entry point + artifacts
# --------------------------------------------------------------------------


def run_fsm_pass(
    parsed: Sequence[tuple[str, ast.Module]],
) -> tuple[list[FsmModel], list[Diagnostic]]:
    """Extract and check every declared FSM; return models + findings."""
    models, diags = extract_fsms(parsed)
    for model in models:
        diags.extend(check_fsm(model))
    return models, sorted(diags)


def _edges_json(edges: Sequence[ExtractedEdge]) -> list[dict[str, Any]]:
    return [
        {"from": e.src, "to": e.dst, "method": e.method, "line": e.lineno}
        for e in edges
    ]


def fsm_to_json(models: Sequence[FsmModel]) -> dict[str, Any]:
    """Machine-readable model dump (deterministic ordering)."""
    return {
        "version": 1,
        "fsms": [
            {
                "role": m.spec.role,
                "class": m.spec.fsm_class,
                "state_enum": m.spec.state_enum,
                "states": list(m.states),
                "initial": m.spec.initial,
                "terminal": list(m.spec.terminal),
                "declared": [
                    {"from": t[0], "to": t[1], "label": t[2], "kind": t[3]}
                    for t in m.spec.transitions
                ],
                "extracted": {
                    "protocol": _edges_json(m.protocol_edges),
                    "lifecycle": _edges_json(m.lifecycle_edges),
                },
                "clean": not m.diagnostics,
            }
            for m in sorted(models, key=lambda m: m.spec.role)
        ],
    }


def fsm_to_dot(model: FsmModel) -> str:
    """Graphviz digraph of the declared FSM, annotated with drift."""
    spec = model.spec
    implemented = {e.key() for e in model.protocol_edges} | \
                  {e.key() for e in model.lifecycle_edges}
    out = [f'digraph "{spec.fsm_class}" {{', "  rankdir=LR;",
           '  node [shape=ellipse, fontname="Helvetica"];',
           '  edge [fontname="Helvetica", fontsize=10];']
    for state in model.states:
        attrs = []
        if state == spec.initial:
            attrs.append("penwidth=2")
        if state in spec.terminal:
            attrs.append("shape=doublecircle")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        out.append(f'  "{state}"{suffix};')
    for src, dst, label, kind in spec.transitions:
        style = {"timeout": "color=red",
                 "timer": "color=blue",
                 "lifecycle": "style=dashed"}.get(kind, "")
        drifted = "" if _covered_by((src, dst), implemented) or src == "*" \
            else ', label="MISSING", color=orange'
        attrs = ", ".join(filter(None, [f'label="{label}"', style])) + drifted
        srcs = model.states if src == "*" else (src,)
        for s in srcs:
            out.append(f'  "{s}" -> "{dst}" [{attrs}];')
    out.append("}")
    return "\n".join(out) + "\n"


def write_fsm_artifacts(models: Sequence[FsmModel], out_dir: str | Path) -> list[Path]:
    """Write ``fsm.json`` and one ``fsm-<role>.dot`` per model."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    json_path = directory / "fsm.json"
    json_path.write_text(
        json.dumps(fsm_to_json(models), indent=2, sort_keys=False) + "\n",
        encoding="utf-8")
    written.append(json_path)
    for model in sorted(models, key=lambda m: m.spec.role):
        dot_path = directory / f"fsm-{model.spec.role}.dot"
        dot_path.write_text(fsm_to_dot(model), encoding="utf-8")
        written.append(dot_path)
    return written
