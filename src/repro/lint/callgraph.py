"""Project-wide symbol table and call graph for the deep lint passes.

The per-file rules (FCY001–FCY010) see one module at a time, so a
determinism hazard hidden behind a helper in *another* module is
invisible to them: ``experiments/foo.py`` calling a ``runtime`` helper
that reads ``time.time()`` never mentions a clock.  The whole-program
layer (``fancy-repro lint --deep``) closes that gap.  This module builds
its substrate:

* a **symbol table** of every function, method and class defined under
  the linted roots, keyed by dotted qualified name
  (``repro.core.protocol.FancySender.on_control``);
* an **import map** per module that resolves ``import``/``from``
  aliases — including relative imports — through re-export chains
  (``from repro.runtime import stable_seed`` resolves to the def in
  ``repro.runtime.jobs``), reading a lazy facade's export table
  (:mod:`repro._lazy`) as the ``from .x import y`` lines it stands for;
* a **call graph** whose edges come from three resolution strategies,
  in decreasing confidence order:

  1. direct calls to names resolved through the import map
     (module-level functions, classes);
  2. ``self.method(...)`` / method references inside a class body, and
     calls through locals whose type is pinned by a visible constructor
     call (``reporter = ProgressReporter(...); reporter.cell_done()``);
  3. attribute calls whose method name is defined by exactly **one**
     class in the whole project (unique-name resolution, marked
     ``heuristic``).

  Bare method references passed as arguments (timer callbacks:
  ``sim.schedule(dt, self._close_session)``) become edges too — a
  callback is a deferred call.

Resolution is deliberately conservative everywhere else: an attribute
call on an unknown receiver produces no edge, and the *unresolved*
canonical name (``time.time``) is recorded on the caller so taint
sources outside the project are still visible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CallEdge",
    "CallGraph",
    "FunctionInfo",
    "ModuleInfo",
    "build_callgraph",
    "module_name_for",
]


def module_name_for(path: str | Path) -> str:
    """Dotted module name of a file, from its ``__init__.py`` package chain.

    ``src/repro/core/protocol.py`` → ``repro.core.protocol`` (walking up
    while a sibling ``__init__.py`` exists); a loose file outside any
    package resolves to its bare stem.
    """
    file = Path(path).resolve()
    parts = [file.stem]
    cursor = file.parent
    while (cursor / "__init__.py").exists():
        parts.append(cursor.name)
        cursor = cursor.parent
    if parts[0] == "__init__":
        parts = parts[1:] or [file.parent.name]
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str           #: ``repro.core.protocol.FancySender.on_control``
    module: str             #: ``repro.core.protocol``
    name: str               #: bare name (``on_control``)
    cls: str | None         #: owning class name, ``None`` for module level
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    lineno: int
    params: tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """Per-module import map and definitions."""

    name: str
    path: str
    tree: ast.Module
    #: True for ``__init__.py`` — its relative imports resolve against
    #: the package itself, not the parent package.
    is_package: bool = False
    #: local name -> dotted target (``stable_seed`` -> ``repro.runtime.stable_seed``)
    imports: dict[str, str] = field(default_factory=dict)
    #: names defined at module level (functions, classes, assignments)
    defines: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """One caller → callee edge.

    ``kind`` is ``"call"`` for a direct invocation, ``"ref"`` for a bare
    function/method reference (callback registration), and carries a
    ``"heuristic"`` suffix when resolved by unique-name matching.
    """

    caller: str
    callee: str
    path: str
    lineno: int
    col: int
    kind: str = "call"
    #: the ``ast.Call`` (kind ``call``) or reference expression, for
    #: argument inspection by the taint pass; excluded from identity.
    node: ast.AST | None = field(default=None, compare=False, repr=False)


class CallGraph:
    """Symbol table + directed call graph over the linted file set."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: class qualname -> {method name -> method qualname}
        self.classes: dict[str, dict[str, str]] = {}
        self.edges: list[CallEdge] = []
        self._out: dict[str, list[CallEdge]] = {}
        self._in: dict[str, list[CallEdge]] = {}
        #: caller qualname -> [(canonical unresolved callee, node)]
        self.external_calls: dict[str, list[tuple[str, ast.Call]]] = {}

    # -- queries -----------------------------------------------------------

    def callees_of(self, qualname: str) -> list[CallEdge]:
        return self._out.get(qualname, [])

    def callers_of(self, qualname: str) -> list[CallEdge]:
        return self._in.get(qualname, [])

    def reachable_from(self, roots: set[str]) -> set[str]:
        """Qualnames transitively callable from ``roots`` (roots included)."""
        seen = set(roots)
        stack = list(roots)
        while stack:
            for edge in self.callees_of(stack.pop()):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    stack.append(edge.callee)
        return seen

    def reaching(self, targets: set[str]) -> set[str]:
        """Qualnames that can transitively reach any of ``targets``."""
        seen = set(targets)
        stack = list(targets)
        while stack:
            for edge in self.callers_of(stack.pop()):
                if edge.caller not in seen:
                    seen.add(edge.caller)
                    stack.append(edge.caller)
        return seen

    def add_edge(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.caller, []).append(edge)
        self._in.setdefault(edge.callee, []).append(edge)

    # -- name resolution ---------------------------------------------------

    def resolve(self, module: str, dotted: str, _depth: int = 0) -> str | None:
        """Resolve a dotted name used in ``module`` to a project qualname.

        Follows the import map and up to 8 re-export hops (package
        ``__init__`` files re-importing their submodules' names).
        Returns ``None`` for names outside the project.
        """
        if _depth > 8:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        target = info.imports.get(head)
        if target is None:
            if head in info.defines:
                qual = f"{module}.{head}" + (f".{rest}" if rest else "")
                return self._canonical_symbol(qual, module, _depth)
            return None
        qual = target + (f".{rest}" if rest else "")
        return self._canonical_symbol(qual, module, _depth)

    def _canonical_symbol(self, qual: str, origin: str, depth: int) -> str | None:
        """Normalize ``qual`` to a defined symbol, following re-exports."""
        if qual in self.functions or qual in self.classes:
            return qual
        # ``pkg.name`` where pkg is a module re-exporting ``name``.
        owner, _, leaf = qual.rpartition(".")
        if owner and owner != origin and owner in self.modules and leaf:
            resolved = self.resolve(owner, leaf, depth + 1)
            if resolved is not None:
                return resolved
        if qual in self.modules:
            return qual
        return None


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def _absolute(info: ModuleInfo, level: int, module: str | None) -> str:
    """Absolute name of ``from <level dots><module>`` as written in ``info``."""
    if not level:
        return module or ""
    # Relative import: resolve against this module's package
    # (__package__ semantics: a plain module's package is its
    # parent, an __init__'s package is the module itself).
    pkg_parts = info.name.split(".")
    drop = level - 1 if info.is_package else level
    base = ".".join(pkg_parts[: len(pkg_parts) - drop])
    return f"{base}.{module}" if module else base


def _collect_imports(info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                info.imports[local] = alias.name if alias.asname else alias.name.split(".", 1)[0]
                if alias.asname:
                    info.imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(info, node.level, node.module)
            if not module:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                info.imports[alias.asname or alias.name] = f"{module}.{alias.name}"
        elif isinstance(node, ast.Call) and _dotted(node.func) == "lazy_exports" \
                and node.args and isinstance(node.args[-1], ast.Dict):
            # A lazy facade (repro._lazy): each ``".sub": ("name", ...)``
            # entry of the export table reads as ``from .sub import name``.
            table = node.args[-1]
            for key, names in zip(table.keys, table.values):
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)
                        and isinstance(names, (ast.Tuple, ast.List))):
                    continue
                rest = key.value.lstrip(".")
                module = _absolute(info, len(key.value) - len(rest), rest or None)
                for name in names.elts:
                    if isinstance(name, ast.Constant) and isinstance(name.value, str):
                        info.imports[name.value] = f"{module}.{name.value}"


def _collect_definitions(graph: CallGraph, info: ModuleInfo) -> None:
    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _add_function(graph, info, node, cls=None)
            info.defines[node.name] = "function"
        elif isinstance(node, ast.ClassDef):
            cls_qual = f"{info.name}.{node.name}"
            graph.classes[cls_qual] = {}
            info.defines[node.name] = "class"
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = _add_function(graph, info, item, cls=node.name)
                    graph.classes[cls_qual][item.name] = fn.qualname
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    info.defines[target.id] = "value"
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            info.defines[node.target.id] = "value"


def _add_function(graph: CallGraph, info: ModuleInfo,
                  node: ast.FunctionDef | ast.AsyncFunctionDef,
                  cls: str | None) -> FunctionInfo:
    qual = f"{info.name}.{cls}.{node.name}" if cls else f"{info.name}.{node.name}"
    args = node.args
    params = tuple(
        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    )
    fn = FunctionInfo(
        qualname=qual, module=info.name, name=node.name, cls=cls,
        node=node, path=info.path, lineno=node.lineno, params=params,
    )
    graph.functions[qual] = fn
    return fn


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chain as a dotted string, else ``None``."""
    parts: list[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    return ".".join(reversed(parts))


def _local_types(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 graph: CallGraph, module: str) -> dict[str, str]:
    """Locals whose type is pinned by a visible constructor call.

    ``reporter = ProgressReporter(...)`` pins ``reporter``; a ternary
    pins through whichever branch constructs (``RunLog(...) if p else
    None``).  A later re-assignment to anything unrecognized unpins.
    """
    out: dict[str, str] = {}

    def class_of(expr: ast.expr) -> str | None:
        candidates = [expr]
        if isinstance(expr, ast.IfExp):
            candidates = [expr.body, expr.orelse]
        for cand in candidates:
            if isinstance(cand, ast.Call):
                dotted = _dotted(cand.func)
                if dotted is not None:
                    resolved = graph.resolve(module, dotted)
                    if resolved in graph.classes:
                        return resolved
        return None

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            cls = class_of(node.value)
            if cls is not None:
                out[name] = cls
            elif name in out:
                del out[name]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                and node.value is not None:
            cls = class_of(node.value)
            if cls is not None:
                out[node.target.id] = cls
    return out


def _unique_methods(graph: CallGraph) -> dict[str, str]:
    """Method names defined by exactly one class project-wide."""
    counts: dict[str, list[str]] = {}
    for methods in graph.classes.values():
        for name, qual in methods.items():
            counts.setdefault(name, []).append(qual)
    return {name: quals[0] for name, quals in counts.items() if len(quals) == 1}


def _resolve_callable(graph: CallGraph, info: ModuleInfo, expr: ast.expr,
                      cls_qual: str | None, local_types: dict[str, str],
                      unique: dict[str, str]) -> tuple[str | None, str]:
    """Resolve a call/reference target expression to (qualname, kind tag)."""
    # self.method / cls.method inside a class body
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        recv = expr.value.id
        if recv in ("self", "cls") and cls_qual is not None:
            target = graph.classes.get(cls_qual, {}).get(expr.attr)
            if target is not None:
                return target, "direct"
            return None, "direct"
        pinned = local_types.get(recv)
        if pinned is not None:
            target = graph.classes.get(pinned, {}).get(expr.attr)
            if target is not None:
                return target, "direct"
    dotted = _dotted(expr)
    if dotted is not None:
        resolved = graph.resolve(info.name, dotted)
        if resolved is not None:
            if resolved in graph.classes:
                # constructing a class runs its __init__
                init = graph.classes[resolved].get("__init__")
                return (init or resolved), "direct"
            if resolved in graph.functions:
                return resolved, "direct"
            return None, "direct"
    # unique-name fallback for attribute calls on unknown receivers
    if isinstance(expr, ast.Attribute) and expr.attr in unique:
        return unique[expr.attr], "heuristic"
    return None, "direct"


def _walk_function_calls(graph: CallGraph, info: ModuleInfo, fn: FunctionInfo,
                         unique: dict[str, str]) -> None:
    local_types = _local_types(fn.node, graph, info.name)
    cls_qual = f"{info.name}.{fn.cls}" if fn.cls else None
    caller = fn.qualname

    def add(expr: ast.expr, node: ast.AST, kind: str) -> None:
        target, tag = _resolve_callable(graph, info, expr, cls_qual,
                                        local_types, unique)
        if target is not None and target in graph.functions:
            suffix = "" if tag == "direct" else f"-{tag}"
            graph.add_edge(CallEdge(
                caller=caller, callee=target, path=info.path,
                lineno=getattr(node, "lineno", fn.lineno),
                col=getattr(node, "col_offset", 0) + 1,
                kind=kind + suffix, node=node,
            ))

    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            add(node.func, node, "call")
            dotted = _dotted(node.func)
            if dotted is not None:
                target, _tag = _resolve_callable(
                    graph, info, node.func, cls_qual, local_types, unique)
                if target is None:
                    graph.external_calls.setdefault(caller, []).append(
                        (_canonical_external(info, dotted), node))
            # bare function/method references in argument position are
            # deferred calls (timer callbacks, hook registration)
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if isinstance(arg, (ast.Attribute, ast.Name)):
                    add(arg, arg, "ref")


def _canonical_external(info: ModuleInfo, dotted: str) -> str:
    """Canonicalize an unresolved name through the module's import map."""
    head, _, rest = dotted.partition(".")
    target = info.imports.get(head)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def _enclosing_functions(graph: CallGraph, info: ModuleInfo) -> list[FunctionInfo]:
    return [fn for fn in graph.functions.values() if fn.module == info.name]


def build_callgraph(parsed: list[tuple[str | Path, ast.Module]]) -> CallGraph:
    """Build the project call graph from ``(path, parsed tree)`` pairs.

    Trees come from the engine's AST cache — the graph never re-parses a
    file the per-file rules already parsed.
    """
    graph = CallGraph()
    infos: list[ModuleInfo] = []
    for path, tree in parsed:
        info = ModuleInfo(name=module_name_for(path), path=str(path), tree=tree,
                          is_package=Path(path).name == "__init__.py")
        # first module wins on name collisions (shadowed scratch copies)
        if info.name not in graph.modules:
            graph.modules[info.name] = info
            infos.append(info)
    for info in infos:
        _collect_imports(info)
        _collect_definitions(graph, info)
    unique = _unique_methods(graph)
    for info in infos:
        for fn in _enclosing_functions(graph, info):
            _walk_function_calls(graph, info, fn, unique)
    return graph
