"""What the frozen benchmark harness uses of ``repro``, found with ``ast``.

``benchmarks/perf/`` is never edited, so every ``repro`` name it reaches
is a fixed API surface.  :func:`walk` reads its ``*.py`` files and
records three things:

* ``imports`` — every ``repro`` import, as ``"module:name"``;
* ``calls`` — every call of an imported ``repro`` callable (a module
  attribute chain is part of its name), with the keywords it is given,
  including keywords a harness helper forwards through ``**kwargs``;
* ``reads`` — per callable, the attribute chains and constant keys read
  on what it builds (a variable assigned from the call, the value a
  harness function returns, or the ``Workload`` build → run → summarize
  hand-offs), and the attributes read on an imported class itself.

:func:`check` resolves all of it against ``src/``.  The committed
result is ``tests/frozen_surface.json``; regenerate it with

    PYTHONPATH=src python tests/frozen_surface.py --write
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import sys
import typing
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
FROZEN = ROOT / "benchmarks" / "perf"
SRC = ROOT / "src"
MANIFEST = Path(__file__).resolve().parent / "frozen_surface.json"


def _is_module(dotted: str) -> bool:
    path = SRC.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _chain(node: ast.AST) -> Optional[list[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None unless names all the way."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    names.append(node.id)
    return names[::-1]


class _File:
    """One frozen file: its aliases, local functions and the flow
    between them."""

    def __init__(self, tree: ast.Module) -> None:
        self.tree = tree
        #: local name -> ("module", dotted) or ("name", "module:name").
        self.aliases: dict[str, tuple[str, str]] = {}
        self.imports: set[str] = set()
        for node in ast.walk(tree):  # the harness only uses ``from repro…``
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                for alias in node.names:
                    dotted = f"{node.module}.{alias.name}"
                    self.aliases[alias.asname or alias.name] = (
                        ("module", dotted) if _is_module(dotted)
                        else ("name", f"{node.module}:{alias.name}"))
                    self.imports.add(f"{node.module}:{alias.name}")
        self.functions = {node.name: node for node in ast.walk(tree)
                          if isinstance(node, ast.FunctionDef)}
        #: local function -> the repro callable its return value comes from.
        self.returns: dict[str, str] = {}
        #: local function -> parameter -> origin (the Workload hand-offs).
        self.seeded: dict[str, dict[str, str]] = {}
        #: local function -> repro callables it forwards ``**kwargs`` to.
        self.forwards: dict[str, list[str]] = {}

    def callee(self, func: ast.AST) -> Optional[str]:
        """The qualified ``repro`` name a call target spells, if any."""
        chain = _chain(func)
        if not chain or chain[0] not in self.aliases:
            return None
        kind, target = self.aliases[chain[0]]
        if kind == "name":
            return ".".join([target, *chain[1:]])
        if len(chain) == 1:
            return None
        return f"{target}:{'.'.join(chain[1:])}"

    def origin_of(self, expr: ast.AST, env: dict[str, str]) -> Optional[str]:
        """The repro callable that built the value of ``expr``, if known."""
        if isinstance(expr, ast.Call):
            callee = self.callee(expr.func)
            if callee is not None:
                return callee
            if isinstance(expr.func, ast.Name):
                return self.returns.get(expr.func.id)
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Lambda):
            return self.origin_of(expr.body, env)
        return None

    def produced(self, fn: ast.AST) -> Optional[str]:
        """What a harness function (or lambda) returns, when called."""
        if isinstance(fn, ast.Name):
            return self.returns.get(fn.id)
        return self.origin_of(fn, {})

    def env_of(self, fn: ast.FunctionDef) -> dict[str, str]:
        """Local name -> origin inside ``fn`` (its nested functions too)."""
        env = dict(self.seeded.get(fn.name, {}))
        for _ in range(2):  # an assignment may follow its first use
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    found = self.origin_of(node.value, env)
                    if found is not None:
                        env[node.targets[0].id] = found
        return env


def _params(fn: ast.AST) -> list[str]:
    args = fn.args  # type: ignore[attr-defined]
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _flow(file: _File) -> None:
    """Fill ``file.returns`` and ``file.seeded``: which local function
    returns a repro value, and which parameters receive one through the
    ``Workload`` build → run → summarize hand-offs; and ``file.forwards``,
    the repro callables a helper hands its ``**kwargs`` to."""
    for _ in range(3):  # returns through helpers, then the hand-offs
        for name, fn in file.functions.items():
            env = file.env_of(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.Return) and node.value is not None:
                    found = file.origin_of(node.value, env)
                    if found is not None:
                        file.returns[name] = found
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Workload" and len(node.args) == 5):
                continue
            build, run, summarize = node.args[2:]
            built, ran = file.produced(build), file.produced(run)
            for fn_node, origins in ((run, [built]),
                                     (summarize, [built, ran])):
                if isinstance(fn_node, ast.Name) and fn_node.id in file.functions:
                    params = _params(file.functions[fn_node.id])
                    for param, found in zip(params, origins):
                        if found is not None:
                            file.seeded.setdefault(fn_node.id, {})[param] = found
    for name, fn in file.functions.items():
        kwarg = fn.args.kwarg.arg if fn.args.kwarg else None
        if kwarg is None:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and any(
                    k.arg is None and isinstance(k.value, ast.Name)
                    and k.value.id == kwarg for k in node.keywords):
                callee = file.callee(node.func)
                if callee is not None:
                    file.forwards.setdefault(name, []).append(callee)


def _scan(files: dict[str, _File]) -> dict[str, Any]:
    calls: dict[str, set[str]] = {}
    reads: dict[str, dict[str, set[str]]] = {}
    #: keys the harness stores on a value itself (not the program's).
    stored: dict[str, set[str]] = {}

    def read(origin: str, kind: str, name: str) -> None:
        reads.setdefault(origin, {"attrs": set(), "keys": set()})[kind].add(name)

    for file in files.values():
        _flow(file)
        scopes: list[tuple[ast.AST, dict[str, str]]] = [(file.tree, {})]
        scopes += [(fn, file.env_of(fn)) for fn in file.functions.values()]
        for scope, env in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call):
                    callee = file.callee(node.func)
                    keywords = {k.arg for k in node.keywords if k.arg}
                    if callee is not None:
                        calls.setdefault(callee, set()).update(keywords)
                    elif (isinstance(node.func, ast.Name)
                          and node.func.id in file.forwards):
                        own = set(_params(file.functions[node.func.id]))
                        for target in file.forwards[node.func.id]:
                            calls.setdefault(target, set()).update(
                                keywords - own)
                elif isinstance(node, (ast.Attribute, ast.Subscript)):
                    _record(node, file, env, read)
                if (isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.slice, ast.Constant)):
                    found = file.origin_of(node.value, env)
                    if found is not None:
                        stored.setdefault(found, set()).add(node.slice.value)
    for origin, keys in stored.items():
        if origin in reads:
            reads[origin]["keys"] -= keys
    return {"calls": calls, "reads": reads}


def _record(node: ast.AST, file: _File, env: dict[str, str],
            read: Any) -> None:
    """Record one attribute chain or constant key read on a repro value.

    Only the outermost node of a chain records (``a.b.c`` once, as
    ``b.c`` on ``a``'s origin): :func:`walk` marks the inner ones.
    """
    if getattr(node, "_inner", False):
        return
    if isinstance(node, ast.Subscript):
        if not (isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            return
        found = file.origin_of(node.value, env)
        if found is not None:
            read(found, "keys", node.slice.value)
        return
    names: list[str] = []
    base: ast.AST = node
    while isinstance(base, ast.Attribute):
        names.append(base.attr)
        base = base.value
    names.reverse()
    if isinstance(base, ast.Name) and base.id in file.aliases:
        kind, target = file.aliases[base.id]
        if kind == "module":
            # ``fabric.run_sharded``: the callee's own name, not a read.
            if len(names) > 1:
                read(f"{target}:{names[0]}", "attrs", ".".join(names[1:]))
            return
        read(target, "attrs", ".".join(names))
        return
    found = file.origin_of(base, env)
    if found is not None:
        read(found, "attrs", ".".join(names))


def walk() -> dict[str, Any]:
    """The manifest of ``benchmarks/perf/*.py``, JSON-ready and sorted."""
    files: dict[str, _File] = {}
    for path in sorted(FROZEN.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: parent for parent in ast.walk(tree)
                   for child in ast.iter_child_nodes(parent)}
        # Drop inner links of attribute chains, so each chain records once.
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(parents.get(node), ast.Attribute)):
                node._inner = True  # type: ignore[attr-defined]
        files[path.name] = _File(tree)
    found = _scan(files)
    imports = sorted({name for file in files.values() for name in file.imports})
    return {
        "imports": imports,
        "calls": {k: sorted(v) for k, v in sorted(found["calls"].items())},
        "reads": {k: {kind: sorted(names) for kind, names in v.items()}
                  for k, v in sorted(found["reads"].items())},
    }


# -- resolution against src/ ---------------------------------------------------


def _resolve(qualified: str) -> Any:
    module, _, chain = qualified.partition(":")
    obj: Any = importlib.import_module(module)
    for name in filter(None, chain.split(".")):
        obj = getattr(obj, name)
    return obj


def _src_index() -> tuple[set[str], dict[str, set[str]]]:
    """Every attribute-like name ``src/repro`` defines, and the string
    constants of each module."""
    names: set[str] = set()
    strings: dict[str, set[str]] = {}
    for path in (SRC / "repro").rglob("*.py"):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        consts: set[str] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                consts.add(node.value)
        strings[module] = consts
    return names, strings


def _module_strings(obj: Any, strings: dict[str, set[str]]) -> set[str]:
    """String constants of ``obj``'s module and the repro modules it
    imports: where a key of what ``obj`` returns is spelled."""
    module = getattr(obj, "__module__", None) or obj.__name__
    out = set(strings.get(module, ()))
    tree = ast.parse(Path(inspect.getfile(sys.modules[module])).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = module if node.level == 0 else ".".join(
                module.split(".")[:-node.level])
            dotted = node.module if node.level == 0 else (
                f"{base}.{node.module}" if node.module else base)
            out |= strings.get(dotted or "", set())
            for alias in node.names:
                out |= strings.get(f"{dotted}.{alias.name}", set())
    return out


def _built_class(obj: Any) -> Optional[type]:
    if inspect.isclass(obj):
        return obj
    try:
        hint = typing.get_type_hints(obj).get("return")
    except Exception:
        return None
    return hint if inspect.isclass(hint) and hint.__module__.startswith(
        "repro") else None


def _has_member(cls: type, name: str) -> bool:
    if hasattr(cls, name):
        return True
    if dataclasses.is_dataclass(cls) and name in {
            f.name for f in dataclasses.fields(cls)}:
        return True
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro"):
            continue
        source = ast.parse(inspect.getsource(klass))
        for node in ast.walk(source):
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                return True
    return False


def _builtin_member(name: str) -> bool:
    """A method of the containers a built value may hold (``.values``)."""
    return any(hasattr(kind, name) for kind in (dict, list, str, set))


def check(manifest: dict[str, Any]) -> list[str]:
    """Every manifest name that does not resolve against ``src/``."""
    misses: list[str] = []
    names, strings = _src_index()

    def resolved(qualified: str) -> Any:
        try:
            return _resolve(qualified)
        except (ImportError, AttributeError) as exc:
            misses.append(f"{qualified}: {exc}")
            return None

    for qualified in manifest["imports"]:
        resolved(qualified)
    for qualified, keywords in manifest["calls"].items():
        obj = resolved(qualified)
        if obj is None or not keywords:
            continue
        params = inspect.signature(obj).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in params):
            continue
        accepted = {p.name for p in params}
        misses += [f"{qualified}: no keyword {kw!r}"
                   for kw in keywords if kw not in accepted]
    for qualified, read in manifest["reads"].items():
        obj = resolved(qualified)
        if obj is None:
            continue
        cls = _built_class(obj)
        for chain in read["attrs"]:
            first, *rest = chain.split(".")
            ok = _has_member(cls, first) if cls is not None else first in names
            if not ok or any(name not in names and not _builtin_member(name)
                             for name in rest):
                misses.append(f"{qualified}: no attribute chain {chain!r}")
        if read["keys"]:
            spelled = _module_strings(obj, strings)
            misses += [f"{qualified}: no key {key!r}"
                       for key in read["keys"] if key not in spelled]
    return misses


if __name__ == "__main__":
    manifest = walk()
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True)
                            + "\n")
    else:
        print(json.dumps(manifest, indent=1, sort_keys=True))
    for miss in check(manifest):
        print(f"MISS {miss}", file=sys.stderr)
