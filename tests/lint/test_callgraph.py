"""Symbol table, import resolution and edge construction of the call graph."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint.callgraph import CallGraph, build_callgraph, module_name_for


def build(tmp_path: Path, files: dict[str, str]) -> CallGraph:
    """Materialize ``files`` under ``tmp_path`` and build the graph."""
    paths = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(path)
    parsed = [(str(p), ast.parse(p.read_text(encoding="utf-8")))
              for p in sorted(paths)]
    return build_callgraph(parsed)


def edge_pairs(graph: CallGraph) -> set[tuple[str, str]]:
    return {(e.caller, e.callee) for e in graph.edges}


class TestModuleNaming:
    def test_package_chain(self, tmp_path):
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
        mod = tmp_path / "pkg" / "sub" / "mod.py"
        mod.write_text("")
        assert module_name_for(mod) == "pkg.sub.mod"

    def test_init_resolves_to_package(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        init = tmp_path / "pkg" / "__init__.py"
        init.write_text("")
        assert module_name_for(init) == "pkg"

    def test_loose_file_is_bare_stem(self, tmp_path):
        loose = tmp_path / "scratch.py"
        loose.write_text("")
        assert module_name_for(loose) == "scratch"


class TestResolution:
    def test_absolute_from_import(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "def helper():\n    return 1\n",
            "pkg/b.py": "from pkg.a import helper\ndef f():\n    return helper()\n",
        })
        assert ("pkg.b.f", "pkg.a.helper") in edge_pairs(graph)

    def test_relative_import(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "def helper():\n    return 1\n",
            "pkg/b.py": "from .a import helper\ndef f():\n    return helper()\n",
        })
        assert ("pkg.b.f", "pkg.a.helper") in edge_pairs(graph)

    def test_relative_import_inside_package_init(self, tmp_path):
        # __package__ semantics: `.a` in pkg/__init__.py is pkg.a, not a.
        graph = build(tmp_path, {
            "pkg/__init__.py": "from .a import helper\ndef boot():\n    return helper()\n",
            "pkg/a.py": "def helper():\n    return 1\n",
        })
        assert ("pkg.boot", "pkg.a.helper") in edge_pairs(graph)

    def test_reexport_chain(self, tmp_path):
        # pkg/__init__ re-exports; a caller importing from the package
        # still resolves to the definition site.
        graph = build(tmp_path, {
            "pkg/__init__.py": "from .a import helper\n",
            "pkg/a.py": "def helper():\n    return 1\n",
            "other.py": "from pkg import helper\ndef f():\n    return helper()\n",
        })
        assert ("other.f", "pkg.a.helper") in edge_pairs(graph)

    def test_lazy_facade_export_table(self, tmp_path):
        # A PEP 562 facade has no `from .a import helper` line to chase:
        # the export-table literal stands for it, "." for submodules and
        # a second leading dot for the parent package.
        graph = build(tmp_path, {
            "pkg/__init__.py": """
                from ._lazy import lazy_exports
                __getattr__, __dir__, __all__ = lazy_exports(__name__, {
                    ".": ("b",),
                    ".sub.a": ("helper", "Thing"),
                })
            """,
            "pkg/_lazy.py": "def lazy_exports(package, table):\n    pass\n",
            "pkg/b.py": "def run():\n    return 1\n",
            "pkg/sub/__init__.py": """
                from .._lazy import lazy_exports
                __getattr__, __dir__, __all__ = lazy_exports(__name__, {
                    "..b": ("run",),
                })
            """,
            "pkg/sub/a.py": """
                class Thing:
                    def __init__(self):
                        pass
                def helper():
                    return 1
            """,
            "other.py": """
                from pkg import Thing, b, helper
                from pkg.sub import run
                def f():
                    return helper(), Thing(), b.run(), run()
            """,
        })
        assert {callee for caller, callee in edge_pairs(graph) if caller == "other.f"} == {
            "pkg.sub.a.helper", "pkg.sub.a.Thing.__init__", "pkg.b.run"}
        assert len(graph.callees_of("other.f")) == 4

    def test_module_alias_import(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "def helper():\n    return 1\n",
            "use.py": "import pkg.a as pa\ndef f():\n    return pa.helper()\n",
        })
        assert ("use.f", "pkg.a.helper") in edge_pairs(graph)

    def test_unknown_names_resolve_to_none(self, tmp_path):
        graph = build(tmp_path, {"m.py": "def f():\n    return 1\n"})
        assert graph.resolve("m", "nonexistent") is None
        assert graph.resolve("nope", "f") is None


class TestEdges:
    def test_self_method_call(self, tmp_path):
        graph = build(tmp_path, {
            "m.py": """
                class C:
                    def a(self):
                        self.b()
                    def b(self):
                        pass
            """,
        })
        assert ("m.C.a", "m.C.b") in edge_pairs(graph)

    def test_constructor_pinned_local(self, tmp_path):
        graph = build(tmp_path, {
            "m.py": """
                class Reporter:
                    def tick(self):
                        pass

                def run():
                    r = Reporter()
                    r.tick()
            """,
        })
        pairs = edge_pairs(graph)
        assert ("m.run", "m.Reporter.tick") in pairs
        # constructing the class also runs __init__ when one exists
        assert ("m.run", "m.Reporter") not in pairs  # no __init__ defined

    def test_unique_method_heuristic(self, tmp_path):
        graph = build(tmp_path, {
            "m.py": """
                class Only:
                    def very_unique_method(self):
                        pass

                def f(obj):
                    obj.very_unique_method()
            """,
        })
        edges = [e for e in graph.edges
                 if (e.caller, e.callee) == ("m.f", "m.Only.very_unique_method")]
        assert edges and edges[0].kind == "call-heuristic"

    def test_ambiguous_method_name_produces_no_edge(self, tmp_path):
        graph = build(tmp_path, {
            "m.py": """
                class A:
                    def shared(self):
                        pass
                class B:
                    def shared(self):
                        pass

                def f(obj):
                    obj.shared()
            """,
        })
        assert not [e for e in graph.edges if e.caller == "m.f"]

    def test_callback_reference_edge(self, tmp_path):
        graph = build(tmp_path, {
            "m.py": """
                class Timer:
                    def _fire(self):
                        pass
                    def arm(self, sim):
                        sim.schedule(0.1, self._fire)
            """,
        })
        edges = [e for e in graph.edges
                 if (e.caller, e.callee) == ("m.Timer.arm", "m.Timer._fire")]
        assert edges and edges[0].kind == "ref"

    def test_external_call_recorded_canonically(self, tmp_path):
        graph = build(tmp_path, {
            "m.py": "import time\ndef f():\n    return time.time()\n",
        })
        canon = [c for c, _node in graph.external_calls.get("m.f", [])]
        assert "time.time" in canon

    def test_external_call_canonical_through_alias(self, tmp_path):
        graph = build(tmp_path, {
            "m.py": "import numpy as np\ndef f():\n    return np.random.rand()\n",
        })
        canon = [c for c, _node in graph.external_calls.get("m.f", [])]
        assert "numpy.random.rand" in canon


class TestReachability:
    @pytest.fixture()
    def chain(self, tmp_path):
        return build(tmp_path, {
            "m.py": """
                def a():
                    b()
                def b():
                    c()
                def c():
                    pass
                def lone():
                    pass
            """,
        })

    def test_reachable_from(self, chain):
        assert chain.reachable_from({"m.a"}) == {"m.a", "m.b", "m.c"}

    def test_reaching(self, chain):
        assert chain.reaching({"m.c"}) == {"m.a", "m.b", "m.c"}

    def test_lone_function_isolated(self, chain):
        assert chain.reachable_from({"m.lone"}) == {"m.lone"}


def test_module_name_collision_first_wins(tmp_path):
    # Two files mapping to the same module name (scratch copies): the
    # first in input order is kept, the duplicate is ignored.
    a = tmp_path / "one" / "m.py"
    b = tmp_path / "two" / "m.py"
    a.parent.mkdir()
    b.parent.mkdir()
    a.write_text("def f():\n    pass\n")
    b.write_text("def g():\n    pass\n")
    parsed = [(str(p), ast.parse(p.read_text())) for p in (a, b)]
    graph = build_callgraph(parsed)
    assert "m.f" in graph.functions
    assert "m.g" not in graph.functions


def _names_a_value(graph: CallGraph, canon: str) -> bool:
    """``canon`` is an attribute of a module-level value (a dict's ``get``)."""
    parts = canon.split(".")
    for i in range(len(parts) - 1, 0, -1):
        info = graph.modules.get(".".join(parts[:i]))
        if info is not None:
            return info.defines.get(parts[i]) == "value"
    return False


def test_calls_into_repro_all_resolve():
    # The lazy facades (repro._lazy) took the static `from .x import y`
    # lines the resolver used to chase; a resolver that loses them still
    # prints "0 findings" while FCY011 sees less.  Every call naming a
    # project callable must resolve to its definition, however much code
    # there is.  The benchmark harness is here because it is what calls
    # the program through the facades.
    root = Path(__file__).resolve().parents[2]
    parsed = [(str(p), ast.parse(p.read_text(encoding="utf-8")))
              for d in ("src", "benchmarks/perf")
              for p in sorted((root / d).rglob("*.py"))]
    graph = build_callgraph(parsed)
    unresolved = [f"{caller} -> {canon}"
                  for caller, calls in graph.external_calls.items()
                  for canon, _node in calls
                  if canon.startswith("repro.")
                  and not _names_a_value(graph, canon)]
    assert unresolved == []
