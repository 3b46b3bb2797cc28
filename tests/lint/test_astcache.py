"""The parse-once AST cache shared by shallow rules and deep passes."""

from __future__ import annotations

from pathlib import Path

from repro.lint import AstCache, lint_paths
from repro.lint.engine import package_relative


def write_project(tmp_path: Path) -> list[Path]:
    files = {
        "a.py": "def a():\n    return 1\n",
        "b.py": "from a import a\ndef b():\n    return a()\n",
        "c.py": "x = 1\n",
    }
    out = []
    for name, src in files.items():
        path = tmp_path / name
        path.write_text(src, encoding="utf-8")
        out.append(path)
    return out


def test_load_is_memoized(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("x = 1\n", encoding="utf-8")
    cache = AstCache()
    first = cache.load(path)
    second = cache.load(path)
    assert first is second
    assert cache.parse_count == 1
    assert len(cache) == 1


def test_source_override_skips_disk(tmp_path):
    cache = AstCache()
    pf = cache.load("virtual.py", source="y = 2\n")
    assert pf.tree is not None
    assert pf.source == "y = 2\n"


def test_parse_error_cached_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n", encoding="utf-8")
    cache = AstCache()
    pf = cache.load(path)
    assert pf.tree is None
    assert pf.error is not None and pf.error.code == "FCY000"
    assert cache.load(path) is pf


def test_rel_path_auto_derivation(tmp_path):
    nested = tmp_path / "src" / "repro" / "core"
    nested.mkdir(parents=True)
    path = nested / "thing.py"
    path.write_text("x = 1\n", encoding="utf-8")
    cache = AstCache()
    assert cache.load(path).rel_path == "core/thing.py"
    assert package_relative(path) == "core/thing.py"


def test_lint_paths_parses_each_file_once(tmp_path):
    paths = write_project(tmp_path)
    cache = AstCache()
    result = lint_paths([tmp_path], cache=cache)
    assert result.files_checked == len(paths)
    assert cache.parse_count == len(paths)


def test_deep_passes_reuse_shallow_parse(tmp_path):
    paths = write_project(tmp_path)
    cache = AstCache()
    result = lint_paths([tmp_path], deep=True, cache=cache)
    assert result.files_checked == len(paths)
    # call graph + FSM extraction + taint all consumed the same trees
    assert cache.parse_count == len(paths)


def test_shared_cache_across_runs_never_reparses(tmp_path):
    write_project(tmp_path)
    cache = AstCache()
    lint_paths([tmp_path], cache=cache)
    count = cache.parse_count
    lint_paths([tmp_path], deep=True, cache=cache)
    assert cache.parse_count == count
