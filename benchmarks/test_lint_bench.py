"""Microbench: the parse-once AST cache vs naive per-pass re-parsing.

``fancy-repro lint --deep`` runs three consumers over every file — the
per-file rules, the call-graph builder and the FSM extractor.  Without
the shared :class:`repro.lint.engine.AstCache` each consumer would
re-read and re-parse the tree.  This bench pins both the *count*
contract (one ``ast.parse`` per file, no matter how many passes) and the
wall-clock speedup of the memoized path; its artifact records the counts
only, so it is the same on every run.
"""

from __future__ import annotations

import ast
import pathlib
import time

from repro.lint import AstCache, lint_paths

SRC = pathlib.Path(__file__).parents[1] / "src" / "repro"
#: passes that consume every tree in a --deep run
N_PASSES = 3


def _lint_sources() -> list[pathlib.Path]:
    files = sorted((SRC / "lint").glob("*.py"))
    assert len(files) >= 8
    return files


def test_deep_run_parses_each_file_once():
    cache = AstCache()
    result = lint_paths([SRC], deep=True, cache=cache)
    assert result.files_checked > 80
    assert cache.parse_count == result.files_checked


def test_second_run_on_shared_cache_parses_nothing():
    cache = AstCache()
    lint_paths([SRC / "lint"], cache=cache)
    count = cache.parse_count
    lint_paths([SRC / "lint"], deep=True, cache=cache)
    assert cache.parse_count == count


def test_cached_extra_passes_beat_naive_reparse(save_artifact):
    """The deep passes ride on the shallow parse: with the cache warm
    (pass 1, the per-file rules), each additional consumer costs a dict
    hit; the naive alternative re-parses every file per pass."""
    files = _lint_sources()
    sources = {str(p): p.read_text(encoding="utf-8") for p in files}

    cache = AstCache()
    for path, source in sources.items():
        cache.load(path, source=source)
    assert cache.parse_count == len(files)

    extra = N_PASSES - 1  # call graph + FSM extraction

    def naive() -> None:
        for _ in range(extra):
            for path, source in sources.items():
                ast.parse(source, filename=path)

    def cached() -> None:
        for _ in range(extra):
            for path in sources:
                cache.load(path)

    cached()
    assert cache.parse_count == len(files)  # still one parse per file

    def best_of(fn, rounds: int = 5) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    t_naive = best_of(naive)
    t_cached = best_of(cached)
    speedup = t_naive / t_cached
    # Only deterministic facts go into the artifact, so a rerun rewrites
    # the same bytes; the timings stay in the assertion below.
    save_artifact(
        "BENCH_lint_astcache",
        f"lint AST cache: {len(files)} files, {N_PASSES} passes — "
        f"{cache.parse_count} parses cached against "
        f"{len(files) * N_PASSES} re-parsing every pass",
    )
    # A memoized load is a dict hit vs a full ast.parse; anything under
    # 5x means the cache is not being hit at all.
    assert speedup > 5, (t_naive, t_cached)
