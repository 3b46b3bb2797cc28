"""File discovery, AST caching and rule orchestration for fancylint.

``lint_paths`` is the one-call API used by the CLI and the pre-commit
hook: discover ``*.py`` files, parse each **once** into a shared
:class:`AstCache`, run every applicable per-file rule, optionally run
the whole-program deep passes (call graph → FCY011 taint, FSM model
check → FCY012) on the *same* parsed trees, drop per-line suppressions,
then report unused ones (FCY014).

The AST cache is the load-bearing piece for ``--deep``: the shallow
rules, the call-graph builder and the FSM extractor all consume the one
parse per file (``AstCache.parse_count`` counts actual ``ast.parse``
calls — ``benchmarks/test_lint_bench.py`` pins it to the file count).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .diagnostics import Diagnostic
from .rules import ALL_RULES, FileContext, Rule
from .suppress import ALL_CODES, is_suppressed, parse_suppressions

__all__ = [
    "AstCache",
    "DEEP_CODES",
    "LintResult",
    "ParsedFile",
    "UNUSED_SUPPRESSION_CODE",
    "lint_file",
    "lint_paths",
    "lint_source",
    "package_relative",
]

#: Directories never linted (caches, VCS internals, virtualenvs).
_SKIP_DIRS = frozenset({
    ".git", ".fancy-cache", "__pycache__", ".venv", "venv",
    ".mypy_cache", ".ruff_cache", ".pytest_cache", "build", "dist",
})

#: codes produced by the whole-program passes (``--deep`` only).
DEEP_CODES = frozenset({"FCY011", "FCY012"})

#: engine-level check: a ``# fancylint: disable=`` that never fired.
UNUSED_SUPPRESSION_CODE = "FCY014"


def package_relative(path: str | Path) -> str | None:
    """Path relative to the ``repro`` package root, if the file is in it.

    ``src/repro/core/zooming.py`` -> ``core/zooming.py``; files outside
    the package (tests, fixtures) return ``None`` and get every rule.
    """
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:])
    return None


@dataclass
class ParsedFile:
    """One file's parse products, shared by every pass in a run."""

    path: str
    source: str
    rel_path: str | None
    tree: ast.Module | None
    error: Diagnostic | None
    suppressions: dict[int, frozenset[str]]


class AstCache:
    """Parse-once cache keyed by path string.

    A run's shallow rules, call-graph build and FSM extraction all pull
    from here, so ``parse_count`` equals the number of distinct files
    regardless of how many passes consume a tree.
    """

    def __init__(self) -> None:
        self._entries: dict[str, ParsedFile] = {}
        self.parse_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def load(self, path: str | Path, source: str | None = None, *,
             rel_path: str | None = None,
             auto_rel_path: bool = True) -> ParsedFile:
        """Parse ``path`` (reading it if ``source`` is None), memoized.

        ``rel_path`` is derived with :func:`package_relative` unless
        ``auto_rel_path`` is False (fixtures want ``None`` = every rule).
        """
        key = str(path)
        cached = self._entries.get(key)
        if cached is not None:
            return cached
        if source is None:
            source = Path(path).read_text(encoding="utf-8")
        rel = package_relative(path) if auto_rel_path else rel_path
        tree: ast.Module | None
        error: Diagnostic | None = None
        try:
            self.parse_count += 1
            tree = ast.parse(source, filename=key)
        except SyntaxError as exc:
            tree = None
            error = Diagnostic(
                path=key,
                line=exc.lineno or 1,
                col=(exc.offset or 1),
                code="FCY000",
                message=f"file does not parse: {exc.msg}",
                hint="fancylint needs a syntactically valid file",
            )
        entry = ParsedFile(
            path=key, source=source, rel_path=rel, tree=tree, error=error,
            suppressions=parse_suppressions(source),
        )
        self._entries[key] = entry
        return entry


@dataclass
class LintResult:
    """Outcome of one lint run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    parse_errors: list[Diagnostic] = field(default_factory=list)
    #: extracted FSM models (``--deep`` only), for artifact export.
    fsm_models: list[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics and not self.parse_errors

    def summary(self) -> str:
        n = len(self.diagnostics) + len(self.parse_errors)
        parts = [f"{n} finding{'s' if n != 1 else ''} in {self.files_checked} files"]
        if self.suppressed:
            parts.append(f"{self.suppressed} suppressed")
        return ", ".join(parts)


def _run_rules(tree: ast.AST, ctx: FileContext, rules: tuple[Rule, ...],
               rel_path: str | None) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for rule in rules:
        if not rule.applies_to(rel_path):
            continue
        findings.extend(rule.check(tree, ctx))
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: tuple[Rule, ...] = ALL_RULES,
    rel_path: str | None = None,
    count_suppressed: list[int] | None = None,
) -> list[Diagnostic]:
    """Lint one source string; returns unsuppressed findings, sorted.

    ``rel_path`` overrides the package-relative location used for rule
    scoping (``None`` means "apply every rule", which is what fixtures
    want); pass ``package_relative(path)`` for real files.

    A ``SyntaxError`` is reported as a pseudo-diagnostic with code
    ``FCY000`` rather than raised, so one broken file cannot hide other
    files' findings in a big run.  Whole-program checks (FCY011/FCY012)
    and unused-suppression reporting (FCY014) need the full file set and
    only run under :func:`lint_paths`.
    """
    cache = AstCache()
    pf = cache.load(path, source=source, rel_path=rel_path,
                    auto_rel_path=False)
    if pf.error is not None:
        return [pf.error]
    assert pf.tree is not None
    ctx = FileContext.for_tree(pf.tree, path=path, rel_path=rel_path)
    findings: list[Diagnostic] = []
    n_suppressed = 0
    for diag in _run_rules(pf.tree, ctx, rules, rel_path):
        if is_suppressed(diag.code, diag.line, pf.suppressions):
            n_suppressed += 1
        else:
            findings.append(diag)
    if count_suppressed is not None:
        count_suppressed.append(n_suppressed)
    return sorted(findings)


def lint_file(path: str | Path, rules: tuple[Rule, ...] = ALL_RULES) -> list[Diagnostic]:
    """Lint one file from disk (rule scoping from its package location)."""
    file = Path(path)
    source = file.read_text(encoding="utf-8")
    return lint_source(source, path=str(file), rules=rules,
                       rel_path=package_relative(file))


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into a deterministic sorted file list."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _unused_suppression_findings(
    parsed: list[ParsedFile],
    used: dict[tuple[str, int], set[str]],
    ran_codes: frozenset[str],
    full_registry: bool,
    suppressed_counter: list[int],
) -> list[Diagnostic]:
    """FCY014: suppression directives that did not fire this run.

    A code-specific suppression is unused when its rule ran and nothing
    was suppressed on that line; a ``disable=all`` is only judged when
    the full registry ran (a ``--select`` run can't tell).  FCY014 is
    itself suppressible, but only by naming it explicitly — a stale
    ``disable=all`` must not hide its own staleness report.
    """
    findings: list[Diagnostic] = []
    for pf in parsed:
        for line, codes in sorted(pf.suppressions.items()):
            fired = used.get((pf.path, line), set())
            if codes is ALL_CODES or "all" in codes:
                stale = full_registry and not fired
                unused_codes = ["all"] if stale else []
            else:
                unused_codes = sorted(
                    code for code in codes
                    if code in ran_codes and code not in fired
                )
            if not unused_codes:
                continue
            diag = Diagnostic(
                path=pf.path, line=line, col=1,
                code=UNUSED_SUPPRESSION_CODE,
                message=(
                    "unused suppression: `# fancylint: disable="
                    f"{','.join(unused_codes)}` never fired on this line"
                ),
                hint="remove the stale directive (or fix the code it was "
                     "meant to sanction)",
            )
            explicitly_silenced = (codes is not ALL_CODES
                                   and UNUSED_SUPPRESSION_CODE in codes)
            if explicitly_silenced:
                suppressed_counter[0] += 1
            else:
                findings.append(diag)
    return findings


def lint_paths(
    paths: list[str | Path],
    rules: tuple[Rule, ...] = ALL_RULES,
    *,
    deep: bool = False,
    codes: frozenset[str] | None = None,
    cache: AstCache | None = None,
    check_suppressions: bool = True,
) -> LintResult:
    """Lint files/directories and apply suppressions.

    ``deep=True`` additionally builds the project call graph over the
    same parsed trees and runs the FCY011 taint and FCY012 FSM passes.
    ``codes`` (from ``--select``) restricts which codes may be emitted;
    ``None`` means all.  ``cache`` lets callers share/persist the AST
    cache across invocations (and inspect ``parse_count``).
    """
    result = LintResult()
    cache = cache if cache is not None else AstCache()
    parsed: list[ParsedFile] = []
    all_findings: list[Diagnostic] = []
    #: (path, line) -> codes of findings suppressed there this run.
    used: dict[tuple[str, int], set[str]] = {}

    def apply_suppressions(diags: list[Diagnostic]) -> None:
        for diag in diags:
            pf_supp = supp_by_path.get(diag.path, {})
            if is_suppressed(diag.code, diag.line, pf_supp):
                result.suppressed += 1
                used.setdefault((diag.path, diag.line), set()).add(diag.code)
            else:
                all_findings.append(diag)

    for file in iter_python_files(paths):
        pf = cache.load(file)
        parsed.append(pf)
        result.files_checked += 1

    supp_by_path = {pf.path: pf.suppressions for pf in parsed}

    # -- per-file rules ---------------------------------------------------
    for pf in parsed:
        if pf.error is not None:
            result.parse_errors.append(pf.error)
            continue
        assert pf.tree is not None
        ctx = FileContext.for_tree(pf.tree, path=pf.path, rel_path=pf.rel_path)
        apply_suppressions(_run_rules(pf.tree, ctx, rules, pf.rel_path))

    # -- whole-program passes --------------------------------------------
    ran_codes = frozenset(rule.code for rule in rules)
    if deep:
        from .callgraph import build_callgraph
        from .fsm import run_fsm_pass
        from .taint import run_taint

        trees = [(pf.path, pf.tree) for pf in parsed if pf.tree is not None]
        rel_paths = {pf.path: pf.rel_path for pf in parsed}

        deep_codes = DEEP_CODES if codes is None else DEEP_CODES & codes
        if "FCY011" in deep_codes:
            graph = build_callgraph(trees)
            taint = run_taint(graph, rel_paths, supp_by_path)
            apply_suppressions(taint.diagnostics)
            # barriers are suppressions consumed at the taint *source*
            for barrier_path, barrier_line in taint.used_barriers:
                result.suppressed += 1
                used.setdefault((barrier_path, barrier_line),
                                set()).add("FCY011")
        if "FCY012" in deep_codes:
            models, fsm_diags = run_fsm_pass(trees)
            result.fsm_models = models
            apply_suppressions(fsm_diags)
        ran_codes |= deep_codes

    # -- unused suppressions ---------------------------------------------
    emit_unused = check_suppressions and (
        codes is None or UNUSED_SUPPRESSION_CODE in codes)
    if emit_unused:
        full_registry = {rule.code for rule in ALL_RULES} <= ran_codes
        counter = [0]
        all_findings.extend(_unused_suppression_findings(
            parsed, used, ran_codes, full_registry, counter))
        result.suppressed += counter[0]

    if codes is not None:
        all_findings = [d for d in all_findings if d.code in codes]

    result.diagnostics = sorted(all_findings)
    return result
