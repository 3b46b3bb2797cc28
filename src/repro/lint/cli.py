"""Command-line front end: ``python -m repro.lint`` / ``fancy-repro lint``.

Exit status is 0 when there are no findings, 1 otherwise — suitable as
a CI gate (see the ``lint`` job in ``.github/workflows/ci.yml``) and as
a pre-commit hook.

``--deep`` adds the whole-program passes (FCY011 determinism taint over
the project call graph, FCY012 FSM model checking) on top of the
per-file rules; ``--fsm-out DIR`` additionally exports the extracted
FSM models as ``fsm.json`` + Graphviz ``.dot`` artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .engine import DEEP_CODES, UNUSED_SUPPRESSION_CODE, lint_paths
from .rules import ALL_RULES, Rule, rule_catalog

__all__ = ["main"]

#: codes valid in ``--select`` beyond the per-file registry.
_ENGINE_CODES = DEEP_CODES | {UNUSED_SUPPRESSION_CODE}

_DEEP_CATALOG = (
    ("FCY011", "determinism-taint",
     "whole-program (--deep): simulation-scope call site whose callee "
     "transitively reaches a wall-clock/global-RNG primitive, or a seed "
     "reaching the sharding/fluid/runtime sinks without stable_seed "
     "provenance"),
    ("FCY012", "fsm-model-check",
     "whole-program (--deep): protocol FSM implementation drifted from "
     "its declared transition table (undeclared/unimplemented edges, "
     "unreachable states, exits from terminal states, timeout edges "
     "without a capped-backoff path)"),
    ("FCY014", "unused-suppression",
     "engine-level: a `# fancylint: disable=` directive that never fired "
     "this run (stale suppression, RUF100-style)"),
)


def _select_codes(spec: str | None) -> frozenset[str] | None:
    if spec is None:
        return None
    wanted = frozenset(code.strip().upper() for code in spec.split(",")
                       if code.strip())
    known = {rule.code for rule in ALL_RULES} | _ENGINE_CODES
    unknown = wanted - known
    if unknown:
        raise SystemExit(
            f"fancylint: unknown rule code(s): {', '.join(sorted(unknown))}")
    return wanted


def _select_rules(codes: frozenset[str] | None) -> tuple[Rule, ...]:
    if codes is None:
        return ALL_RULES
    return tuple(rule for rule in ALL_RULES if rule.code in codes)


def _catalog() -> str:
    lines = [rule_catalog().rstrip("\n")]
    for code, name, summary in _DEEP_CATALOG:
        lines.append(f"{code} [{name}] — {summary}")
        lines.append("    scope: whole program (src/repro)")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fancylint",
        description="Repo-specific determinism & simulator-invariant checks "
                    "for the FANcY reproduction (per-file rules FCY001-FCY013; "
                    "--deep adds whole-program FCY011/FCY012).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help="run the whole-program passes too: call-graph determinism "
             "taint (FCY011) and FSM model checking (FCY012)",
    )
    parser.add_argument(
        "--fsm-out", metavar="DIR", default=None,
        help="with --deep: write fsm.json + Graphviz fsm-<role>.dot "
             "artifacts of the extracted protocol FSMs to DIR",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary line (diagnostics only)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_catalog())
        return 0

    if args.fsm_out is not None and not args.deep:
        raise SystemExit("fancylint: --fsm-out requires --deep")

    codes = _select_codes(args.select)
    rules = _select_rules(codes)
    result = lint_paths(list(args.paths), rules=rules, deep=args.deep,
                        codes=codes)

    if args.fsm_out is not None:
        from .fsm import write_fsm_artifacts
        written = write_fsm_artifacts(result.fsm_models, args.fsm_out)
        if not args.quiet:
            print(f"fancylint: wrote {len(written)} FSM artifact(s) to "
                  f"{args.fsm_out}", file=sys.stderr)

    findings = result.parse_errors + result.diagnostics
    if args.format == "json":
        print(json.dumps([diag.to_json() for diag in findings], indent=2))
    else:
        for diag in findings:
            print(diag.render())
    if not args.quiet:
        print(f"fancylint: {result.summary()}", file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
