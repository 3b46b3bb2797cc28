"""``fancy-repro report --validate FILE [FILE ...]`` — trace schema gate.

Schema-checks trace JSONL exports (the CI ``fabric-smoke`` gate) and
exits non-zero if any document is invalid.  The dashboard itself is
written by ``fancy-repro fabric --trace --out DIR`` and
``fancy-repro serve --out DIR``; this CLI never runs an experiment and
imports none of the experiment stack.
"""

from __future__ import annotations

import argparse
import pathlib
from collections.abc import Sequence

from .schema import validate_jsonl
from .trace import spans_from_jsonl

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fancy-repro report",
        description="Validate trace JSONL exports against the span schema.",
    )
    parser.add_argument(
        "--validate", nargs="+", metavar="FILE", required=True,
        help="trace JSONL file(s) to validate against the span schema")
    return parser


def _validate_files(paths: list[str]) -> int:
    status = 0
    for path in paths:
        text = pathlib.Path(path).read_text()
        problems = validate_jsonl(text)
        n_lines = sum(1 for line in text.splitlines() if line.strip())
        if problems:
            status = 1
            print(f"{path}: INVALID ({len(problems)} problem(s) "
                  f"over {n_lines} span(s))")
            for problem in problems[:20]:
                print(f"  {problem}")
            if len(problems) > 20:
                print(f"  ... and {len(problems) - 20} more")
        else:
            n_spans = len(spans_from_jsonl(text))
            note = "" if n_spans == n_lines else ", truncated"
            print(f"{path}: ok ({n_spans} span(s){note})")
    return status


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(list(argv) if argv is not None else None)
    return _validate_files(args.validate)
