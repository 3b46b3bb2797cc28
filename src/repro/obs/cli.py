"""``fancy-repro report`` — health dashboard + trace validation CLI.

Two modes:

* ``fancy-repro report [--html FILE] [--traces-out FILE]`` runs the
  fabric closed-loop experiments with tracing on (same cache semantics
  as ``fancy-repro fabric --trace``) and writes the self-contained
  offline dashboard, printing each case's health table to stdout;
* ``fancy-repro report --validate FILE [FILE ...]`` schema-checks trace
  JSONL exports (the CI ``fabric-smoke`` gate) and exits non-zero on
  the first invalid document.
"""

from __future__ import annotations

import argparse
import pathlib
from collections.abc import Sequence

from .schema import validate_jsonl
from .trace import spans_from_jsonl

__all__ = ["main"]

# Kept in sync with repro.runtime.DEFAULT_CACHE_DIR; spelled out here so
# the --validate path never imports the runtime (and with it the whole
# simulator/experiment stack).
_DEFAULT_CACHE_DIR = ".fancy-cache"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fancy-repro report",
        description="Render the fabric health dashboard (HTML + trace "
                    "JSONL) or validate trace exports against the span "
                    "schema.",
    )
    parser.add_argument(
        "--validate", nargs="+", metavar="FILE", default=None,
        help="validate trace JSONL file(s) against the span schema and "
             "exit (no experiment run)")
    parser.add_argument(
        "--html", metavar="FILE", default="fabric-report.html",
        help="dashboard output path (default: fabric-report.html)")
    parser.add_argument(
        "--traces-out", metavar="FILE", default=None,
        help="also write every span of every case as one JSONL file")
    parser.add_argument(
        "--case", choices=("ring", "fat_tree", "both"), default="both",
        help="which closed-loop case(s) to run (default: both)")
    parser.add_argument("--full", action="store_true",
                        help="paper-faithful durations instead of quick")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument("--workers", type=int, default=None, metavar="N")
    parser.add_argument("--cache-dir", metavar="DIR",
                        default=_DEFAULT_CACHE_DIR)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--quiet", action="store_true")
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
    if args.validate:
        return _validate_files(args.validate)

    # Imported lazily: the validate path must not drag the experiment
    # stack (simulator, fabric, runtime executor) into the process.
    from ..experiments import fabric
    from ..runtime.context import RuntimeContext
    from .report import render_html
    from .trace import spans_to_jsonl

    runtime = RuntimeContext(
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        seed=args.seed,
        progress=not args.quiet,
    )
    config = fabric.FabricExpConfig(trace=True, seed=args.seed)
    cases = (("ring", "fat_tree") if args.case == "both" else (args.case,))
    result = fabric.run(config=config, quick=not args.full, runtime=runtime,
                        cases=cases)

    sections = []
    all_spans: list[dict] = []
    for case, data in result["cases"].items():
        obs = data.get("obs") or {}
        sections.append({"name": case, "health": obs.get("health"),
                         "spans": obs.get("spans")})
        all_spans.extend(obs.get("spans") or [])
        summary = (obs.get("health") or {}).get("summary")
        if summary is not None:
            status = " ".join(f"{k}={v}"
                              for k, v in summary["status"].items())
            print(f"[{case}] {summary['links']} links: {status}; "
                  f"{summary['detections']} detection(s), "
                  f"{summary['unattributed_detections']} unattributed")

    html_path = pathlib.Path(args.html)
    html_path.parent.mkdir(parents=True, exist_ok=True)
    html_path.write_text(render_html(sections))
    print(f"wrote {html_path}")
    if args.traces_out is not None:
        traces_path = pathlib.Path(args.traces_out)
        traces_path.parent.mkdir(parents=True, exist_ok=True)
        traces_path.write_text(spans_to_jsonl(all_spans))
        print(f"wrote {traces_path} ({len(all_spans)} span(s))")
    if result["errors"]:
        print(f"{len(result['errors'])} case(s) failed: "
              f"{sorted(result['errors'])}")
        return 1
    return 0
