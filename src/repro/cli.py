"""Command-line interface: ``fancy-repro <experiment> [--full]``.

Runs one experiment (or ``all``) and prints the rendered table/figure.
``--full`` switches from the reduced default configuration to the
paper-faithful sweep — expect long runtimes for the heatmaps.

Sweep execution is governed by an explicit
:class:`repro.runtime.RuntimeContext` built from the CLI flags and
threaded through every experiment callable (no mutable globals):

* ``--workers N`` runs independent sweep cells in N processes;
* ``--cache-dir`` / ``--no-cache`` control the content-addressed result
  cache (default ``.fancy-cache/``) that makes interrupted sweeps
  resumable;
* ``--seed`` reseeds the whole run;
* ``--timeout`` / ``--retries`` bound each cell's wall time and how
  often crashed cells are retried;
* ``--run-log`` records machine-readable JSONL telemetry;
* ``--telemetry`` attaches a per-cell metrics snapshot to each
  ``cell_done`` run-log event; ``--profile`` additionally records
  per-callback wall time (see ``docs/TELEMETRY.md``).

``fancy-repro telemetry`` runs a canonical detection scenario under a
live telemetry session and prints the metric catalogue, detection
records, and event-loop hotspots (``--out DIR`` adds the timeline JSONL
and a Prometheus text file).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Optional, Sequence

from . import experiments
from .runtime.cache import DEFAULT_CACHE_DIR
from .runtime.context import RuntimeContext

__all__ = ["main", "EXPERIMENTS", "build_runtime"]


#: experiment name -> callable(quick, runtime) -> rendered text.  Every
#: callable takes the runtime context explicitly; experiments that do not
#: run sweeps simply ignore it.  ``experiments`` is a lazy facade: an
#: entry loads its experiment module when it is called, not before.
EXPERIMENTS: dict[str, Callable[[bool, RuntimeContext], str]] = {
    "table1": lambda quick, runtime: experiments.table1.main(quick=quick),
    "table2": lambda quick, runtime: experiments.table2.main(),
    "fig2": lambda quick, runtime: experiments.fig2.main(),
    "fig7": lambda quick, runtime: experiments.fig7.main(quick=quick, runtime=runtime),
    "fig8": lambda quick, runtime: experiments.fig8.main(quick=quick),
    "fig9a": lambda quick, runtime: experiments.fig9.main(
        quick=quick, multi=False, runtime=runtime),
    "fig9b": lambda quick, runtime: experiments.fig9.main(
        quick=quick, multi=True, runtime=runtime),
    "uniform": lambda quick, runtime: experiments.uniform.main(quick=quick, runtime=runtime),
    "table3": lambda quick, runtime: experiments.table3.main(quick=quick, runtime=runtime),
    "baselines": lambda quick, runtime: experiments.baselines52.main(),
    "overhead": lambda quick, runtime: experiments.overhead.main(),
    "table4": lambda quick, runtime: experiments.table4.main(),
    "fabric": lambda quick, runtime: experiments.fabric.main(quick=quick, runtime=runtime),
    "fig10": lambda quick, runtime: experiments.fig10.main(quick=quick, runtime=runtime),
    "fig11": lambda quick, runtime: experiments.fig11.main(quick=quick, runtime=runtime),
    "table5": lambda quick, runtime: experiments.table5.main(),
    "telemetry": lambda quick, runtime: experiments.telemetry_report.main(
        quick=quick, runtime=runtime),
}


def build_runtime(args: argparse.Namespace) -> RuntimeContext:
    """Build the explicit execution context from parsed CLI flags."""
    cache_dir = None if args.no_cache else args.cache_dir
    return RuntimeContext(
        workers=args.workers,
        cache_dir=cache_dir,
        seed=args.seed,
        timeout_s=args.timeout,
        retries=args.retries,
        run_log=args.run_log,
        progress=not args.quiet,
        telemetry=args.telemetry or args.profile,
        profile=args.profile,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    if args_list and args_list[0] == "lint":
        # `fancy-repro lint [...]` delegates to the fancylint CLI, which
        # owns its own flags (see docs/STATIC_ANALYSIS.md).
        from .lint.cli import main as lint_main

        return lint_main(args_list[1:])
    if args_list and args_list[0] == "chaos":
        # `fancy-repro chaos [...]` delegates to the chaos-soak CLI,
        # which owns its own flags (see docs/ROBUSTNESS.md).
        from .chaos.cli import main as chaos_main

        return chaos_main(args_list[1:])
    if args_list and args_list[0] == "serve":
        # `fancy-repro serve [...]` delegates to the degraded-mode soak
        # service CLI (see docs/ROBUSTNESS.md).
        from .service.cli import main as serve_main

        return serve_main(args_list[1:])
    if args_list and args_list[0] == "report":
        # `fancy-repro report --validate FILE...` delegates to the
        # trace-schema gate (see docs/TELEMETRY.md).
        from .obs.cli import main as report_main

        return report_main(args_list[1:])

    parser = argparse.ArgumentParser(
        prog="fancy-repro",
        description="Regenerate the FANcY paper's tables and figures "
                    "(run `fancy-repro lint` for the static-analysis gate, "
                    "`fancy-repro chaos` for the fault-injection soak, "
                    "`fancy-repro serve` for the degraded-mode soak "
                    "service, `fancy-repro report --validate` for the "
                    "trace-schema gate).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the paper-faithful configuration instead of the quick one",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run independent sweep cells in N parallel processes",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help="content-addressed result cache; completed cells are skipped "
             f"on re-runs (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (every cell recomputes)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="base RNG seed for the sweeps (default: 0)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock timeout; wedged cells are killed and retried",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="re-submissions of a crashed/failed/timed-out cell (default: 1)",
    )
    parser.add_argument(
        "--run-log",
        metavar="FILE",
        default=None,
        help="append machine-readable JSONL sweep telemetry to FILE",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="collect per-cell metrics snapshots; with --run-log each "
             "cell_done JSONL event carries its snapshot",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="additionally record per-callback wall time in the event "
             "engine (implies --telemetry)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record causal detection traces (fabric experiment only); "
             "with --out also writes trace JSONL, Chrome-trace JSON and "
             "the HTML health report",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live stderr progress line",
    )
    parser.add_argument(
        "--fluid",
        action="store_true",
        help="fabric experiment only: model background traffic as fluid "
             "rate segments absorbed at counting-window boundaries "
             "instead of per-packet events (docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="fabric experiment only: shard the per-link monitor probes "
             "into N batches run under the sweep executor; merged output "
             "is byte-identical for any N (docs/FABRIC.md)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write each rendered artifact to DIR/<experiment>.txt",
    )
    args = parser.parse_args(args_list)
    if args.shards < 0:
        parser.error("--shards must be >= 0")
    fabric_only = [f"--{flag}" for flag in ("trace", "fluid", "shards") if getattr(args, flag)]
    if fabric_only and args.experiment not in ("fabric", "all"):
        parser.error(f"{', '.join(fabric_only)}: read by the fabric experiment only, "
                     f"not by {args.experiment}")
    runtime = build_runtime(args)

    out_dir = None
    if args.out is not None:
        import pathlib

        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        # Durations use the monotonic clock (FCY002): time.time() can jump
        # backwards under NTP adjustment and print negative runtimes.
        started = time.monotonic()
        print(f"=== {name} ===")
        if name == "telemetry":
            # The telemetry summary writes extra machine-readable
            # artifacts (timeline JSONL, Prometheus text) under --out.
            text = experiments.telemetry_report.main(
                quick=not args.full, runtime=runtime, out_dir=out_dir)
        elif name == "fabric":
            # The fabric experiment owns the --trace/--fluid/--shards
            # flags: detection traces, the hybrid fluid tier, and
            # process-sharded per-link probes.
            text = experiments.fabric.main(
                quick=not args.full, runtime=runtime, trace=args.trace,
                out_dir=out_dir, fluid=args.fluid, shards=args.shards)
        else:
            text = EXPERIMENTS[name](not args.full, runtime)
        if out_dir is not None and text:
            (out_dir / f"{name}.txt").write_text(text + "\n")
        print(f"--- {name} done in {time.monotonic() - started:.1f}s ---\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
