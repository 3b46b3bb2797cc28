"""``fancy-repro chaos``: run the invariant-checked soak.

Exit status is 0 when every seed satisfies every invariant, 1 otherwise.
On failure the first failing seed's schedule is shrunk to a minimal
reproducer and written to ``--reproducer`` (JSON; CI uploads it as an
artifact).  ``--replay FILE`` re-runs a previously written reproducer,
and ``--regression NAME`` runs a named protocol-regression fixture.
Each fixture carries an expectation (``REGRESSION_EXPECTATIONS``):
``violate`` fixtures are *expected* to fail, proving the harness has
teeth (CI negates their exit status); ``clean`` fixtures pin robustness
behaviour — e.g. ``control-plane-grey`` must run violation-free — and
CI runs them plain.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.runtime.context import RuntimeContext

from .harness import (
    REGRESSION_EXPECTATIONS,
    REGRESSIONS,
    SoakConfig,
    SoakResult,
    regression_scenario,
    run_many,
    run_soak,
)
from .shrink import load_reproducer, shrink, write_reproducer

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fancy-repro chaos",
        description="Randomized fault soak with invariant checking "
                    "(docs/ROBUSTNESS.md).",
    )
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of seeded runs (default 25)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed; runs cover [base, base+seeds)")
    parser.add_argument("--quick", action="store_true",
                        help="short runs: 4 s of traffic instead of 8 s")
    parser.add_argument("--duration", type=float, default=None,
                        help="explicit traffic duration in simulated seconds")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel soak processes (default: serial)")
    parser.add_argument("--reproducer", default="chaos_reproducer.json",
                        help="where to write the shrunk failing schedule")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip schedule shrinking on failure")
    parser.add_argument("--regression", choices=sorted(REGRESSIONS),
                        default=None,
                        help="run a named protocol-regression fixture "
                             "(expected to violate an invariant)")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="replay a reproducer JSON instead of generating "
                             "schedules")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print per-seed schedules and stats")
    return parser


def _base_config(args: argparse.Namespace) -> SoakConfig:
    duration = args.duration if args.duration is not None \
        else (4.0 if args.quick else 8.0)
    return SoakConfig(seed=args.seed_base, duration_s=duration)


def _print_result(result: dict, verbose: bool) -> None:
    seed = result["seed"]
    status = "ok" if result["ok"] else "FAIL"
    kinds = ", ".join(f"{s['kind']}({s['target']})"
                      for s in result["schedule"]) or "—"
    print(f"  seed {seed:>4}  {status:<4}  faults: {kinds}")
    for v in result["violations"]:
        print(f"        {v['invariant']} @ t={v['time']:.3f}: {v['detail']}")
    if verbose:
        stats = result.get("stats", {})
        reports = stats.get("reports", {})
        print(f"        sessions={stats.get('sessions_completed')} "
              f"reports={reports} revivals={stats.get('revivals')}")


def _shrink_and_write(config: SoakConfig, failing: SoakResult,
                      args: argparse.Namespace) -> None:
    if args.no_shrink:
        schedule, result, runs = failing.schedule, failing, 0
    else:
        print(f"shrinking seed {failing.seed}'s schedule "
              f"({len(failing.schedule)} faults)...")
        schedule, result, runs = shrink(
            failing.schedule, failing,
            lambda candidate: run_soak(config, candidate))
        print(f"  -> {len(schedule)} fault(s) after {runs} replay(s)")
    path = write_reproducer(args.reproducer, config, schedule, result,
                            runs_used=runs)
    print(f"reproducer written to {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    base = _base_config(args)

    if args.replay is not None:
        config, schedule = load_reproducer(args.replay)
        print(f"replaying {args.replay} (seed {config.seed}, "
              f"{len(schedule)} faults)")
        result = run_soak(config, schedule)
        _print_result(result.to_dict(), args.verbose)
        return 0 if result.ok else 1

    if args.regression is not None:
        config, schedule = regression_scenario(args.regression, base)
        expectation = REGRESSION_EXPECTATIONS.get(args.regression, "violate")
        expected = ("expected to violate an invariant"
                    if expectation == "violate"
                    else "expected to run clean")
        print(f"regression fixture: {args.regression} ({expected})")
        result = run_soak(config, schedule)
        _print_result(result.to_dict(), args.verbose)
        if not result.ok:
            _shrink_and_write(config, result, args)
        return 0 if result.ok else 1

    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    runtime = RuntimeContext(workers=args.workers, cache_dir=None,
                             progress=False)
    print(f"chaos soak: {len(seeds)} seed(s), "
          f"{base.duration_s:g}s traffic + {base.grace_s:g}s grace each")
    results = run_many(base, seeds, runtime=runtime)
    failing_seeds = [s for s in seeds if not results[s]["ok"]]
    for seed in seeds:
        if args.verbose or not results[seed]["ok"]:
            _print_result(results[seed], args.verbose)
    print(f"{len(seeds) - len(failing_seeds)}/{len(seeds)} seeds clean")
    if not failing_seeds:
        return 0

    first = failing_seeds[0]
    if results[first]["schedule"]:  # a crashed seed has nothing to shrink
        # A soak is a pure function of its config: the replay here is the
        # worker's failing run.
        config = dataclasses.replace(base, seed=first)
        _shrink_and_write(config, run_soak(config), args)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
