#!/usr/bin/env python3
"""The repository's benchmark: five workloads, a per-layer time budget.

    python benchmarks/perf/run.py --seed 0            every workload, every metric
    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
                                                      one invocation of the driver contract
    python benchmarks/perf/run.py compare A.json B.json
    python benchmarks/perf/run.py report [RESULTS.json]
    python benchmarks/perf/run.py --selftest

See ``README.md`` next to this file for the catalogue and the method.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import metrics  # noqa: E402
from trace import chrome_trace  # noqa: E402  (benchmarks/perf/trace.py)
from workloads import WORKLOADS  # noqa: E402

RESULTS_DIR = HERE / "results"
RESULTS = RESULTS_DIR / "BENCH.json"
PROBES = HERE / "probes.py"
#: A traced run must account for this share of its wall inside layers.
MIN_COVERAGE = 0.97


def run_probes() -> dict[str, dict[str, Any]]:
    """All per-layer probes, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(PROBES)], cwd=harness.REPO_ROOT,
                          capture_output=True, text=True,
                          timeout=harness.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise harness.BenchmarkError(f"probes failed\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge_with_trace(runs: list[dict[str, Any]], traced: dict[str, Any],
                     workload: str, seed: int) -> tuple[int, int, list[str]]:
    """``harness.judge`` over untraced + traced runs, plus trace coverage."""
    attempted, failed, reasons = harness.judge(runs + [traced], workload, seed)
    attempted += 1
    coverage = traced["trace"]["coverage"]
    if coverage < MIN_COVERAGE:
        failed += 1
        reasons.append(f"{workload}: trace coverage {coverage:.3f} < {MIN_COVERAGE}")
    return attempted, failed, reasons


# -- the driver contract: one workload, one invocation --------------------------------


def driver(args: argparse.Namespace) -> int:
    workload, seed = args.workload, args.seed
    if args.trace:
        untraced = harness.spawn(workload, seed)
        traced = harness.spawn(workload, seed, traced=True)
        attempted, failed, reasons = judge_with_trace([untraced], traced, workload, seed)
        rows = metrics.traced_layers(traced["trace"], untraced["wall_s"])
        rows.update(metrics.exact_counts(untraced))
        rows.update(run_probes())
        out = {name: {"value": row["value"], "unit": row["unit"]}
               for name, row in rows.items()}
    else:
        runs, setups = harness.timed_runs(workload, seed, seconds=args.seconds)
        attempted, failed, reasons = harness.judge(runs, workload, seed)
        e2e = metrics.end_to_end(runs, setups, attempted, failed)
        out = {name: {"value": e2e[name]["median"], "unit": e2e[name]["unit"]}
               for name in metrics.HOST_TIME}
    for reason in reasons:
        print(reason, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


# -- the full run: every workload, every metric ------------------------------------------


def full(args: argparse.Namespace) -> int:
    host = harness.host_info()
    probes = run_probes()
    results: dict[str, Any] = {
        "schema": "perf-bench/1", "seed": args.seed, "runs": args.runs,
        "host": host, "workloads": {},
    }
    any_failed = False
    for name in WORKLOADS:
        print(f"[{name}] {args.runs} timed runs + 1 traced ...", file=sys.stderr)
        runs, setups = harness.timed_runs(name, args.seed, count=args.runs,
                                          setup_only_runs=0)
        traced = harness.spawn(name, args.seed, traced=True)
        attempted, failed, reasons = judge_with_trace(runs, traced, name, args.seed)
        any_failed |= failed > 0
        walls = [run["wall_s"] for run in runs]
        layers = metrics.traced_layers(traced["trace"],
                                       harness.quartiles(walls)["median"])
        layers.update(metrics.exact_counts(runs[0]))
        layers.update({p: row for p, row in probes.items() if row["home"] == name})
        trace = traced["trace"]
        raw = trace.pop("raw_spans")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.trace.json").write_text(json.dumps(chrome_trace(raw)))
        results["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "digest": runs[0]["digest"],
            "golden": harness.golden_digest(name, args.seed),
            "wall_s": harness.quartiles(walls),
            "failed_reasons": reasons,
            "end_to_end": metrics.end_to_end(runs, setups, attempted, failed),
            "per_layer": layers,
            "trace": trace,
        }
    results["probes"] = probes
    out = Path(args.out) if args.out else RESULTS
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(render(results))
    print(f"\nwrote {out}", file=sys.stderr)
    if any_failed:
        print("FAILED: failed_ops_fraction > 0 on at least one workload",
              file=sys.stderr)
        return 1
    return 0


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render(results: dict[str, Any]) -> str:
    """Every metric by name, with its unit, one line each."""
    host = results["host"]
    lines = [
        f"perf benchmark, seed {results['seed']}, {results['runs']} timed runs "
        f"per workload; nproc={host['nproc']} python={host['python']} "
        f"load1={host['load1_at_start']:.2f}"
        + ("  ** noisy_host: load exceeded nproc at start **"
           if host["noisy_host"] else ""),
    ]
    for name, data in results["workloads"].items():
        lines += ["", f"== {name}: {data['why']}",
                  f"   digest {data['digest']}"
                  + ("" if data["golden"] is None
                     else f" (golden {data['golden']})"), "   end to end:"]
        for metric, row in data["end_to_end"].items():
            if "values" in row:
                text = (f"{_fmt(row['median'])} {row['unit']}  "
                        f"[q1 {_fmt(row['q1'])}, q3 {_fmt(row['q3'])}, n={row['n']}]")
            else:
                text = f"{_fmt(row['value'])} {row['unit']}"
                high = row.get("high_percentile")
                if high:
                    text += f"  [p{high['p']:g} {_fmt(high['value'])}, n={row['n']}]"
            lines.append(f"     {metric:<28} {text}  ({row['better']} is better)")
        lines.append("   per layer:")
        for metric, row in data["per_layer"].items():
            lines.append(f"     {metric:<40} {_fmt(row['value'])} {row['unit']}")
        for reason in data["failed_reasons"]:
            lines.append(f"   FAILED: {reason}")
    return "\n".join(lines)


def selftest() -> int:
    """Run every ``test_*`` function of ``tests/test_selftest.py``."""
    import importlib.util
    import traceback

    spec = importlib.util.spec_from_file_location(
        "perf_selftest", HERE / "tests" / "test_selftest.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    failures = 0
    for name, fn in vars(module).items():
        if not name.startswith("test_") or not callable(fn):
            continue
        try:
            fn()
        except Exception:
            failures += 1
            print(f"FAILED  {name}")
            traceback.print_exc()
        else:
            print(f"ok      {name}")
    return 1 if failures else 0


# -- entry point ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        import compare
        return compare.main(argv[1:])
    if argv and argv[0] == "report":
        import report
        return report.main(argv[1:])

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload under the driver contract")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed wall to accumulate per invocation (driver mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics (driver mode)")
    parser.add_argument("--runs", type=int, default=5,
                        help="timed runs per workload (full mode, at least 5)")
    parser.add_argument("--out", help=f"results file (full mode; default {RESULTS})")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    try:
        harness.preflight()
        if args.workload:
            return driver(args)
        if args.runs < 5:
            parser.error("--runs must be at least 5")
        return full(args)
    except harness.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
