"""Exact cost ledger: what each benchmark workload costs, in counts that repeat.

    PYTHONPATH=src python benchmarks/cost_ledger.py

Wall clock cannot resolve most changes on a small shared box; counts can.
For each of the five workloads of ``benchmarks/perf/workloads.py`` (seed
0; the builders are imported read-only) this runs two fresh interpreters:

* a *counted* run: Python ``call`` and ``c_call`` events per
  ``repro.<pkg>.<module>`` under ``sys.setprofile`` — a C call is charged
  to the module whose code made it, and calls inside code outside
  ``repro`` are not counted.  ``fabric_sharded`` runs its two shards in
  process here, as the benchmark's own tracer does;
* a *plain* run: simulator events and the ``repro`` modules imported
  before the call and during it; and, as estimates, the call's
  ``tracemalloc`` peak, gc collections per generation and the other
  modules it imported.  ``fabric_sharded`` uses its two real worker
  processes, so this is the parent's view.

``benchmarks/results/cost_ledger.json`` holds only what ``repro`` code
decides, so it repeats byte for byte between runs of the same tree, from
any checkout directory and on any CPython 3.11 (sorted keys, no
wall-clock field): CI regenerates it and fails on any diff, and a change
that moves a cost commits the new ledger.  The estimates also depend on
the interpreter build and the checkout path (the standard library's
imports and allocations, path strings held by an imported module), so
they are printed, not written.  Interpreters run with ``-S``,
``PYTHONHASHSEED=0``, UTF-8 mode and every ``repro`` module precompiled.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parents[1]
PERF_DIR = REPO_ROOT / "benchmarks" / "perf"
LEDGER = REPO_ROOT / "benchmarks" / "results" / "cost_ledger.json"
SEED = 0


def count_calls(run: Callable[..., Any], *args: Any) -> tuple[Any, dict[str, dict[str, int]]]:
    """``run(*args)``'s result and its Python and C calls per ``repro`` module."""
    calls: Counter = Counter()
    c_calls: Counter = Counter()
    module_of: dict[Any, str] = {}

    def module(frame: Any) -> str:
        code = frame.f_code
        name = module_of.get(code)
        if name is None:
            name = frame.f_globals.get("__name__") or ""
            name = module_of[code] = name if name.startswith("repro.") else ""
        return name

    counters = {"call": calls, "c_call": c_calls}

    def hook(frame: Any, event: str, _arg: Any) -> None:
        counter = counters.get(event)
        if counter is not None:
            name = module(frame)
            if name:
                counter[name] += 1

    sys.setprofile(hook)
    try:
        result = run(*args)
    finally:
        sys.setprofile(None)
    return result, {"calls": _tally(calls), "c_calls": _tally(c_calls)}


def _tally(counter: Counter) -> dict[str, int]:
    return dict(sorted(counter.items()), total=sum(counter.values()))


def render(ledger: dict[str, Any]) -> str:
    """The ledger as its committed, diff-friendly text."""
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def _repro_modules(names: set[str]) -> list[str]:
    return sorted(name for name in names if name.split(".")[0] == "repro")


def _measure(workload_name: str, mode: str) -> dict[str, Any]:
    """One run of one workload in this (fresh) interpreter."""
    import gc

    sys.path[:0] = [str(REPO_ROOT / "src"), str(PERF_DIR)]
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[workload_name]
    inputs = workload.build(SEED)
    if mode == "counted":
        gc.collect()
        result, counts = count_calls(workload.run, inputs, True)
        counts["digest"] = digest(workload.summarize(inputs, result))
        return counts

    import _tracemalloc  # the C module: it imports nothing

    before = set(sys.modules)
    gc.collect()
    collections = [gen["collections"] for gen in gc.get_stats()]
    _tracemalloc.start()
    result = workload.run(inputs, False)
    peak = _tracemalloc.get_traced_memory()[1]
    _tracemalloc.stop()
    during = set(sys.modules) - before
    repro_during = _repro_modules(during)
    summary = workload.summarize(inputs, result)
    return {
        "digest": digest(summary),
        "events": summary["events"],
        "repro_modules_before_call": _repro_modules(before),
        "repro_modules_during_call": repro_during,
        "estimates": {
            "gc_collections": [gen["collections"] - n
                               for gen, n in zip(gc.get_stats(), collections)],
            "other_modules_during_call": sorted(during.difference(repro_during)),
            "tracemalloc_peak_bytes": peak,
        },
    }


def fresh_env() -> dict[str, str]:
    """The environment of a measuring interpreter (run it with ``-S``)."""
    import os

    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", PYTHONUTF8="1")
    return env


def _spawn(workload_name: str, mode: str) -> Any:
    import subprocess

    return subprocess.Popen(
        [sys.executable, "-S", __file__, "--measure", workload_name, mode],
        env=fresh_env(), cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def _collect(proc: Any, what: str) -> dict[str, Any]:
    stdout, stderr = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"{what} failed:\n{stderr}")
    return json.loads(stdout.splitlines()[-1])


def build_ledger(names: list[str]) -> tuple[dict[str, Any], dict[str, Any]]:
    """Measure ``names``; returns the gated ledger and the estimates."""
    import compileall

    compileall.compile_dir(REPO_ROOT / "src" / "repro", quiet=1)
    workloads: dict[str, Any] = {}
    estimates: dict[str, Any] = {}
    for name in names:
        # The two runs share nothing, so they run side by side.
        procs = {mode: _spawn(name, mode) for mode in ("counted", "plain")}
        counted, plain = (_collect(proc, f"{name} ({mode})")
                          for mode, proc in procs.items())
        if counted.pop("digest") != plain["digest"]:
            raise SystemExit(f"{name}: the counted and plain runs disagree")
        estimates[name] = plain.pop("estimates")
        workloads[name] = dict(plain, **counted)
    ledger = {"python": "%d.%d" % sys.version_info[:2], "seed": SEED,
              "workloads": workloads}
    return ledger, estimates


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--measure"]:  # one run, in a fresh interpreter
        print(json.dumps(_measure(*argv[1:3])))
        return 0

    sys.path.insert(0, str(PERF_DIR))
    from workloads import WORKLOADS

    ledger, estimates = build_ledger(sorted(WORKLOADS))
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    LEDGER.write_text(render(ledger))
    for name, fields in sorted(estimates.items()):
        for field, value in sorted(fields.items()):
            print(f"estimate (not in the ledger): {name} {field} {value}")
    print(f"wrote {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
