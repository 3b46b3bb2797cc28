"""``run.py compare A.json B.json``: did B get worse than A anywhere?

A is the parent (or the first set of runs), B the change (or the second
set).  Each (end-to-end metric, workload) pair gets one verdict, by the
rules of the ``choosing-metrics`` guide (sections 6 and 8):

* ``regressed`` — B's median is worse than A's by more than the metric's
  bound; for an exact metric (bound 0), any move in the worse direction.
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, the wider of the two sets) exceeds the bound, so the runs cannot
  tell "unchanged" from "worse"; unless every run of B reads better than
  every run of A, which is ``ok``.
* ``ok`` — otherwise.  ``ok`` carries the note ``gain`` when B wins at
  least nine tenths of the run pairs (i-th run against i-th run, ties
  counting for neither) and the medians differ by more than A's own
  quartile distance; for an exact metric, when it moved the better way.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

import metrics


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a`` (negative: better)."""
    return (a - b) if better == "higher" else (b - a)


def verdict(metric: str, workload: str, a: dict[str, Any], b: dict[str, Any]
            ) -> tuple[str, str]:
    """``(verdict, note)`` for one pair of result rows."""
    better = a["better"]
    if "values" not in a:
        if a["value"] == b["value"]:
            return "ok", "identical"
        worse = _worse_by(a["value"], b["value"], better)
        return ("regressed", f"{a['value']!r} -> {b['value']!r}") if worse > 0 \
            else ("ok", f"gain: {a['value']!r} -> {b['value']!r}")

    allowed = metrics.bound_for(metric, workload, a["median"])
    worse = _worse_by(a["median"], b["median"], better)
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    note = (f"median {a['median']:.6g} -> {b['median']:.6g} "
            f"(worse by {worse:+.4g}, allowed {allowed:.4g}, spread {spread:.4g})")
    if spread > allowed:
        every_b_better = (min(b["values"]) > max(a["values"]) if better == "higher"
                          else max(b["values"]) < min(a["values"]))
        if not every_b_better:
            return "unresolved", note
    if worse > allowed:
        return "regressed", note
    pairs = list(zip(a["values"], b["values"]))
    wins = sum(_worse_by(x, y, better) < 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and -worse > a["q3"] - a["q1"]:
        note = f"gain ({wins}/{len(pairs)} pairs): " + note
    return "ok", note


def compare(a: dict[str, Any], b: dict[str, Any]) -> list[tuple[str, str, str, str]]:
    """``(workload, metric, verdict, note)`` for every pair either set has."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            rows.append((workload, "*", "unresolved", "workload missing from B"))
            continue
        ea = a["workloads"][workload]["end_to_end"]
        eb = b["workloads"][workload]["end_to_end"]
        for metric in ea:
            if metric not in eb:
                rows.append((workload, metric, "regressed", "metric undefined in B"))
                continue
            rows.append((workload, metric, *verdict(metric, workload,
                                                    ea[metric], eb[metric])))
        digest_a = a["workloads"][workload]["digest"]
        digest_b = b["workloads"][workload]["digest"]
        rows.append((workload, "sim_statistics_digest",
                     "ok" if digest_a == digest_b else "regressed",
                     "identical" if digest_a == digest_b
                     else f"{digest_a} -> {digest_b}"))
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="results of the parent / first set")
    parser.add_argument("b", help="results of the change / second set")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    for side, data in (("A", a), ("B", b)):
        if data["host"]["noisy_host"]:
            print(f"note: set {side} was taken on a noisy host "
                  f"(load {data['host']['load1_at_start']:.2f})")
    rows = compare(a, b)
    for workload, metric, result, note in rows:
        print(f"{result:<10} {metric:<26} on {workload:<16} {note}")
    counts = {v: sum(r[2] == v for r in rows) for v in ("ok", "regressed", "unresolved")}
    print(f"\n{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
