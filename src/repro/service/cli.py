"""``fancy-repro serve``: run the degraded-mode soak service.

Runs :func:`repro.service.run_serve` — a ring fabric supervised for a
simulated day under entry churn and the control-plane-grey fault —
prints each health snapshot as it lands in the merged result, and exits
0 only when every online invariant held (zero I1–I6 breaches).

``--out DIR`` writes the machine/operator artifact set:

* ``serve-health.json`` — the byte-stable health document (snapshots,
  ladder states, breach totals; identical across same-seed runs and any
  ``--shards`` value — the determinism contract CI diffs),
* ``serve-report.html`` — the offline dashboard (tiles + per-link
  table + ladder/trace waterfalls),
* ``serve-traces.jsonl`` and ``serve-metrics.prom`` — the raw exports,
* ``serve-result.json`` — the full merged result document.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
from typing import Any, Optional, Sequence

from ..obs.trace import JsonlSpans
from ..runtime.context import RuntimeContext
from .soak import ServeConfig, ServeResult, run_serve

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fancy-repro serve",
        description="Long-running degraded-mode soak: per-link FANcY "
                    "sessions with degradation ladders, online I1-I6 "
                    "supervision, Zipf entry churn and periodic health "
                    "snapshots (docs/ROBUSTNESS.md).",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized serve (4-switch ring, smaller entry "
                             "universe, coarser cadences)")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="simulated horizon (default: one day)")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="batch the per-link probes into N worker "
                             "processes; output is byte-identical for any N")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="parallel shard processes (default: serial)")
    parser.add_argument("--grey-link", default=None, metavar="A->B",
                        help="link whose reverse (control) channel greys "
                             "out (default: the config's)")
    parser.add_argument("--grey-rate", type=float, default=None, metavar="P",
                        help="control-channel loss rate (default 0.2)")
    parser.add_argument("--no-grey", action="store_true",
                        help="disable the control-plane-grey fault entirely")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="write health JSON, HTML dashboard, trace "
                             "JSONL and Prometheus text to DIR")
    return parser


def _config(args: argparse.Namespace) -> ServeConfig:
    config = ServeConfig.quick(seed=args.seed) if args.quick \
        else ServeConfig(seed=args.seed)
    overrides: dict[str, Any] = {}
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.no_grey:
        overrides["grey_link"] = None
    elif args.grey_link is not None:
        overrides["grey_link"] = args.grey_link
    if args.grey_rate is not None:
        overrides["grey_rate"] = args.grey_rate
    return dataclasses.replace(config, **overrides) if overrides else config


def _print_snapshots(result: ServeResult) -> None:
    for snapshot in result.snapshots:
        status = " ".join(f"{k}={v}"
                          for k, v in snapshot["status"].items())
        print(f"  t={snapshot['t']:>9.0f}s  {status}")
    states = " ".join(f"{lid}={state}"
                      for lid, state in result.ladder_states.items()
                      if state != "healthy") or "all healthy"
    print(f"ladders: {states}")
    if result.absorbed_exhaustions:
        print(f"absorbed exhaustions: {result.absorbed_exhaustions}")
    if result.breaches:
        counts = " ".join(f"{k}={v}" for k, v in result.breaches.items())
        print(f"!! invariant breaches: {counts}")
        for violation in result.violations[:10]:
            print(f"   {violation['invariant']} @ t={violation['time']:.3f}: "
                  f"{violation['detail']}")
    else:
        print("invariants: clean (zero breaches)")


def _health_section(result: ServeResult) -> dict[str, Any]:
    """Shape the final snapshot as a dashboard section (obs.report)."""
    rows = result.snapshots[-1]["links"] if result.snapshots else []
    latencies = [lat for row in rows
                 for lat in row.get("detection_latencies", [])]
    summary = {
        "sim_time": result.config.duration_s,
        "links": len(result.links),
        "status": result.snapshots[-1]["status"] if result.snapshots else {},
        "detections": sum(sum(row["detections"].values()) for row in rows),
        "sessions_completed": sum(result.sessions_completed.values()),
        "unattributed_detections": sum(row["unattributed_detections"]
                                       for row in rows),
        "invariant_breaches": dict(result.breaches),
        "absorbed_exhaustions": result.absorbed_exhaustions,
        "detection_latency": {
            "count": len(latencies),
            "min": min(latencies) if latencies else None,
            "mean": (sum(latencies) / len(latencies)) if latencies else None,
            "max": max(latencies) if latencies else None,
        },
    }
    return {"name": "serve soak", "health": {"summary": summary,
                                             "links": rows, "topology": []},
            "spans": JsonlSpans(result.trace_chunks)}


def _write_artifacts(result: ServeResult, out_dir: pathlib.Path) -> None:
    """Write the artifact set; the trace and the dashboard are written a
    piece at a time, so neither is ever held whole."""
    from ..obs.report import html_pieces

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "serve-health.json").write_text(result.health_json + "\n")
    with (out_dir / "serve-traces.jsonl").open("w") as out:
        out.writelines(result.trace_chunks())
    (out_dir / "serve-metrics.prom").write_text(result.prometheus)
    (out_dir / "serve-result.json").write_text(
        json.dumps(result.to_dict(), sort_keys=True) + "\n")
    with (out_dir / "serve-report.html").open("w") as out:
        out.writelines(html_pieces([_health_section(result)],
                                   title="FANcY serve soak report"))
    for name in ("serve-health.json", "serve-traces.jsonl",
                 "serve-metrics.prom", "serve-result.json",
                 "serve-report.html"):
        print(f"wrote {out_dir / name}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    config = _config(args)
    runtime = RuntimeContext(workers=args.workers, cache_dir=None,
                             progress=False)
    grey = (f"control-plane-grey on reverse of {config.grey_link} "
            f"@ {config.grey_rate:.0%}" if config.grey_link else "no fault")
    print(f"serve: ring-{config.ring_size}, "
          f"{config.duration_s:g}s simulated, top-{config.top_n} churn "
          f"every {config.churn_every_s:g}s, {grey}, "
          f"shards={args.shards}")
    try:
        result = run_serve(config, shards=args.shards, runtime=runtime)
    except ValueError as exc:  # rejected before anything was simulated
        parser.error(str(exc))
    _print_snapshots(result)
    if args.out is not None:
        _write_artifacts(result, pathlib.Path(args.out))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
