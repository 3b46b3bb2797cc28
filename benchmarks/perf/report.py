"""``run.py report``: the "where the time goes" table per workload.

Reads a results file written by ``run.py --seed N`` and renders, for each
workload, every layer's traced self time, its share of the traced wall
and its boundary crossings.  Beside it stands an *independent estimate*
of the layer's share of the **untraced** wall — a probe's cost per
operation times an exact operation count — because tracing charges every
call the same toll and so overstates call-heavy layers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

from trace import LAYERS

HERE = Path(__file__).resolve().parent
DEFAULT_RESULTS = HERE / "results" / "BENCH.json"
REPORT = HERE / "results" / "where_the_time_goes.md"

_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3}

#: layer -> (probe, per-layer metric that counts the probe's operation).
ESTIMATES = {
    "simulator.engine": ("simulator.engine.dispatch_ns", "simulator.engine.events"),
    "simulator.switch": ("simulator.switch.forward_ns", "simulator.switch.calls_in"),
    "simulator.udp": ("simulator.udp.emit_ns", "simulator.udp.calls_in"),
    "simulator.fluid": ("simulator.fluid.absorb_ns", "simulator.fluid.absorbed"),
    "core.protocol": ("core.protocol.session_us", "core.protocol.sessions_completed"),
    "core.counters": ("core.counters.tag_ns", "core.counters.calls_in"),
    "runtime": ("runtime.job_overhead_us", "runtime.jobs"),
}


def estimate(layer: str, per_layer: dict[str, Any], probes: dict[str, Any]
             ) -> Optional[tuple[float, str]]:
    """``(seconds, "probe x count")`` or None where no pairing exists."""
    pairing = ESTIMATES.get(layer)
    if pairing is None:
        return None
    probe, count = pairing
    n = per_layer[count]["value"]
    if not n:
        return None
    cost = probes[probe]
    seconds = cost["value"] * _SECONDS[cost["unit"]] * n
    return seconds, f"{probe} x {count}"


def table(name: str, data: dict[str, Any], probes: dict[str, Any]) -> str:
    trace = data["trace"]
    per_layer = data["per_layer"]
    wall = data["wall_s"]["median"]
    lines = [
        f"### {name}",
        "",
        f"untraced wall {wall:.2f} s (median of {data['wall_s']['n']}); "
        f"traced wall {trace['wall_s']:.2f} s "
        f"(x{per_layer['trace.overhead_ratio']['value']:.1f}); "
        f"{trace['span_count']:,} spans; coverage {trace['coverage']:.3f}",
        "",
        "| layer | self_s (traced) | share of traced wall | calls_in "
        "| estimate of untraced share | from |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for layer in sorted(LAYERS, key=lambda l: -trace["self_s"][l]):
        self_s = trace["self_s"][layer]
        est = estimate(layer, per_layer, probes)
        est_text, source = ("-", "") if est is None else (f"{est[0] / wall:.1%}", est[1])
        lines.append(
            f"| {layer} | {self_s:.3f} | {self_s / trace['wall_s']:.1%} "
            f"| {trace['calls_in'][layer]:,} | {est_text} | {source} |")
    return "\n".join(lines)


def render(results: dict[str, Any]) -> str:
    host = results["host"]
    parts = [
        "# Where the time goes",
        "",
        f"Seed {results['seed']}, {results['runs']} timed runs per workload, "
        f"nproc={host['nproc']}, Python {host['python']}, "
        f"load {host['load1_at_start']:.2f} at start"
        + (" (**noisy host**)" if host["noisy_host"] else "") + ". "
        "Regenerate with `python benchmarks/perf/run.py --seed 0 && "
        "python benchmarks/perf/run.py report`.",
        "",
        "`self_s` is traced time: the hook taxes every call alike, so call-heavy "
        "layers are overstated.  The estimate column is a probe's cost per "
        "operation times an exact count, as a share of the *untraced* wall.  "
        "`fabric_sharded` runs untraced on two workers and traced in process, so "
        "its estimated shares of the wall can add up to more than 100 %.",
    ]
    for name, data in results["workloads"].items():
        parts += ["", table(name, data, results["probes"])]
    return "\n".join(parts) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py report", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("results", nargs="?", default=str(DEFAULT_RESULTS))
    args = parser.parse_args(argv)
    with open(args.results) as fh:
        text = render(json.load(fh))
    REPORT.parent.mkdir(exist_ok=True)
    REPORT.write_text(text)
    print(text)
    print(f"wrote {REPORT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
