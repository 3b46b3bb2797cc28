"""One run of one workload, in a fresh interpreter.

Spawned by ``harness.py``; prints one JSON object as its last stdout
line.  Interpreter start, imports and input construction happen before
``t_call`` (the harness turns it into ``setup_s``); the timed region is
exactly the workload call, entered with a collected heap and no warm-up
— a user pays cold caches on every CLI run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from trace import REPO_ROOT, BoundaryTracer  # benchmarks/perf/trace.py

sys.path.insert(0, str(REPO_ROOT / "src"))


def _own_peak_rss_kib() -> int:
    """This process's resident high-water mark, in KiB.

    Not ``ru_maxrss``: across vfork+exec Linux carries the *spawning*
    process's high-water mark into the child's, so a harness that has
    grown past the workload (parsed results, span samples) would be
    measured instead of it.  ``VmHWM`` belongs to the address space made
    at exec.  The shard workers are forked without exec, so for them
    ``RUSAGE_CHILDREN`` is right.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the timed region would begin")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    out: dict = {"workload": workload.name, "seed": args.seed,
                 "traced": args.trace}
    if args.setup_only:
        out["t_call"] = time.monotonic()
        print(json.dumps(out))
        return 0

    tracer = BoundaryTracer() if args.trace else None
    gc.collect()
    out["t_call"] = time.monotonic()
    started = time.perf_counter()
    if tracer is not None:
        with tracer:
            result = workload.run(inputs, True)
    else:
        result = workload.run(inputs, False)
    out["wall_s"] = time.perf_counter() - started

    out["peak_rss_mib"] = max(
        _own_peak_rss_kib(),
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    summary = workload.summarize(inputs, result)
    out["summary"] = summary
    out["digest"] = digest(summary)
    if tracer is not None:
        out["trace"] = tracer.to_dict(f"{workload.name}/seed{args.seed}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
