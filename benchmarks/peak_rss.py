"""Run one ``python -m repro`` command in this process and bound its peak RSS.

    PYTHONPATH=src python benchmarks/peak_rss.py --max-mib 120 -- \\
        serve --quick --out serve-obs

The command runs through :func:`repro.cli.main` in this interpreter, so
the process's own high-water mark (``VmHWM`` in ``/proc/self/status``;
``ru_maxrss`` where there is no ``/proc``) is the command's peak, with
no ``/usr/bin/time`` needed.  A ``--workers`` sweep reaps every worker
it forks before it returns, so the largest of them (``RUSAGE_CHILDREN``)
is counted too.  Exit status is the command's own when it fails, else 1
when the peak is over the bound.
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path
from typing import Optional, Sequence


def _own_peak_kib() -> int:
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mib() -> float:
    """Resident-set high-water mark of this process or of the largest
    child it has reaped, in MiB."""
    return max(_own_peak_kib(),
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mib", type=float, required=True,
                        help="fail when the peak RSS is above this")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the repro command line, after `--`")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no repro command given")

    from repro.cli import main as repro_main

    status = repro_main(command)
    peak = peak_rss_mib()
    print(f"peak RSS (VmHWM, reaped workers): {peak:.1f} MiB, bound {args.max_mib:g} MiB")
    if status:
        return status
    if peak > args.max_mib:
        print(f"peak RSS {peak:.1f} MiB is over the {args.max_mib:g} MiB "
              "bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
