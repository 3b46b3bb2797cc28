"""``benchmarks/peak_rss.py`` counts the workers a command forked and reaped."""

from __future__ import annotations

import importlib.util
import os
import resource
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "peak_rss.py"


def _load_peak_rss():
    spec = importlib.util.spec_from_file_location("peak_rss", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_reaped_child_high_water_mark_counts():
    """The child's peak passes this process's own by at least 64 MiB, so
    only a reading that counts the reaped child can reach it."""
    peak_rss = _load_peak_rss()
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pid = os.fork()
    if pid == 0:  # the child touches every page of its ballast, then leaves
        try:
            ballast = b"\x01" * ((own_kib << 10) + (64 << 20))
            os._exit(0 if ballast[-1] == 1 else 1)
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert peak_rss.peak_rss_mib() >= own_kib / 1024 + 64
