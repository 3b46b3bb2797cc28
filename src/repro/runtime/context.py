"""Execution context threaded explicitly from the CLI to every sweep.

:class:`RuntimeContext` replaces the old ``_WORKERS`` mutable-global hack
in ``repro.cli``: one frozen value object carries the parallelism,
caching, seeding, timeout/retry, and telemetry configuration, and flows
through every ``EXPERIMENTS`` callable as an explicit keyword argument.

Library callers (tests, notebooks) that call ``run_heatmap`` & friends
directly get a hermetic default: serial execution, **no** cache
directory, no progress output.  The CLI builds a context with caching
enabled (``.fancy-cache/`` unless ``--no-cache``), a JSONL run log, and
a live progress line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

__all__ = ["RuntimeContext", "resolve"]


@dataclass(frozen=True)
class RuntimeContext:
    """How sweeps execute: parallelism, caching, seeding, telemetry.

    Attributes:
        workers: parallel worker processes (None/0/1 = serial).
        cache_dir: result-cache directory (None = caching disabled).
        seed: base RNG seed forwarded to the experiments.
        timeout_s: per-cell wall-clock timeout (None = unlimited).
        retries: how many times a crashed/failed/timed-out cell is
            re-submitted before being reported as failed.
        run_log: JSONL run-log path (None = no log file).
        progress: render the live stderr progress line.
        telemetry: collect a metrics/timeline snapshot per sweep cell
            (attached to each ``cell_done`` run-log event).
        profile: additionally record per-callback wall time inside the
            simulator (implies hotter instrumentation; off by default).
    """

    workers: Optional[int] = None
    cache_dir: Optional[Union[str, Path]] = None
    seed: int = 0
    timeout_s: Optional[float] = None
    retries: int = 1
    run_log: Optional[Union[str, Path]] = None
    progress: bool = False
    telemetry: bool = False
    profile: bool = False

    @property
    def parallel(self) -> bool:
        return bool(self.workers and self.workers > 1)


#: Hermetic default used when experiments are called as a library.
_DEFAULT = RuntimeContext()


def resolve(runtime: Optional[RuntimeContext] = None) -> RuntimeContext:
    """``runtime``, or the hermetic default when it is ``None``."""
    return runtime if runtime is not None else _DEFAULT
