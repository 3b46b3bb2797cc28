"""Fault-tolerant (optionally parallel) sweep execution.

:func:`run_sweep` is the single execution path for every sweep
experiment in the repo.  It takes a list of :class:`~repro.runtime.jobs.Job`
and a worker function and provides, on top of forking one child
process per job (at most ``runtime.workers`` alive at once):

* **streaming completion** — results are collected (and cached, and
  reported) as each cell finishes, not in submission order;
* **result caching** — jobs whose fingerprint is already in the cache
  are skipped entirely, which is what makes killed sweeps resumable;
* **per-cell timeouts** — enforced *inside* the worker process via
  ``SIGALRM``, so one wedged simulation cannot stall the whole sweep;
* **bounded retry** — crashed / raising / timed-out cells are
  re-submitted up to ``retries`` times before being reported as failed;
* **partial results** — a sweep with one poisoned cell still returns
  the other N−1 results plus a structured error report (and the failure
  is visible in the JSONL run log).

Worker exceptions are converted to data inside the child.  The job and
its worker reach the child through the fork; only the result travels
back, pickled through a pipe.  A child that dies *hard* (segfault,
``os._exit``) before writing its whole result failed its own job
(kind ``"died"``), and no sweep returns or raises with a child alive.
"""

from __future__ import annotations

import gc
import signal
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from .cache import open_cache
from .context import RuntimeContext, resolve
from .jobs import Job
from .progress import ProgressReporter, RunLog

__all__ = ["CellTimeout", "SweepResult", "reclaim_at_boundary", "run_sweep"]


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds its wall-clock budget."""


def _raise_timeout(signum, frame):  # pragma: no cover - exercised in workers
    raise CellTimeout()


class reclaim_at_boundary:
    """Collect the garbage of the unit of work run inside the block.

    A finished job's (or probe's) simulator is a web of reference
    cycles; free it at its boundary, not whenever a later unit's
    allocations trip the collector with two simulators resident.  The
    older-generation counters move whenever the collector ran: a unit
    that never tripped it left too little behind to be worth a full pass.
    (A slotted class, not ``@contextmanager``: the executor enters one
    per job, and a no-op job costs a few microseconds in all.)
    """

    __slots__ = ("_gc_counts",)

    def __enter__(self) -> None:
        self._gc_counts = gc.get_count()[1:]

    def __exit__(self, *exc_info: object) -> None:
        if gc.get_count()[1:] != self._gc_counts:
            gc.collect()


def _invoke(worker: Callable[[Any], Any], payload: Any,
            timeout_s: Optional[float]) -> tuple:
    """Run ``worker(payload)``; never raises — errors become data."""
    start = time.monotonic()
    timer_set = False
    old_handler: Any = None
    with reclaim_at_boundary():
        try:
            if (
                timeout_s
                and timeout_s > 0
                and threading.current_thread() is threading.main_thread()
            ):
                old_handler = signal.signal(signal.SIGALRM, _raise_timeout)
                signal.setitimer(signal.ITIMER_REAL, timeout_s)
                timer_set = True
            value = worker(payload)
            return "ok", value, time.monotonic() - start
        except CellTimeout:
            error = {"kind": "timeout", "type": "CellTimeout", "traceback": "",
                     "message": f"cell exceeded its {timeout_s:g}s timeout"}
        except Exception as exc:
            error = _crash(exc, str(exc))
        finally:
            if timer_set:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, old_handler)
    return "error", error, time.monotonic() - start


def _crash(exc: Exception, message: str) -> dict:
    return {"kind": "crash", "type": type(exc).__name__, "message": message,
            "traceback": traceback.format_exc(limit=20)}


@dataclass
class SweepResult:
    """Outcome of a sweep: per-key results, per-key errors, telemetry."""

    results: Dict[Any, Any] = field(default_factory=dict)
    errors: Dict[Any, dict] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def cache_hits(self) -> int:
        return int(self.summary.get("cache_hits") or 0)

    @property
    def cache_misses(self) -> int:
        return int(self.summary.get("cache_misses") or 0)

    def require_ok(self, label: str = "sweep") -> "SweepResult":
        """Raise if any cell failed — for merges that must be complete.

        Sharded fabric runs merge per-shard payloads into one combined
        result; a silently missing shard would produce a *plausible but
        wrong* merge (fewer links, fewer detections), so they insist on
        completeness instead of returning partial data.
        """
        if self.errors:
            failed = ", ".join(
                f"{key}: {info.get('type', 'error')}({info.get('message', '')})"
                for key, info in sorted(self.errors.items(), key=lambda kv: str(kv[0]))
            )
            raise RuntimeError(f"{label} failed for {len(self.errors)} "
                               f"cell(s): {failed}")
        return self


def run_sweep(
    jobs: Sequence[Job],
    worker: Callable[[Any], Any],
    *,
    runtime: Optional[RuntimeContext] = None,
    label: str = "sweep",
) -> SweepResult:
    """Execute ``jobs`` through ``worker`` under ``runtime``'s policy.

    ``worker`` takes ``job.payload`` and returns a JSON-serializable
    result, ``bytes`` allowed (what the result cache can store).  When
    ``runtime.workers > 1`` each job runs in a forked child, so only the
    result must pickle.
    """
    runtime = resolve(runtime)
    cache = open_cache(runtime.cache_dir)
    log = RunLog(runtime.run_log) if runtime.run_log is not None else None
    reporter = ProgressReporter(
        total=len(jobs), label=label, live=runtime.progress, log=log,
        workers=runtime.workers,
    )
    reporter.sweep_started()
    out = SweepResult()

    to_run: list[Job] = []
    for job in jobs:
        cached = cache.get(job.fingerprint)
        if cached is not None:
            out.results[job.key] = cached
            reporter.cell_done(job.key, cached=True, sim_s=job.sim_s)
        else:
            to_run.append(job)

    try:
        if to_run:
            if runtime.parallel:
                _run_parallel(to_run, worker, runtime, cache, reporter, out)
            else:
                _run_serial(to_run, worker, runtime, cache, reporter, out)
    finally:
        out.summary = reporter.sweep_finished()
        if log is not None:
            log.close()
    return out


def _record_ok(job: Job, value: Any, wall_s: float, attempts: int,
               cache, reporter: ProgressReporter, out: SweepResult) -> None:
    out.results[job.key] = value
    try:
        cache.put(job.fingerprint, value)
    except (OSError, TypeError, ValueError):  # cache failure must not kill the sweep
        pass
    metrics = value.get("metrics") if isinstance(value, dict) else None
    reporter.cell_done(job.key, wall_s=wall_s, cached=False,
                       sim_s=job.sim_s, attempts=attempts, metrics=metrics)


def _record_failed(job: Job, errinfo: dict, attempts: int,
                   reporter: ProgressReporter, out: SweepResult) -> None:
    out.errors[job.key] = dict(errinfo, attempts=attempts)
    reporter.cell_failed(job.key, kind=errinfo.get("kind", "crash"),
                         error=errinfo.get("message", ""), attempts=attempts)


def _job_timeout(job: Job, runtime: RuntimeContext) -> Optional[float]:
    return job.timeout_s if job.timeout_s is not None else runtime.timeout_s


def _run_serial(jobs: Sequence[Job], worker, runtime: RuntimeContext,
                cache, reporter: ProgressReporter, out: SweepResult) -> None:
    for job in jobs:
        attempts = 0
        while True:
            attempts += 1
            status, value, wall_s = _invoke(worker, job.payload,
                                            _job_timeout(job, runtime))
            if status == "ok":
                _record_ok(job, value, wall_s, attempts, cache, reporter, out)
                break
            if attempts > runtime.retries:
                _record_failed(job, value, attempts, reporter, out)
                break


def _fork_job(worker, payload: Any, timeout_s: Optional[float]) -> tuple:
    """Fork a child that pipes back one job's pickled ``_invoke``
    outcome and leaves through ``os._exit``; returns ``(read fd, pid)``."""
    import os
    import pickle

    sys.stdout.flush()  # or the child would print the parent's buffer again
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return read_fd, pid
    code = 1
    try:
        os.close(read_fd)
        outcome = _invoke(worker, payload, timeout_s)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # a result that cannot travel back
            data = pickle.dumps(("error", _crash(
                exc, f"result does not pickle: {exc}"), outcome[2]))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _run_parallel(jobs: Sequence[Job], worker, runtime: RuntimeContext,
                  cache, reporter: ProgressReporter, out: SweepResult) -> None:
    import os
    import pickle
    import select

    queue = deque(jobs)
    attempts: Dict[Any, int] = {job.key: 0 for job in jobs}
    #: read fd -> (pid, job, bytes read so far), one per live child.
    children: Dict[int, tuple] = {}
    try:
        while queue or children:
            while queue and len(children) < runtime.workers:
                job = queue.popleft()
                attempts[job.key] += 1
                fd, pid = _fork_job(worker, job.payload, _job_timeout(job, runtime))
                children[fd] = (pid, job, bytearray())
            ready, _, _ = select.select(list(children), [], [])
            for fd in ready:
                pid, job, data = children[fd]
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    data += chunk
                    continue
                del children[fd]
                os.close(fd)
                _, status = os.waitpid(pid, 0)
                try:
                    outcome, value, wall_s = pickle.loads(data)
                except Exception:  # died before writing all of it
                    code = os.waitstatus_to_exitcode(status)
                    how = (f"killed by signal {-code}" if code < 0
                           else f"exited with status {code}")
                    outcome, value = "error", {
                        "kind": "died", "type": "WorkerDied", "traceback": "",
                        "message": f"worker {how} without a complete result"}
                if outcome == "ok":
                    _record_ok(job, value, wall_s, attempts[job.key],
                               cache, reporter, out)
                elif attempts[job.key] <= runtime.retries:
                    queue.append(job)
                else:
                    _record_failed(job, value, attempts[job.key], reporter, out)
    finally:
        for fd, (pid, _, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
