"""Discrete-event simulation engine.

This module is the foundation of the packet-level simulator that stands in
for ns-3 in this reproduction.  It provides a binary-heap event queue with
a monotonically increasing simulated clock, cancellable timers, and a few
convenience helpers (periodic events, run-until predicates).

Events scheduled for the same timestamp fire in FIFO order, which the
protocol state machines rely on for determinism.

Fast path: the engine keeps the uninstrumented dispatch a bare
``callback(*args)``.  ``run()`` inlines the heap pop (no ``peek_time`` /
``step`` double traversal) and the heap entry *is* the handle: an
:class:`EventHandle` is a ``list`` subclass laid out ``[time, seq,
callback, args, owner]``, so scheduling allocates one object in C (no
Python ``__init__`` frame, no wrapping tuple) and every sift comparison
is a C-level list compare that resolves on ``(time, seq)`` — ``seq`` is
unique — before ever reaching the callback.  The heap is compacted in
place whenever more than half of its entries are cancelled handles: TCP
retransmission timers cancel and re-arm on every ACK, which otherwise
pins tens of thousands of dead handles in the heap of a long
experiment.  See ``docs/PERFORMANCE.md`` for the measurement
methodology.

Telemetry: pass a :class:`repro.telemetry.Telemetry` session to observe
the event loop — ``sim_events_total`` (the registry reads
:class:`EngineStats`), the ``sim_queue_depth`` gauge, set inline, and
(with ``profile=True`` on the session) a per-callback wall-time
histogram ``sim_callback_seconds{callback=...}`` for hotspot profiling
via :func:`repro.telemetry.hotspots`.  Unobserved, the cost is one check.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from collections.abc import Callable
from typing import Any

__all__ = ["EngineStats", "EventHandle", "Simulator", "SimulationError"]

#: Compaction trigger: at least this many cancelled handles *and* more
#: than half the heap dead.  Small heaps are cheap to scan anyway.
_COMPACT_MIN_CANCELLED = 512


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. scheduling in the past)."""


class EngineStats:
    """What the engine counts: the registry reads ``sim_events_total`` here."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events = 0


class EventHandle(list[Any]):
    """A scheduled event: the heap entry itself, usable to cancel it.

    Layout ``[time, seq, callback, args, owner]``.  ``callback`` is
    ``None`` once cancelled; ``owner`` is the scheduling simulator (it
    accounts cancelled-but-pinned entries for heap compaction) or
    ``None`` for detached proxy handles.  The class defines no rich
    comparison on purpose: ordering must stay the inherited C-level
    list compare the heap relies on.
    """

    __slots__ = ()

    @property
    def args(self) -> tuple[Any, ...]:
        args: tuple[Any, ...] = self[3]
        return args

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if self[2] is not None:
            # Drop references so cancelled events do not pin objects in
            # memory while they remain in the heap.
            self[2] = None
            self[3] = ()
            owner = self[4]
            if owner is not None:
                owner._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[2] is None else "pending"
        return f"EventHandle(t={self[0]:.9f}, seq={self[1]}, {state})"


def _noop(*_args: Any) -> None:
    return None


class _PeriodicHandle(EventHandle):
    """What :meth:`Simulator.schedule_periodic` returns: a detached proxy
    (never in the heap) whose ``cancel()`` stops the chain whichever
    occurrence is pending.  ``_cell`` is the chain's one-element list
    holding the live occurrence's handle."""

    __slots__ = ("_cell",)
    _cell: list[EventHandle]

    def cancel(self) -> None:  # noqa: D102 - same contract as base
        self._cell[0].cancel()
        self[2] = None


def _callback_name(callback: Callable[..., Any]) -> str:
    """Stable human-readable label for a profiled callback."""
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:  # partials, callables
        qualname = type(callback).__name__
    module = getattr(callback, "__module__", "") or ""
    short_module = module.rsplit(".", 1)[-1] if module else ""
    return f"{short_module}.{qualname}" if short_module else qualname


class Simulator:
    """A discrete-event simulator with a cancellable timer wheel.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second in"))
        sim.run(until=10.0)

    The clock unit is seconds (floats).  The engine guarantees that events
    fire in non-decreasing time order and, for equal timestamps, in the
    order they were scheduled.
    """

    def __init__(self, telemetry: Any | None = None) -> None:
        #: Binary heap of :class:`EventHandle` entries; see module docstring.
        self._queue: list[EventHandle] = []
        self._seq = itertools.count()
        #: Current simulated time in seconds.  A plain attribute — it is
        #: read more than once per event — that only the engine writes.
        self.now = 0.0
        self._running = False
        self._stopped = False
        self.stats = EngineStats()
        #: Cancelled handles still sitting in the heap (compaction trigger).
        self._cancelled = 0
        #: Heap compactions performed (observability / tests).
        self.compactions = 0
        self._telemetry: Any | None = None
        self._profile = False
        self._m_depth: Any = None
        #: Memoized per-callback profile histograms, keyed by label.
        self._profile_hists: dict[str, Any] = {}
        if telemetry is not None:
            self.bind_telemetry(telemetry)

    def bind_telemetry(self, telemetry: Any) -> None:
        """Attach a telemetry session (pre-binds the hot-path instruments).

        Bind before calling :meth:`run`: the run loop snapshots the
        telemetry binding once on entry for speed.
        """
        self._telemetry = telemetry
        self._profile = bool(getattr(telemetry, "profile", False))
        self._profile_hists = {}
        metrics = telemetry.metrics
        metrics.read("sim_events_total", "Events processed by the discrete-event engine",
                     self.stats, "events")
        self._m_depth = metrics.gauge(
            "sim_queue_depth", "Pending events in the engine's binary heap")

    @property
    def events_processed(self) -> int:
        """Events dispatched since construction or the last :meth:`reset`."""
        return self.stats.events

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        The body mirrors :meth:`schedule_at` rather than delegating to
        it: this is the most frequently called engine entry point, and
        the extra frame is measurable at packet rates.
        """
        if not (delay >= 0):  # also rejects NaN, which would break heap order
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        handle = EventHandle((self.now + delay, next(self._seq), callback, args, self))
        heapq.heappush(self._queue, handle)
        if (self._cancelled > _COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._queue)):
            self.compact()
        return handle

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute simulated ``time``."""
        if not (time >= self.now):  # also rejects NaN, which would break heap order
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        handle = EventHandle((time, next(self._seq), callback, args, self))
        heapq.heappush(self._queue, handle)
        if (self._cancelled > _COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._queue)):
            self.compact()
        return handle

    def compact(self) -> int:
        """Drop cancelled handles from the heap (in place) and re-heapify.

        Returns the number of handles removed.  Called automatically from
        :meth:`schedule_at` when more than half the heap is dead; safe to
        call manually at any point (including from within a running
        simulation — the heap list identity is preserved).
        """
        queue = self._queue
        before = len(queue)
        live = [entry for entry in queue if entry[2] is not None]
        queue[:] = live
        heapq.heapify(queue)
        self._cancelled = 0
        removed = before - len(live)
        if removed:
            self.compactions += 1
        return removed

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: float | None = None,
    ) -> EventHandle:
        """Schedule ``callback`` every ``interval`` seconds until cancelled.

        Returns the handle of the *next* pending occurrence; cancelling it
        stops the whole periodic chain because each firing checks the shared
        cell before rescheduling.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        cell: list[EventHandle] = []

        def fire() -> None:
            callback(*args)
            if not cell[0].cancelled:
                cell[0] = self.schedule(interval, fire)
                handle_proxy[0] = cell[0][0]

        first = self.schedule(start_delay if start_delay is not None else interval, fire)
        cell.append(first)
        handle_proxy = _PeriodicHandle((first[0], first[1], _noop, (), None))
        handle_proxy._cell = cell
        return handle_proxy

    def peek_time(self) -> float | None:
        """Return the timestamp of the next pending event, or ``None`` if idle."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
            self._cancelled -= 1
        if not queue:
            return None
        time: float = queue[0][0]
        return time

    def step(self) -> bool:
        """Process the single next event.  Returns False when queue is empty."""
        queue = self._queue
        while queue:
            handle = heapq.heappop(queue)
            callback = handle[2]
            if callback is None:
                self._cancelled -= 1
                continue
            self.now = handle[0]
            if self._profile:
                self._dispatch_profiled(callback, handle[3])
            else:
                callback(*handle[3])
            if self._m_depth is not None:
                self._m_depth.set(len(queue))
            self.stats.events += 1
            return True
        return False

    def _dispatch_profiled(self, callback: Callable[..., Any],
                           args: tuple[Any, ...]) -> None:
        """Run one callback under the wall clock (``profile=True``) into
        its histogram, created once per label: the registry lookup must
        stay off the per-event path (FCY009)."""
        started = _time.perf_counter()
        callback(*args)
        elapsed = _time.perf_counter() - started
        label = _callback_name(callback)
        hist = self._profile_hists.get(label)
        if hist is None:
            assert self._telemetry is not None
            hist = self._profile_hists[label] = self._telemetry.metrics.histogram(
                "sim_callback_seconds",
                "Wall-clock seconds spent inside one event callback",
                start=1e-7, base=10.0, n_buckets=8, callback=label)
        hist.observe(elapsed)

    def run(self, until: float | None = None) -> None:
        """Run events until the queue drains or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return even if the queue drained earlier, so that measurements
        taken "at the end of the experiment" see a consistent timestamp.

        The uninstrumented loop is inlined: one heap pop per event (no
        peek, no ``peek_time``/``step`` double traversal) and a bare
        ``callback(*args)`` dispatch.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until != until:  # NaN compares false with every event time
            raise SimulationError(f"cannot run until t={until}")
        self._running = True
        self._stopped = False
        queue = self._queue  # compact() preserves the list identity
        pop = heapq.heappop
        # Decided once, not per event: is the loop bounded, is it observed.
        limit = float("inf") if until is None else until
        depth = self._m_depth
        profiled = self._profile
        stats = self.stats
        try:
            while queue and not self._stopped:
                handle = pop(queue)
                callback = handle[2]
                if callback is None:
                    self._cancelled -= 1
                    continue
                when = handle[0]
                if when > limit:
                    # Not due (once per run): back it goes — pop order is
                    # (time, seq), whatever shape the heap is in.
                    heapq.heappush(queue, handle)
                    break
                self.now = when
                if depth is None:
                    callback(*handle[3])
                else:
                    if profiled:
                        self._dispatch_profiled(callback, handle[3])
                    else:
                        callback(*handle[3])
                    depth.set(len(queue))
                stats.events += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop a ``run()`` in progress after the current event completes."""
        self._stopped = True

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Also rewinds the event sequence counter, so same-timestamp
        tie-break order (and hence traces) after a reset is identical to
        a freshly constructed simulator.
        """
        self._queue.clear()
        self._seq = itertools.count()
        self.now = 0.0
        self._stopped = False
        self._cancelled = 0
        # A fresh holder, registered beside the old one: ``sim_events_total``
        # never runs backwards.
        self.stats = EngineStats()
        if self._telemetry is not None:
            self.bind_telemetry(self._telemetry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={len(self._queue)})"
