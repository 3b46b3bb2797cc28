"""Congestion guard for partial deployments (§4.3, footnote 2).

In a *full* deployment FANcY never confuses congestion with gray failures:
counters sit after the upstream TM and before the downstream TM (§3), so
TM tail-drops are invisible.  In a *partial* deployment the counting
session spans legacy switches whose TM drops happen between the two
counting points — indistinguishable from a gray failure by counters alone.

The paper's fix: "systematic failures can be distinguished from congestion
even in partial deployments by monitoring queue sizes on all devices, and
discarding all measurements collected during periods where queue sizes
were excessively long."

:class:`QueueGuard` samples queue occupancy on the path's switches;
:class:`GuardedSenderStrategy` wraps any sender strategy and discards the
comparison of every session that overlapped a congested period.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from ..simulator.engine import Simulator
from ..simulator.link import Link
from ..simulator.switch import Switch

__all__ = ["QueueGuard", "GuardedSenderStrategy"]


class QueueGuard:
    """Periodically samples queue lengths along a path.

    Args:
        sim: event engine.
        switches: the devices whose egress queues to watch (the paper
            monitors "queue sizes on all devices").
        threshold_packets: occupancy above which the period counts as
            congested.
        sample_interval_s: sampling period; should be well below the
            counting-session duration.
    """

    def __init__(
        self,
        sim: Simulator,
        switches: Iterable[Switch],
        threshold_packets: int = 50,
        sample_interval_s: float = 0.005,
    ) -> None:
        self.sim = sim
        self.switches = list(switches)
        self.threshold_packets = threshold_packets
        self.sample_interval_s = sample_interval_s
        #: Closed congestion intervals as (start, end) pairs.
        self.congested_intervals: list[tuple[float, float]] = []
        self._congested_since: float | None = None
        self.samples = 0
        self._handle: Any | None = None

    def start(self) -> None:
        self._handle = self.sim.schedule_periodic(
            self.sample_interval_s, self._sample, start_delay=0.0
        )

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._sample_close()

    def _max_queue(self) -> int:
        longest = 0
        for switch in self.switches:
            for link in switch.links.values():
                if isinstance(link, Link):
                    longest = max(longest, link.queue_len)
        return longest

    def _sample(self) -> None:
        self.samples += 1
        congested = self._max_queue() > self.threshold_packets
        now = self.sim.now
        if congested and self._congested_since is None:
            self._congested_since = now
        elif not congested and self._congested_since is not None:
            self.congested_intervals.append((self._congested_since, now))
            self._congested_since = None

    def _sample_close(self) -> None:
        if self._congested_since is not None:
            self.congested_intervals.append((self._congested_since, self.sim.now))
            self._congested_since = None

    def congested_during(self, start: float, end: float) -> bool:
        """Whether any congestion overlapped the window [start, end]."""
        if self._congested_since is not None and self._congested_since <= end:
            return True
        return any(s <= end and e >= start for s, e in self.congested_intervals)

    @property
    def currently_congested(self) -> bool:
        return self._congested_since is not None


class GuardedSenderStrategy:
    """Wraps a sender strategy; discards sessions that saw congestion.

    Implements the same strategy protocol the FSM consumes, so it drops in
    transparently::

        guarded = GuardedSenderStrategy(strategy, guard, sim)
        FancySender(sim, fsm_id, send, guarded, ...)
    """

    def __init__(self, inner: Any, guard: QueueGuard, sim: Simulator) -> None:
        self.inner = inner
        self.guard = guard
        self.sim = sim
        self._session_start = 0.0
        self.sessions_discarded = 0

    def begin_session(self, session_id: int) -> None:
        self._session_start = self.sim.now
        self.inner.begin_session(session_id)

    def process_packet(self, packet: Any, session_id: int,
                       entry: Any = None) -> bool:
        return self.inner.process_packet(packet, session_id, entry)

    def end_session(self, remote: Any, session_id: int) -> Any:
        if self.guard.congested_during(self._session_start, self.sim.now):
            # Measurements from congested periods are untrustworthy in a
            # partial deployment: drop them instead of raising alarms.
            self.sessions_discarded += 1
            return []
        return self.inner.end_session(remote, session_id)

    def __getattr__(self, name: str) -> Any:
        # Delegate introspection (flags, counters, ...) to the inner
        # strategy so monitors/tests can reach through the guard.
        return getattr(self.inner, name)
