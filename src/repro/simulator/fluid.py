"""Fluid background-traffic model (the hybrid fluid/packet fast path).

FANcY's counting protocol never inspects a background packet beyond its
entry: dedicated counters and the hash tree consume per-entry *counts*
at session boundaries (§4.1–§4.3).  For open-loop background UDP this
makes the per-packet event stream pure simulator overhead — the stream
is fully determined by the jitter RNG, so its contribution to every
counter exchange can be computed in closed form when the counting
window closes, instead of a full event-pipeline traversal per hop.

:class:`FluidFlow` describes one constant-bit-rate flow with the exact
parameters of :class:`~repro.simulator.udp.UdpSource`.  Each flow has
one :class:`_EmissionLog`: the source's emission recurrence
(``t = t + interval * (lo + span * rng.random())``) with an identical
jitter RNG, run once per emission however many monitors the flow
crosses.  Each monitor reads it through an
:class:`_EmissionCursor`, an index into the log: a window's count is a
bisection on the monitor's arrival instant, so the *sent* counts a
monitor would have observed are bit-identical to the packet model by
construction.  Arrival at the monitor adds the flow's per-hop delay
chain in the same left-to-right float association order the link
pipeline uses (instant links deliver at ``now + delay_s`` per hop), so
on uncontended/instant paths window membership is exact too.

Received counts subtract seeded binomial loss draws per activation
segment of the monitored link's gray-failure model: exact (no RNG) for
loss rates 0 and 1, statistically matched otherwise — the contract the
equivalence suite and docs/PERFORMANCE.md spell out.  Protocol/control,
TCP, and flagged-entry traffic stay discrete: a fluid flow whose entry
gets flagged is handed back to the discrete plane (its counts stop, as
they would once the rerouting application moves the traffic away).

Experiments choose this model where they configure traffic
(``FabricExpConfig(fluid=True)``; the serve soak's flows are always
fluid), and :meth:`repro.fabric.deployment.FabricDeployment.bind_fluid`
binds the flows to every monitor whose link they cross.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import repeat, starmap
from typing import Any

from ..runtime.jobs import stable_seed
from .failures import (
    CompositeFailure,
    ControlPlaneFailure,
    EntryLossFailure,
    GrayFailure,
    IntermittentFailure,
    UniformLossFailure,
)

__all__ = [
    "FluidFlow",
    "FluidModelError",
    "FluidTraffic",
    "binomial",
    "loss_profile",
]


class FluidModelError(ValueError):
    """A link loss model the fluid abstraction cannot represent.

    Raised loudly instead of silently mis-modelling losses: a fluid run
    must either match the packet model's loss statistics or refuse.
    """


@dataclass(frozen=True)
class FluidFlow:
    """One constant-bit-rate background flow.

    Mirrors the :class:`~repro.simulator.udp.UdpSource` parameters
    exactly — a fluid flow and a packet source constructed from the same
    fields emit packets at bit-identical instants.
    """

    entry: Any
    flow_id: int
    rate_bps: float
    packet_size: int = 1500
    jitter: float = 0.0
    seed: int = 0
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("fluid flow rate must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    @property
    def interval_s(self) -> float:
        return self.packet_size * 8 / self.rate_bps


#: Emissions a log generates per step.
_CHUNK = 256
#: A cursor this many emissions behind its log's end stops pinning the
#: log: it is forked onto a private log that starts at its position.
_MAX_LAG = 2048


class _EmissionLog:
    """One flow's emission instants, generated once for all its cursors.

    The recurrence is UdpSource's, verbatim: the first packet departs at
    ``start_s`` and each next at ``t = t + interval * (lo + span * u)``
    with ``u`` drawn from ``random.Random(seed)`` — same seed, same draw
    order, same float association, so the instants are bit-identical to
    the packet model's.  It runs one chunk at a time, only as far as the
    leading cursor asks.

    ``times`` is a fixed ``array('d')`` buffer: emissions ``base``,
    ``base + 1``, ... fill ``times[:size]``.  When a chunk does not fit,
    what some cursor still needs moves to the front in place; the buffer
    doubles only if that alone leaves no room, so the log's memory does
    not churn.  A cursor more than ``_MAX_LAG`` emissions behind (its
    entry flagged, its tier skipping it) moves onto a private log that
    starts at its position, replaying the seed's stream up to it, so a
    stalled cursor never pins this one.
    """

    __slots__ = ("flow", "times", "size", "base", "cursors", "_t", "_rng",
                 "_interval")

    def __init__(self, flow: FluidFlow, index: int = 0,
                 t: float | None = None) -> None:
        self.flow = flow
        self.times = array("d", bytes(16 * _CHUNK))
        self.size = 0
        #: Absolute emission index of ``times[0]``.
        self.base = index
        self.cursors: list[_EmissionCursor] = []
        #: Instant of the first emission not yet logged; the next jitter
        #: draw is its gap.
        self._t = flow.start_s if t is None else t
        self._rng = None
        if flow.jitter:
            self._rng = random.Random(flow.seed)
            # One draw per emission before ``index``.
            deque(starmap(self._rng.random, repeat((), index)), 0)
        self._interval = flow.interval_s

    def extend(self, cursor: _EmissionCursor, until: float) -> bool:
        """Log one more chunk, if every logged emission arrives at
        ``cursor`` before ``until`` (so only the other cursors can still
        need one); return whether it did."""
        times = self.times
        size = self.size
        arrival = times[size - 1] if size else -math.inf
        for leg in cursor.legs:
            arrival = arrival + leg
        if not arrival < until:  # not ``>=``: a NaN must log nothing
            return False
        end = self.base + size
        keep = end
        lagging = []
        for other in self.cursors:
            if other is not cursor:
                if other.pos < end - _MAX_LAG:
                    lagging.append(other)
                elif other.pos < keep:
                    keep = other.pos
        for other in lagging:
            self._fork(other)
        if size + _CHUNK > len(times):
            cut = keep - self.base
            size = end - keep
            times[:size] = times[cut:cut + size]
            self.base = keep
            if size + _CHUNK > len(times):
                times.frombytes(bytes(8 * len(times)))
        jitter = self.flow.jitter
        lo, span = 1.0 - jitter, 2.0 * jitter
        rng = self._rng
        t = self._t
        interval = self._interval
        for i in range(size, size + _CHUNK):
            times[i] = t
            if rng is None:
                t = t + interval
            else:
                # The flow's one jitter draw per emission, identical order
                # to UdpSource._next_gap, shared by every monitor on its
                # path: what keeps sent counts bit-identical.
                t = t + interval * (lo + span * rng.random())  # fancylint: disable=FCY010
        self._t = t
        self.size = size + _CHUNK
        return True

    def _fork(self, cursor: _EmissionCursor) -> None:
        """Move a stalled ``cursor`` onto a private log at its position,
        where it stays: its counts stay exact, at the cost of replaying
        the flow on its own."""
        pos = cursor.pos
        private = _EmissionLog(self.flow, pos, self.times[pos - self.base])
        self.cursors.remove(cursor)
        private.cursors.append(cursor)
        cursor.log = private


class _EmissionCursor:
    """One monitor's position in a flow's emission log.

    ``flow`` is the flow it counts; ``pos`` is the absolute index of the
    first emission not yet counted; ``legs`` is the per-hop delay chain
    host → monitor egress, applied forward in the same left-to-right
    order the link pipeline adds them (instant links deliver at
    ``now + delay_s``) — never inverted, so the window-boundary
    comparison is the discrete one exactly.  A cursor
    joins its log before the log first trims: every monitor binds before
    the run starts.
    """

    __slots__ = ("flow", "log", "legs", "lead", "pos", "emitted")

    def __init__(self, flow: FluidFlow, legs: tuple[float, ...] = (),
                 log: _EmissionLog | None = None) -> None:
        self.flow = flow
        self.log = log if log is not None else _EmissionLog(flow)
        if self.log.base:
            raise ValueError("bind fluid flows before their log trims")
        self.log.cursors.append(self)
        self.legs = legs
        #: ``sum(legs)``: only to aim the bisection.
        self.lead = sum(legs)
        self.pos = 0
        self.emitted = 0

    def advance(self, until: float) -> int:
        """Count emissions *arriving* strictly before ``until``; pass them.

        A bisection over the log on ``until - sum(legs)``, then the exact
        left fold ``t + leg₁ + leg₂ …`` on the neighbours it lands between:
        the fold is monotone in ``t``, so the first emission whose fold is
        not below ``until`` is where a one-by-one scan would stop.
        """
        log = self.log
        times = log.times
        legs = self.legs
        base = log.base
        k = lo = self.pos - base
        aim = until - self.lead
        while True:
            n = log.size
            k = bisect_left(times, aim, k, n)
            while k < n:
                arrival = times[k]
                for leg in legs:
                    arrival = arrival + leg
                if not arrival < until:  # not ``>=``: a NaN must end the loop
                    break
                k += 1
            if k < n:
                break
            end = base + n
            if not log.extend(self, until):
                break  # the last one does not arrive before ``until`` after all
            # Every emission before ``end`` arrives before ``until``.
            base = log.base
            k = lo = end - base
        while k > lo:
            arrival = times[k - 1]
            for leg in legs:
                arrival = arrival + leg
            if arrival < until:
                break
            k -= 1
        n = base + k - self.pos
        self.pos = base + k
        self.emitted += n
        return n


# --------------------------------------------------------------------------
# loss profiles: gray-failure models as piecewise-constant drop rates
# --------------------------------------------------------------------------


class _LossProfile:
    """Piecewise-constant drop probability for one entry on one link."""

    def segments(self, entry: Any, lo: float, hi: float) -> list[tuple[float, float, float]]:
        """Disjoint ``(start, end, p_drop)`` segments within ``[lo, hi)``."""
        raise NotImplementedError


class _NullProfile(_LossProfile):
    def segments(self, entry: Any, lo: float, hi: float) -> list[tuple[float, float, float]]:
        return []


class _WindowProfile(_LossProfile):
    """A plain activation-window failure (entry or uniform loss)."""

    def __init__(self, start: float, end: float, rate: float,
                 entries: frozenset[Any] | None) -> None:
        self._start = start
        self._end = end
        self._rate = rate
        self._entries = entries  # None: affects every entry

    def segments(self, entry: Any, lo: float, hi: float) -> list[tuple[float, float, float]]:
        if self._entries is not None and entry not in self._entries:
            return []
        a = max(lo, self._start)
        b = min(hi, self._end)
        if a >= b or self._rate <= 0.0:
            return []
        return [(a, b, self._rate)]


class _IntermittentProfile(_LossProfile):
    """Duty-cycled wrapper: inner segments clipped to the on-windows."""

    def __init__(self, inner: _LossProfile, period_s: float,
                 on_fraction: float, phase_s: float) -> None:
        self._inner = inner
        self._period = period_s
        self._on = period_s * on_fraction
        self._phase = phase_s

    def segments(self, entry: Any, lo: float, hi: float) -> list[tuple[float, float, float]]:
        out: list[tuple[float, float, float]] = []
        first = math.floor((lo - self._phase) / self._period)
        k = first
        while True:
            on_lo = self._phase + k * self._period
            on_hi = on_lo + self._on
            if on_lo >= hi:
                break
            a, b = max(lo, on_lo), min(hi, on_hi)
            if a < b:
                out.extend(self._inner.segments(entry, a, b))
            k += 1
        return out


class _CompositeProfile(_LossProfile):
    """Independent components compose by survival probability."""

    def __init__(self, parts: list[_LossProfile]) -> None:
        self._parts = parts

    def segments(self, entry: Any, lo: float, hi: float) -> list[tuple[float, float, float]]:
        raw: list[tuple[float, float, float]] = []
        for part in self._parts:
            raw.extend(part.segments(entry, lo, hi))
        if len(raw) <= 1:
            return raw
        # Flatten overlaps into elementary intervals; a packet survives a
        # stack of independent Bernoulli drops with prod(1 - p_k).
        points = sorted({p for a, b, _ in raw for p in (a, b)})
        out: list[tuple[float, float, float]] = []
        for a, b in zip(points, points[1:]):
            survive = 1.0
            for sa, sb, p in raw:
                if sa <= a and b <= sb:
                    survive *= 1.0 - p
            p_drop = 1.0 - survive
            if p_drop > 0.0:
                out.append((a, b, p_drop))
        return out


def loss_profile(model: Any) -> _LossProfile:
    """Interpret a link ``loss_model`` as a fluid loss profile.

    Supports the stationary gray-failure classes whose drop decision
    depends only on the entry and the activation window.  Anything whose
    decision needs the concrete packet (property predicates, control
    filters with ``affect_control``, arbitrary callables) raises
    :class:`FluidModelError` — those links must carry discrete traffic.
    """
    if model is None:
        return _NullProfile()
    if isinstance(model, EntryLossFailure):
        return _WindowProfile(model.start_time,
                              math.inf if model.end_time is None else model.end_time,
                              model.loss_rate, model.entries)
    if isinstance(model, UniformLossFailure):
        return _WindowProfile(model.start_time,
                              math.inf if model.end_time is None else model.end_time,
                              model.loss_rate, None)
    if isinstance(model, ControlPlaneFailure):
        # Control-plane loss never touches data packets (its ``matches``
        # rejects everything non-control), so fluid *data* flows cross it
        # loss-free — the control messages themselves stay discrete and
        # feel the failure on the wire.
        return _NullProfile()
    if isinstance(model, IntermittentFailure):
        return _IntermittentProfile(loss_profile(model.inner), model.period_s,
                                    model.on_fraction, model.phase_s)
    if isinstance(model, CompositeFailure):
        return _CompositeProfile([loss_profile(f) for f in model.failures])
    if isinstance(model, GrayFailure):
        raise FluidModelError(
            f"loss model {type(model).__name__} depends on per-packet "
            "properties; fluid flows cannot cross it — keep that link's "
            "traffic discrete")
    raise FluidModelError(
        f"unrecognized loss model {type(model).__name__}; fluid flows "
        "require a gray-failure model from repro.simulator.failures")


def binomial(rng: random.Random, n: int, p: float) -> int:
    """Seeded binomial draw: exact for small ``n``, normal approx beyond.

    Loss rates 0 and 1 never touch the RNG, so the dedicated-counter
    exchanges of a total-blackhole failure are *exact*, not sampled —
    the "exact vs statistically matched" boundary docs/PERFORMANCE.md
    documents.
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n <= 64:
        # Per-packet Bernoulli draws, deliberately: at these counts the
        # exact distribution is cheap and matches the packet model's
        # loss statistics draw-for-draw in expectation.
        k = 0
        for _ in range(n):
            if rng.random() < p:  # fancylint: disable=FCY010
                k += 1
        return k
    mean = n * p
    sigma = math.sqrt(mean * (1.0 - p))
    k = round(rng.gauss(mean, sigma))
    return min(n, max(0, int(k)))


# --------------------------------------------------------------------------
# monitor binding: feed counters at protocol exchange boundaries
# --------------------------------------------------------------------------


class FluidTraffic:
    """Fluid background flows bound to FANcY monitors.

    Flows registered here emit **no simulator events**: each flow's
    emission log is generated lazily, as far as the monitors' counting
    windows have closed, and each bound monitor counts its windows by
    bisection over that log, bulk-feeding the dedicated/tree counter
    stores on both sides of the link.  ``absorbed`` counts the packet
    events the discrete engine never had to process (the benchmark
    harness reports it next to ``Simulator.events_processed`` so
    speedups are attributable).
    """

    def __init__(self, sim: Any = None) -> None:
        self.sim = sim
        self.flows: list[FluidFlow] = []
        #: Packet emissions absorbed into bulk counter updates.
        self.absorbed = 0
        #: Losses drawn from seeded binomials (receiver-side subtraction).
        self.lost = 0
        self._bindings: list[_MonitorBinding] = []
        self._logs: dict[FluidFlow, _EmissionLog] = {}

    def add_flow(self, flow: FluidFlow) -> FluidFlow:
        self.flows.append(flow)
        return flow

    def log_of(self, flow: FluidFlow) -> _EmissionLog:
        """``flow``'s emission log, shared by every monitor it crosses."""
        log = self._logs.get(flow)
        if log is None:
            log = self._logs[flow] = _EmissionLog(flow)
        return log

    def bind_monitor(
        self,
        monitor: Any,
        flows: list[FluidFlow],
        legs: tuple[float, ...],
        loss_model: Any = None,
        loss_seed: int = 0,
    ) -> None:
        """Attach ``flows`` to one link monitor's counting windows.

        Args:
            monitor: a :class:`~repro.core.detector.FancyLinkMonitor`.
            flows: the fluid flows whose path crosses the monitored link.
            legs: per-hop delay chain from the flows' source host to the
                monitor's egress (one entry per link crossed *before* the
                monitored one).
            loss_model: the monitored link's ``loss_model`` (validated
                through :func:`loss_profile` up front, failing loudly on
                unsupported models).
            loss_seed: base seed for the per-window binomial loss draws;
                derive it with ``stable_seed`` so sharded runs replay.
        """
        profile = loss_profile(loss_model)
        self._bindings.append(
            _MonitorBinding(self, monitor, flows, legs, profile, loss_seed))


class _MonitorBinding:
    """Routes window-close callbacks to bulk counter updates."""

    def __init__(self, traffic: FluidTraffic, monitor: Any,
                 flows: list[FluidFlow], legs: tuple[float, ...],
                 profile: _LossProfile, loss_seed: int) -> None:
        self.traffic = traffic
        self.monitor = monitor
        self.profile = profile
        self.loss_seed = loss_seed
        #: One cursor per flow on the flow's shared emission log: every
        #: monitor on a flow's path reads the one jitter recurrence with
        #: its own arrival chain.
        self._cursors = [_EmissionCursor(flow, legs, traffic.log_of(flow))
                         for flow in flows]
        # Tier membership (dedicated vs tree) is decided per window from
        # the monitor's *current* dedicated strategy, not frozen at bind
        # time: entry churn (FancyLinkMonitor.update_entries) legitimately
        # moves entries between tiers mid-run, and each flow's cursor
        # simply continues from wherever its last counted window ended.
        if self._cursors and monitor.dedicated_sender is not None:
            monitor.dedicated_sender.window_taps.append(
                partial(self._window, "dedicated"))
        if self._cursors and monitor.tree_sender is not None:
            monitor.tree_sender.window_taps.append(partial(self._window, "tree"))

    # -- window accounting -------------------------------------------------

    def _window_counts(self, cursor: _EmissionCursor, t0: float, t1: float,
                       tier: str, session_id: int) -> tuple[int, int]:
        """(sent, lost) for one flow in the monitor window ``[t0, t1)``.

        The cursor advances through the window's loss segments in order,
        so each elementary interval's count gets its own binomial draw —
        "seeded binomial loss draws per segment".
        """
        flow = cursor.flow
        # Emissions arriving before the window opened were never counted
        # (counting pauses between sessions, §4.1); skip them, still
        # consuming their jitter draws.
        cursor.advance(t0)
        segments = self.profile.segments(flow.entry, t0, t1)
        sent = 0
        lost = 0
        rng: random.Random | None = None
        cut = t0
        for a, b, p in segments:
            if a > cut:
                sent += cursor.advance(a)
            n = cursor.advance(min(b, t1))
            sent += n
            if n and p > 0.0:
                if p >= 1.0:
                    lost += n
                else:
                    if rng is None:
                        rng = random.Random(stable_seed(
                            self.loss_seed, "fluid-loss", tier,
                            flow.entry, flow.flow_id, session_id))
                    lost += binomial(rng, n, p)
            cut = b
        if cut < t1:
            sent += cursor.advance(t1)
        return sent, lost

    def _window(self, tier: str, t0: float, t1: float,
                session_id: int) -> None:
        """Count one closed ``tier`` window ``[t0, t1)`` on both sides of
        the link: each flow's sent packets upstream, its survivors
        downstream, through the strategies' ``tag_for_entry`` and
        ``absorb`` — the add ``process_packet`` makes per packet."""
        monitor = self.monitor
        dedicated = monitor.dedicated_strategy
        is_dedicated = tier == "dedicated"
        if is_dedicated:
            sender, receiver = dedicated, monitor.dedicated_receiver.strategy
        else:
            sender, receiver = monitor.tree_strategy, monitor.tree_receiver.strategy
        for cursor in self._cursors:
            entry = cursor.flow.entry
            # As on the packet path: an entry with a dedicated counter
            # counts there, every other entry in the tree.
            if (dedicated is not None and entry in dedicated.index) != is_dedicated:
                continue
            if monitor.entry_is_flagged(entry):
                # Flagged entries return to the discrete plane: the
                # rerouting application owns their traffic from here on.
                continue
            sent, lost = self._window_counts(cursor, t0, t1, tier, session_id)
            if not sent:
                continue
            tag = sender.tag_for_entry(entry)
            if tag is None:
                continue  # staged mode, off-frontier: uncounted by design
            sender.absorb(tag, sent)
            receiver.absorb(tag, sent - lost)
            self.traffic.absorbed += sent
            self.traffic.lost += lost
