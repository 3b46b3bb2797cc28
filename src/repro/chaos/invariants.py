"""Soak-harness invariants I1–I6 (docs/ROBUSTNESS.md).

Each checker returns a list of :class:`Violation`; an empty list means
the invariant holds.  Checkers are pure observers — they never mutate
the simulation — and they are deliberately *attributive*: a failure
report is acceptable only if a fault of the right class was active
recently, and a persistent fault is acceptable only if it was reported.
That two-sidedness is what lets the harness catch both regressions that
*miss* failures and regressions that *invent* them (the
``--regression stale-session`` fixture trips the second kind).

The invariants:

* **I1 liveness** — no FSM sits in a timer-driven state without a
  pending timer (a deadlocked FSM can neither detect nor declare).
* **I2 session monotonicity** — sender session ids never regress;
  receiver ids never regress except across an observed receiver restart.
* **I3 attribution (no false flags)** — every loss flag is explained by
  an active loss-class fault scoped to that entry; every LINK_DOWN by an
  active control-affecting fault.
* **I4 eventual detection** — every persistent heavy loss fault is
  flagged on each traffic-bearing entry it covers (or escalated to
  LINK_DOWN when control died too).
* **I5 conservation** — per monitored link, after a full drain:
  ``delivered == tx − dropped_failure − dropped_chaos + dup_scheduled``.
* **I6 corruption integrity** — every delivered corrupted control
  message was rejected by exactly one hardened FSM:
  ``Σ fsm.rejected_corrupt == Σ chaos.corrupted_control_to[fsm]`` over
  the monitor's own FSMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.output import FailureKind, FailureLog
from repro.core.protocol import ReceiverState, SenderState

from .schedule import ATTRIBUTION_SLACK_S, FaultSpec

__all__ = [
    "Violation",
    "SessionTracker",
    "check_liveness",
    "check_attribution",
    "check_detection",
    "check_conservation",
    "check_integrity",
    "LinkInvariantObserver",
]


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which invariant, when, and the evidence."""

    invariant: str  # "I1".."I6"
    time: float
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {"invariant": self.invariant, "time": self.time,
                "detail": self.detail}


def _sender_fsms(monitor: Any) -> list[Any]:
    return [f for f in (monitor.dedicated_sender, monitor.tree_sender)
            if f is not None]


def _receiver_fsms(monitor: Any) -> list[Any]:
    return [f for f in (monitor.dedicated_receiver, monitor.tree_receiver)
            if f is not None]


# -- I1: liveness --------------------------------------------------------------

_SENDER_TIMED = (SenderState.WAIT_ACK, SenderState.COUNTING,
                 SenderState.WAIT_REPORT)


def check_liveness(monitor: Any, now: float) -> list[Violation]:
    """Every timer-driven FSM state must have a pending timer.

    Sender: WAIT_ACK/WAIT_REPORT are kept alive by the RTX timer and
    COUNTING by the session-close timer; IDLE needs nothing and FAILED
    is a terminal state the harness's recovery hook revives.  Receiver:
    only WAIT_TO_SEND is timer-driven (SEND_ACK/COUNTING advance on
    sender activity, which the sender's own timers guarantee).
    """
    out: list[Violation] = []
    for fsm in _sender_fsms(monitor):
        if fsm.state in _SENDER_TIMED and fsm._timer is None:
            out.append(Violation(
                "I1", now,
                f"sender {fsm.fsm_id} deadlocked in {fsm.state.value} "
                f"(session {fsm.session_id}) with no pending timer"))
    for fsm in _receiver_fsms(monitor):
        if fsm.state is ReceiverState.WAIT_TO_SEND and fsm._timer is None:
            out.append(Violation(
                "I1", now,
                f"receiver {fsm.fsm_id} deadlocked in wait_to_send "
                f"(session {fsm.session_id}) with no pending timer"))
    return out


# -- I2: session monotonicity ---------------------------------------------------


class SessionTracker:
    """Checkpoint-to-checkpoint session-id watcher for one monitor.

    Receiver restarts legitimately reset the receiver's session id to
    zero (the receiver persists nothing across a reboot); the tracker
    re-baselines whenever the FSM's ``restarts`` counter advanced since
    the previous checkpoint, and flags every other regression.
    """

    def __init__(self, monitor: Any) -> None:
        self._last: dict[int, tuple[int, int]] = {}
        self._observe(monitor)

    def _observe(self, monitor: Any) -> None:
        for fsm in _sender_fsms(monitor) + _receiver_fsms(monitor):
            self._last[id(fsm)] = (fsm.session_id, fsm.restarts)

    def check(self, monitor: Any, now: float) -> list[Violation]:
        out: list[Violation] = []
        for fsm in _sender_fsms(monitor):
            prev_sid, _prev_restarts = self._last[id(fsm)]
            # Sender ids are monotone even across restarts (persisted epoch).
            if fsm.session_id < prev_sid:
                out.append(Violation(
                    "I2", now,
                    f"sender {fsm.fsm_id} session id regressed "
                    f"{prev_sid} -> {fsm.session_id}"))
        for fsm in _receiver_fsms(monitor):
            prev_sid, prev_restarts = self._last[id(fsm)]
            if fsm.restarts == prev_restarts and fsm.session_id < prev_sid:
                out.append(Violation(
                    "I2", now,
                    f"receiver {fsm.fsm_id} session id regressed "
                    f"{prev_sid} -> {fsm.session_id} without a restart"))
        self._observe(monitor)
        return out


# -- I3: attribution (no false flags) -------------------------------------------

_LOSS_REPORT_KINDS = (FailureKind.DEDICATED_ENTRY, FailureKind.TREE_LEAF,
                      FailureKind.UNIFORM)


def check_attribution(
    log: FailureLog,
    schedule: list[FaultSpec],
    monitor: Any,
    dedicated: list[Any],
    best_effort: list[Any],
    link_id: str,
    since: int = 0,
) -> list[Violation]:
    """Every failure report must be explained by a recently active fault.

    This is the "no false flags" half of the soak: benign chaos —
    reordering, duplication, checksum-detected corruption — must never
    surface as a loss flag, and loss must never surface without a
    loss-class fault scoped to the flagged entry.  ``monitor`` watches
    ``link_id``, and each fault is judged from that link.

    ``since`` makes the check incremental: only reports from that log
    index onward are examined (reports are append-only), so an online
    observer can attribute each checkpoint's new reports as they land
    instead of rescanning the whole log at teardown.
    """
    out: list[Violation] = []
    if since >= len(log.reports):
        # Nothing new to attribute (every supervision tick of a healthy
        # link): skip hashing the covered entries into their leaves.
        return out
    dedicated_set = set(dedicated)
    tree = monitor.tree_strategy.tree if monitor.tree_strategy else None
    leaf_entries: dict[tuple[int, ...], list[Any]] = {}
    if tree is not None:
        for entry in list(dedicated) + list(best_effort):
            leaf_entries.setdefault(tree.hash_path(entry), []).append(entry)
    for report in log.reports[since:]:
        lo, hi = report.time - ATTRIBUTION_SLACK_S, report.time
        if report.kind is FailureKind.LINK_DOWN:
            if not any(s.is_control_class(link_id) and s.active_in(lo, hi)
                       for s in schedule):
                out.append(Violation(
                    "I3", report.time,
                    f"LINK_DOWN from {report.entry} at t={report.time:.3f} "
                    "with no control-affecting fault active in "
                    f"[{lo:.3f}, {hi:.3f}]"))
            continue
        if report.kind not in _LOSS_REPORT_KINDS:
            continue
        if report.kind is FailureKind.DEDICATED_ENTRY:
            candidates = [(report.entry, True)]
        elif report.kind is FailureKind.TREE_LEAF:
            candidates = [(e, False)
                          for e in leaf_entries.get(report.hash_path, [])]
        else:  # UNIFORM: any covered entry justifies it
            candidates = [(e, e in dedicated_set)
                          for e in list(dedicated) + list(best_effort)]
        explained = any(
            s.active_in(lo, hi)
            and s.affects_entry(entry, is_dedicated, link_id)
            for s in schedule
            for entry, is_dedicated in candidates
        )
        if not explained:
            out.append(Violation(
                "I3", report.time,
                f"{report.kind.value} flag for entry={report.entry!r} "
                f"hash_path={report.hash_path} at t={report.time:.3f} with "
                f"no loss-class fault covering it in [{lo:.3f}, {hi:.3f}]"))
    return out


# -- I4: eventual detection -----------------------------------------------------


def check_detection(
    log: FailureLog,
    schedule: list[FaultSpec],
    monitor: Any,
    dedicated: list[Any],
    best_effort: list[Any],
    horizon: float,
    link_id: str,
) -> list[Violation]:
    """Persistent heavy loss on ``link_id`` must be flagged on every
    covered entry.

    ``horizon`` is the instant traffic stopped: a fault only counts as
    persistent if it was still active then (see
    :meth:`FaultSpec.is_persistent`).  Escalation to LINK_DOWN counts as
    detection — a fault schedule may kill the control channel alongside
    the data loss, and declaring the whole link dead is the correct
    (§4.1) answer there.
    """
    out: list[Violation] = []
    link_down = bool(log.by_kind(FailureKind.LINK_DOWN))
    uniform = bool(log.by_kind(FailureKind.UNIFORM))
    tree = monitor.tree_strategy.tree if monitor.tree_strategy else None
    for spec in schedule:
        if not spec.is_persistent(horizon, link_id):
            continue
        if spec.kind == "entry_loss":
            covered = list(spec.params["entries"])
        else:
            covered = list(dedicated) + list(best_effort)
        for entry in covered:
            if monitor.entry_is_flagged(entry):
                continue
            if entry in set(dedicated):
                if log.first_report(FailureKind.DEDICATED_ENTRY, entry):
                    continue
            elif tree is not None and log.first_report(
                    FailureKind.TREE_LEAF,
                    hash_path=tree.hash_path(entry)):
                continue
            if uniform or link_down:
                continue
            out.append(Violation(
                "I4", horizon,
                f"persistent {spec.kind} (rate="
                f"{spec.params.get('rate')}, window={spec.window()}) never "
                f"detected for entry {entry!r}: no flag, no report, no "
                "link-down escalation"))
    return out


# -- I5: conservation -----------------------------------------------------------


def check_conservation(links: list[Any], now: float) -> list[Violation]:
    """Packet conservation per monitored link, after a full drain."""
    out: list[Violation] = []
    for link in links:
        stats = link.stats
        dup = link.chaos.dup_scheduled if link.chaos is not None else 0
        expect = stats.tx_packets - stats.dropped_failure \
            - stats.dropped_chaos + dup
        if stats.delivered != expect:
            out.append(Violation(
                "I5", now,
                f"link {link.name}: delivered={stats.delivered} != "
                f"tx({stats.tx_packets}) - failure({stats.dropped_failure}) "
                f"- chaos({stats.dropped_chaos}) + dup({dup}) = {expect}"))
    return out


# -- I6: corruption integrity ---------------------------------------------------


def check_integrity(monitor: Any, chaos_models: list[Any], now: float,
                    allow_in_flight: bool = False) -> list[Violation]:
    """Delivered corrupted control messages == checksum rejections.

    Only the corruptions addressed to ``monitor``'s own FSMs count: a wire
    two monitors share carries corrupted messages for both.  With
    ``allow_in_flight`` the check relaxes to ``rejected <= corrupted``:
    mid-run, a corrupted message the chaos layer already counted may
    still be sitting in a link's delivery queue, but the FSMs can never
    have rejected *more* than chaos delivered.
    """
    fsms = _sender_fsms(monitor) + _receiver_fsms(monitor)
    rejected = sum(f.control.rejected_corrupt for f in fsms)
    own = {f.fsm_id for f in fsms}
    corrupted = sum(n for m in chaos_models
                    for fsm, n in m.corrupted_control_to.items() if fsm in own)
    broken = rejected > corrupted if allow_in_flight \
        else rejected != corrupted
    if broken:
        return [Violation(
            "I6", now,
            f"corruption accounting mismatch: chaos delivered {corrupted} "
            f"corrupted control messages but the FSMs rejected {rejected} "
            "— either a corrupted message was acted on, or a clean one "
            "was rejected")]
    return []


# -- online supervision ---------------------------------------------------------


class LinkInvariantObserver:
    """Incremental I1–I6 evaluation for one monitored link.

    The teardown-time checkers above scan whole logs and assume a fully
    drained network; this observer re-expresses them as an online
    protocol for the serve supervisor (docs/ROBUSTNESS.md):

    * :meth:`tick` — called between engine events while traffic still
      flows.  Evaluates liveness (I1), session monotonicity (I2), the
      attribution of every report that landed since the previous tick
      (I3, via ``check_attribution(since=...)``) and in-flight-tolerant
      corruption accounting (I6).
    * :meth:`final` — called once after wind-down and drain.  Evaluates
      the tail of I3, eventual detection (I4), full per-link
      conservation (I5) and exact corruption equality (I6).

    Every breach is appended to :attr:`breaches` and reported through
    the optional ``on_breach`` callback (the supervisor uses it to meter
    ``fancy_invariant_breach_total``).
    """

    def __init__(
        self,
        monitor: Any,
        schedule: list[FaultSpec],
        dedicated: list[Any],
        best_effort: list[Any],
        links: list[Any],
        chaos_models: list[Any],
        link_id: str,
        on_breach: Any | None = None,
    ) -> None:
        self.monitor = monitor
        self.schedule = schedule
        self.dedicated = list(dedicated)
        self.best_effort = list(best_effort)
        self.links = list(links)
        self.chaos_models = list(chaos_models)
        self.link_id = link_id
        self.on_breach = on_breach
        self.tracker = SessionTracker(monitor)
        self.breaches: list[Violation] = []
        self._log_pos = 0
        self.ticks = 0

    def update_entries(self, dedicated: list[Any],
                       best_effort: list[Any]) -> None:
        """Track an entry-churn swap so attribution scopes stay correct."""
        self.dedicated = list(dedicated)
        self.best_effort = list(best_effort)

    def _record(self, found: list[Violation]) -> list[Violation]:
        self.breaches.extend(found)
        if self.on_breach is not None:
            for violation in found:
                self.on_breach(self.link_id, violation)
        return found

    def tick(self, now: float) -> list[Violation]:
        """Continuously-valid invariants, evaluated mid-run."""
        self.ticks += 1
        found = check_liveness(self.monitor, now)
        found += self.tracker.check(self.monitor, now)
        found += check_attribution(
            self.monitor.log, self.schedule, self.monitor,
            self.dedicated, self.best_effort, self.link_id,
            since=self._log_pos)
        self._log_pos = len(self.monitor.log.reports)
        found += check_integrity(self.monitor, self.chaos_models, now,
                                 allow_in_flight=True)
        return self._record(found)

    def final(self, now: float, horizon: float) -> list[Violation]:
        """Drain-time invariants, evaluated once after wind-down."""
        found = check_attribution(
            self.monitor.log, self.schedule, self.monitor,
            self.dedicated, self.best_effort, self.link_id,
            since=self._log_pos)
        self._log_pos = len(self.monitor.log.reports)
        found += check_detection(
            self.monitor.log, self.schedule, self.monitor,
            self.dedicated, self.best_effort, horizon, self.link_id)
        found += check_conservation(self.links, now)
        found += check_integrity(self.monitor, self.chaos_models, now)
        return self._record(found)
