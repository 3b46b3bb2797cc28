"""Randomized fault schedules: generation, (de)serialisation, wiring.

A *fault schedule* is a JSON-serialisable list of :class:`FaultSpec` —
the unit the soak harness runs, the shrinker deletes from, and the
reproducer file pins.  :func:`generate_schedule` draws a schedule from a
seed under guardrails that keep every fault inside the envelope the
hardened protocol is *supposed* to survive (e.g. total forward data
displacement stays below the monitor's T_wait, so reordering alone can
never legitimately produce a loss flag); :func:`materialize` turns specs
into live loss models, :class:`~repro.chaos.perturbations.ChaosModel`
instances and scheduled switch restarts on the wires their targets name:
``"forward"`` / ``"reverse"`` on the two-switch soak's link pair,
``"link:A->B"`` (:func:`link_target`) on a fabric.

Determinism contract: every fault gets its own RNG seeded by
``stable_seed(base_seed, "fault", index)``, where ``index`` is the
fault's position in the *original* generated schedule and is stored in
the spec.  Deleting a fault therefore never re-seeds the survivors,
which is what makes greedy schedule shrinking sound.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from typing import Any

from repro.runtime.jobs import stable_seed
from repro.simulator.engine import Simulator
from repro.simulator.failures import (
    CompositeFailure,
    ControlPlaneFailure,
    EntryLossFailure,
    GrayFailure,
    UniformLossFailure,
)
from repro.simulator.link import Link
from repro.simulator.packet import PacketKind

from .perturbations import (
    ChaosModel,
    CorruptField,
    DelaySpike,
    Duplicate,
    LinkFlap,
    Perturbation,
    Reorder,
)

__all__ = [
    "FaultSpec",
    "Materialized",
    "generate_schedule",
    "materialize",
    "LINK_TARGET_PREFIX",
    "link_target",
    "parse_link_target",
    "ATTRIBUTION_SLACK_S",
    "PERSISTENT_MIN_RATE",
]

#: How far back (simulated seconds) an invariant checker looks for a
#: fault that explains a failure report.  Covers the worst-case
#: detection latency of the FSMs: a link-down declaration arrives up to
#: ``sum(min(2**i, cap)) * rtx = 1.15 s`` after the fault's last dropped
#: attempt, plus one tree session.
ATTRIBUTION_SLACK_S = 3.0

#: Minimum loss rate at which an open-ended fault is considered
#: *persistent* — i.e. the eventual-detection invariant requires the
#: detector to flag it (cf. the paper's §5 evaluation floor of 0.1%;
#: the soak keeps a wide margin so detection is deterministic within a
#: few-second horizon).
PERSISTENT_MIN_RATE = 0.25

#: Guardrail: total worst-case displacement (reorder + delay spikes) on
#: forward DATA packets must stay below the monitor's T_wait (0.015 s in
#: the harness), or late tagged packets would miss their session's
#: Report and masquerade as loss.
_FORWARD_DISPLACEMENT_BUDGET_S = 0.012

#: Guardrail: reverse-direction (control) displacement budget.  Kept far
#: below the sender's worst-case patience (~1.5 s of capped-backoff
#: retries), so displacement alone can never exhaust ``max_attempts``.
_REVERSE_DISPLACEMENT_BUDGET_S = 0.300

_LOSS_KINDS = frozenset({"entry_loss", "uniform_loss", "link_flap"})
_CONTROL_KINDS = frozenset({"control_loss", "link_flap", "switch_restart"})

LINK_TARGET_PREFIX = "link:"


def link_target(a: str, b: str) -> str:
    """The ``FaultSpec.target`` string addressing directed fabric link a→b."""
    return f"{LINK_TARGET_PREFIX}{a}->{b}"


def parse_link_target(target: str) -> str | None:
    """``"link:A->B"`` → ``"A->B"``; ``None`` for non-link targets."""
    if target.startswith(LINK_TARGET_PREFIX):
        return target[len(LINK_TARGET_PREFIX):]
    return None


@dataclass
class FaultSpec:
    """One serialisable fault: what, where, when, and its seed index.

    Attributes:
        kind: one of ``entry_loss``, ``uniform_loss``, ``control_loss``,
            ``reorder``, ``duplicate``, ``corrupt``, ``delay_spike``,
            ``link_flap``, ``switch_restart``.
        target: the wire the fault sits on.  On the two-switch soak,
            ``"forward"`` (A→B, the data direction) or ``"reverse"``
            (B→A, ACKs/Reports); on a fabric, a directed link id
            ``"link:A->B"``.  A ``switch_restart`` reboots the monitor
            of its target's link, on ``params["side"]``.
        params: kind-specific parameters (JSON-scalar values only).
        index: position in the originally generated schedule; the fault's
            RNG seed is derived from it and survives shrinking.
    """

    kind: str
    target: str = "forward"
    params: dict[str, Any] = dc_field(default_factory=dict)
    index: int = 0

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "target": self.target,
                "params": dict(self.params), "index": self.index}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultSpec":
        return cls(kind=str(d["kind"]), target=str(d.get("target", "forward")),
                   params=dict(d.get("params", {})),
                   index=int(d.get("index", 0)))

    # -- classification helpers (used by the invariants) ------------------

    def window(self) -> tuple[float, float]:
        """Activation window ``[start, end)`` with ``inf`` for open end."""
        if self.kind == "link_flap":
            windows = self.params["windows"]
            return float(windows[0][0]), float(windows[-1][1])
        if self.kind == "switch_restart":
            t = float(self.params["time"])
            return t, t
        start = float(self.params.get("start", 0.0))
        end = self.params.get("end")
        return start, (float("inf") if end is None else float(end))

    def active_in(self, lo: float, hi: float) -> bool:
        """Whether the fault's window intersects ``[lo, hi]``."""
        start, end = self.window()
        return start <= hi and end >= lo

    def is_loss_class(self) -> bool:
        """Can this fault legitimately cause entry/tree/uniform flags?

        Only faults that remove (or mis-attribute) forward data packets
        qualify; reordering, duplication and benign corruption must
        *never* be blamed for a loss flag — that asymmetry is exactly
        what the attribution invariant checks.
        """
        if self.target != "forward" and self.kind != "switch_restart":
            return False
        if self.kind in _LOSS_KINDS:
            return True
        return self.kind == "corrupt" and self.params.get("field") == "tag"

    def affects_entry(self, entry: Any, dedicated: bool) -> bool:
        """Loss-class scoping: can this fault hit ``entry``'s packets?"""
        if not self.is_loss_class():
            return False
        if self.kind == "entry_loss":
            return entry in self.params["entries"]
        if self.kind == "corrupt":  # tag corruption: dedicated tags only
            return dedicated
        return True  # uniform_loss / link_flap hit everything

    def is_control_class(self) -> bool:
        """Can this fault legitimately cause a LINK_DOWN declaration?"""
        if self.kind in _CONTROL_KINDS:
            return True
        return (self.kind == "corrupt"
                and self.params.get("field") in ("session", "snapshot"))

    def is_persistent(self, horizon: float) -> bool:
        """Open-ended, heavy enough that detection is *required* (I4)."""
        if self.kind not in ("entry_loss", "uniform_loss"):
            return False
        if self.target != "forward":
            return False
        start, end = self.window()
        if end < horizon:
            return False
        if float(self.params.get("rate", 0.0)) < PERSISTENT_MIN_RATE:
            return False
        return start <= horizon - 2.5


def generate_schedule(
    seed: int,
    duration_s: float,
    dedicated: list[Any],
    best_effort: list[Any],
) -> list[FaultSpec]:
    """Draw a guardrailed random fault schedule for one soak run."""
    rng = random.Random(stable_seed(seed, "chaos", "schedule"))
    n_faults = rng.randint(1, 4)
    fwd_budget = _FORWARD_DISPLACEMENT_BUDGET_S
    rev_budget = _REVERSE_DISPLACEMENT_BUDGET_S
    entries = list(dedicated) + list(best_effort)
    kinds = ["entry_loss", "uniform_loss", "control_loss", "reorder",
             "duplicate", "corrupt", "delay_spike", "link_flap",
             "switch_restart"]
    schedule: list[FaultSpec] = []
    for index in range(n_faults):
        kind = rng.choice(kinds)
        spec = _draw_fault(kind, rng, duration_s, entries, dedicated,
                           fwd_budget, rev_budget, index)
        if spec is None:
            continue
        if spec.kind in ("reorder", "delay_spike"):
            cost = float(spec.params.get("max_displacement_s", 0.0)) \
                + float(spec.params.get("spike_s", 0.0)) \
                + float(spec.params.get("jitter_s", 0.0))
            if spec.target == "forward":
                fwd_budget -= cost
            else:
                rev_budget -= cost
        schedule.append(spec)
    if not schedule:  # never emit an empty schedule: re-draw one fault
        spec = _draw_fault("uniform_loss", rng, duration_s, entries,
                           dedicated, fwd_budget, rev_budget, n_faults)
        assert spec is not None
        schedule.append(spec)
    return schedule


def _window_params(rng: random.Random, duration_s: float,
                   allow_persistent: bool) -> dict[str, Any]:
    """A start/end pair: either open-ended or a bounded window."""
    if allow_persistent and rng.random() < 0.5:
        return {"start": round(rng.uniform(0.0, max(duration_s - 2.5, 0.5)), 3),
                "end": None}
    start = round(rng.uniform(0.0, duration_s * 0.6), 3)
    return {"start": start,
            "end": round(start + rng.uniform(0.4, 1.2), 3)}


def _draw_fault(
    kind: str,
    rng: random.Random,
    duration_s: float,
    entries: list[Any],
    dedicated: list[Any],
    fwd_budget: float,
    rev_budget: float,
    index: int,
) -> FaultSpec | None:
    if kind == "entry_loss":
        k = rng.randint(1, max(1, len(entries) // 2))
        chosen = rng.sample(entries, k)
        params = {"entries": chosen,
                  "rate": round(rng.uniform(0.3, 1.0), 3)}
        params.update(_window_params(rng, duration_s, allow_persistent=True))
        return FaultSpec("entry_loss", "forward", params, index)
    if kind == "uniform_loss":
        params = {"rate": round(rng.uniform(0.3, 0.9), 3)}
        params.update(_window_params(rng, duration_s, allow_persistent=True))
        return FaultSpec("uniform_loss", "forward", params, index)
    if kind == "control_loss":
        target = rng.choice(["forward", "reverse"])
        if rng.random() < 0.25:  # dead control channel: LINK_DOWN expected
            params: dict[str, Any] = {"rate": 1.0}
            params.update({"start": round(rng.uniform(0.0, duration_s - 2.5), 3),
                           "end": None})
        else:
            params = {"rate": round(rng.uniform(0.2, 0.6), 3)}
            params.update(_window_params(rng, duration_s,
                                         allow_persistent=False))
        return FaultSpec("control_loss", target, params, index)
    if kind == "reorder":
        target = rng.choice(["forward", "reverse"])
        cap = min(0.005, fwd_budget) if target == "forward" \
            else min(0.15, rev_budget)
        if cap <= 0.0005:
            return None  # displacement budget exhausted
        params = {"rate": round(rng.uniform(0.1, 0.8), 3),
                  "max_displacement_s": round(rng.uniform(0.0005, cap), 5)}
        params.update(_window_params(rng, duration_s, allow_persistent=True))
        return FaultSpec("reorder", target, params, index)
    if kind == "delay_spike":
        target = rng.choice(["forward", "reverse"])
        cap = min(0.004, fwd_budget) if target == "forward" \
            else min(0.1, rev_budget)
        if cap <= 0.0005:
            return None
        spike = round(rng.uniform(0.0005, cap * 0.75), 5)
        params = {"spike_s": spike,
                  "jitter_s": round(rng.uniform(0.0, cap - spike), 5),
                  "rate": round(rng.uniform(0.2, 1.0), 3)}
        params.update(_window_params(rng, duration_s, allow_persistent=False))
        return FaultSpec("delay_spike", target, params, index)
    if kind == "duplicate":
        target = rng.choice(["forward", "reverse"])
        params = {"rate": round(rng.uniform(0.05, 0.3), 3),
                  "copies": rng.randint(1, 2)}
        params.update(_window_params(rng, duration_s, allow_persistent=True))
        return FaultSpec("duplicate", target, params, index)
    if kind == "corrupt":
        field = rng.choice(["seq", "tag", "session", "snapshot"])
        if field == "snapshot":
            target = "reverse"  # Reports travel B→A
        elif field == "session":
            target = rng.choice(["forward", "reverse"])
        else:
            target = "forward"  # data fields ride the data direction
        params = {"field": field, "rate": round(rng.uniform(0.05, 0.5), 3)}
        params.update(_window_params(rng, duration_s, allow_persistent=True))
        return FaultSpec("corrupt", target, params, index)
    if kind == "link_flap":
        target = rng.choice(["forward", "reverse"])
        n = rng.randint(1, 3)
        windows = []
        t = rng.uniform(0.2, duration_s * 0.5)
        for _ in range(n):
            width = rng.uniform(0.05, 0.4)
            windows.append([round(t, 3), round(t + width, 3)])
            t += width + rng.uniform(0.3, 1.0)
        return FaultSpec("link_flap", target, {"windows": windows}, index)
    if kind == "switch_restart":
        params = {"time": round(rng.uniform(0.5, max(duration_s - 1.5, 0.6)), 3),
                  "side": rng.choice(["upstream", "downstream", "both"])}
        return FaultSpec("switch_restart", "forward", params, index)
    raise ValueError(f"unknown fault kind: {kind!r}")  # pragma: no cover


@dataclass
class Materialized:
    """Live objects built from a schedule, keyed by the target they sit on."""

    #: target -> loss models composed on that target's wire.
    losses: dict[str, list[GrayFailure]] = dc_field(default_factory=dict)
    #: target -> the chaos (perturbation) model attached to its wire.
    chaos: dict[str, ChaosModel] = dc_field(default_factory=dict)
    restarts: list[FaultSpec] = dc_field(default_factory=list)

    def chaos_models(self, *links: Link) -> list[ChaosModel]:
        """Chaos models attached to ``links`` (every model if none given)."""
        return [m for m in self.chaos.values() if not links or m.link in links]


#: PacketKind scopes for forward-direction displacement faults: only
#: DATA packets may be displaced on the data direction, so Start/Stop
#: delimiters are never reordered past the tagged packets they bracket
#: (the guarantee the T_wait budget above is computed against).
_FORWARD_DISPLACE_KINDS = (PacketKind.DATA,)


def _is_forward(target: str) -> bool:
    """Whether ``target`` is a data-direction wire: ``"forward"`` on the
    two-switch soak, and every ``"link:A->B"`` on a fabric — the forward
    wire of that link's own monitor, as
    :func:`repro.fabric.chaos.directional_schedule` reads it."""
    return target == "forward" or target.startswith(LINK_TARGET_PREFIX)


def _build_perturbation(spec: FaultSpec, seed: int) -> Perturbation:
    p = spec.params
    start = float(p.get("start", 0.0))
    end = p.get("end")
    end_f = None if end is None else float(end)
    common: dict[str, Any] = {"start_time": start, "end_time": end_f,
                              "seed": seed}
    if spec.kind == "reorder":
        if _is_forward(spec.target):
            common["kinds"] = _FORWARD_DISPLACE_KINDS
        return Reorder(float(p["rate"]), float(p["max_displacement_s"]),
                       **common)
    if spec.kind == "delay_spike":
        if _is_forward(spec.target):
            common["kinds"] = _FORWARD_DISPLACE_KINDS
        return DelaySpike(float(p["spike_s"]), float(p.get("jitter_s", 0.0)),
                          rate=float(p.get("rate", 1.0)), **common)
    if spec.kind == "duplicate":
        return Duplicate(float(p["rate"]), copies=int(p.get("copies", 1)),
                         **common)
    if spec.kind == "corrupt":
        return CorruptField(float(p["rate"]), field=str(p["field"]), **common)
    if spec.kind == "link_flap":
        return LinkFlap([tuple(w) for w in p["windows"]],
                        seed=seed)
    raise ValueError(f"not a perturbation kind: {spec.kind!r}")


def _build_loss(spec: FaultSpec, seed: int) -> GrayFailure:
    p = spec.params
    window = {"start_time": float(p.get("start", 0.0)),
              "end_time": None if p.get("end") is None else float(p["end"]),
              "seed": seed}
    if spec.kind == "entry_loss":
        return EntryLossFailure(p["entries"], float(p["rate"]), **window)
    if spec.kind == "uniform_loss":
        return UniformLossFailure(float(p["rate"]), **window)
    if spec.kind == "control_loss":
        return ControlPlaneFailure(float(p["rate"]), **window)
    raise ValueError(f"not a loss kind: {spec.kind!r}")


def materialize(
    schedule: list[FaultSpec],
    base_seed: int,
    sim: Simulator,
    wires: Mapping[str, Link],
    monitors: Mapping[str, Any],
) -> Materialized:
    """Wire a schedule onto the links its targets name.

    ``wires`` maps every target a spec may carry to the link it impairs;
    ``monitors`` maps a target to the monitor a ``switch_restart`` on it
    reboots.  Loss-model faults compose per wire through
    :class:`~repro.simulator.failures.CompositeFailure` (order-independent
    by design), perturbations through one
    :class:`~repro.chaos.perturbations.ChaosModel` per wire — named after
    the wire its target addresses — and switch restarts become engine
    events calling ``monitor.restart(side)``.
    """
    out = Materialized()
    perts: dict[str, list[Perturbation]] = {}
    for spec in schedule:
        if spec.target not in wires:
            raise KeyError(f"fault target {spec.target!r} names no wire")
        seed = stable_seed(base_seed, "fault", spec.index)
        if spec.kind in ("entry_loss", "uniform_loss", "control_loss"):
            out.losses.setdefault(spec.target, []).append(
                _build_loss(spec, seed))
        elif spec.kind == "switch_restart":
            monitor = monitors.get(spec.target)
            if monitor is None:
                raise ValueError(
                    f"switch_restart targets {spec.target!r}, which has no "
                    "monitor deployed")
            out.restarts.append(spec)
            sim.schedule_at(float(spec.params["time"]), monitor.restart,
                            str(spec.params["side"]))
        else:
            perts.setdefault(spec.target, []).append(
                _build_perturbation(spec, seed))
    for target, link in wires.items():
        if target in out.losses:
            link.loss_model = CompositeFailure(out.losses[target])
        if target in perts:
            out.chaos[target] = ChaosModel(
                perts[target], name=parse_link_target(target) or target,
            ).attach(link)
    return out
