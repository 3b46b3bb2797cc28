"""Randomized fault schedules: generation, (de)serialisation, wiring.

A *fault schedule* is a JSON-serialisable list of :class:`FaultSpec` —
the unit the soak harness runs, the shrinker deletes from, and the
reproducer file pins.  Every fault sits on the directed link its target
``"link:A->B"`` (:func:`link_target`) names, on the two-switch soak too.
:func:`generate_schedule` draws a schedule from a seed over monitored
links, under guardrails that keep every fault inside the envelope the
hardened protocol is *supposed* to survive (e.g. total displacement on
a monitor's data wire stays below its T_wait, so reordering alone can
never legitimately produce a loss flag); :func:`materialize` turns specs
into live loss models, :class:`~repro.chaos.perturbations.ChaosModel`
instances and scheduled switch restarts on a fabric.  On every wire a
reorder or delay spike may move any packet but FANCY_START / FANCY_STOP.

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

from repro.fabric.graph import FabricNetwork
from repro.runtime.jobs import stable_seed
from repro.simulator.failures import (
    CompositeFailure,
    ControlPlaneFailure,
    EntryLossFailure,
    GrayFailure,
    UniformLossFailure,
)
from repro.simulator.link import Link
from repro.simulator.packet import PacketKind

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

#: Guardrail: total worst-case displacement (reorder + delay spikes) per
#: role of a wire.  On a monitor's data wire it must stay below the
#: monitor's T_wait (0.015 s in the harness), or late tagged packets
#: would miss their session's Report and masquerade as loss.  On its
#: control-return wire it is kept far below the sender's worst-case
#: patience (~1.5 s of capped-backoff retries), so displacement alone
#: can never exhaust ``max_attempts``.
_DISPLACEMENT_BUDGET_S = {"data": 0.012, "control": 0.300}

_LOSS_KINDS = frozenset({"entry_loss", "uniform_loss", "link_flap"})
_CONTROL_KINDS = frozenset({"control_loss", "link_flap", "switch_restart"})

#: What a reorder or delay spike may displace, on every wire: all but
#: the FANCY_START / FANCY_STOP delimiters of a counting window (§4.1),
#: the guarantee the data budget above is computed against.
_DISPLACE_KINDS = frozenset(PacketKind) - {PacketKind.FANCY_START,
                                           PacketKind.FANCY_STOP}

LINK_TARGET_PREFIX = "link:"


def link_target(a: str, b: str) -> str:
    """The ``FaultSpec.target`` string addressing directed link a→b."""
    return f"{LINK_TARGET_PREFIX}{a}->{b}"


def parse_link_target(target: str) -> str | None:
    """``"link:A->B"`` → ``"A->B"``; ``None`` for anything else."""
    link_id = target.removeprefix(LINK_TARGET_PREFIX)
    a, _, b = link_id.partition("->")
    return link_id if link_id != target and a and b else None


def _wires(link_id: str) -> tuple[str, str]:
    """Targets of ``link_id``'s own (data) wire and of its reverse, the
    wire its monitor's control messages return on."""
    a, _, b = link_id.partition("->")
    return link_target(a, b), link_target(b, a)


@dataclass
class FaultSpec:
    """One serialisable fault: what, where, when, and its seed index.

    Attributes:
        kind: one of ``entry_loss``, ``uniform_loss``, ``control_loss``,
            ``reorder``, ``duplicate``, ``corrupt``, ``delay_spike``,
            ``link_flap``, ``switch_restart``.
        target: the directed link the fault sits on, ``"link:A->B"``.
            A ``switch_restart`` reboots the monitor of its target's
            link, on ``params["side"]``.
        params: kind-specific parameters (JSON-scalar values only).
        index: position in the originally generated schedule; the fault's
            RNG seed is derived from it and survives shrinking.
    """

    kind: str
    target: str
    params: dict[str, Any] = dc_field(default_factory=dict)
    index: int = 0

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "target": self.target,
                "params": dict(self.params), "index": self.index}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultSpec":
        target = str(d.get("target"))
        if parse_link_target(target) is None:
            raise ValueError(
                f"fault target {target!r} is not a directed link "
                "'link:A->B'")
        return cls(kind=str(d["kind"]), target=target,
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

    def is_loss_class(self, link_id: str) -> bool:
        """Can this fault legitimately cause entry/tree/uniform flags on
        ``link_id``'s monitor?

        Only faults on that link that remove (or mis-attribute) data
        packets qualify; reordering, duplication and benign corruption
        must *never* be blamed for a loss flag — that asymmetry is
        exactly what the attribution invariant checks.
        """
        if self.target != LINK_TARGET_PREFIX + link_id:
            return False
        if self.kind in _LOSS_KINDS:
            return True
        return self.kind == "corrupt" and self.params.get("field") == "tag"

    def affects_entry(self, entry: Any, dedicated: bool,
                      link_id: str) -> bool:
        """Loss-class scoping: can this fault hit ``entry``'s packets on
        ``link_id``?"""
        if not self.is_loss_class(link_id):
            return False
        if self.kind == "entry_loss":
            return entry in self.params["entries"]
        if self.kind == "corrupt":  # tag corruption: dedicated tags only
            return dedicated
        return True  # uniform_loss / link_flap hit everything

    def is_control_class(self, link_id: str) -> bool:
        """Can this fault legitimately cause a LINK_DOWN declaration on
        ``link_id``'s monitor?  It must sit on the link or on its
        reverse, the wire the monitor's control messages return on."""
        if self.target not in _wires(link_id):
            return False
        if self.kind in _CONTROL_KINDS:
            return True
        return (self.kind == "corrupt"
                and self.params.get("field") in ("session", "snapshot"))

    def is_persistent(self, horizon: float, link_id: str) -> bool:
        """Open-ended heavy loss on ``link_id``: detection is *required*
        (I4)."""
        if self.kind not in ("entry_loss", "uniform_loss"):
            return False
        if self.target != LINK_TARGET_PREFIX + link_id:
            return False
        start, end = self.window()
        if end < horizon:
            return False
        if float(self.params.get("rate", 0.0)) < PERSISTENT_MIN_RATE:
            return False
        return start <= horizon - 2.5


def _displacement_s(spec: FaultSpec) -> float:
    """Worst-case displacement a fault adds to a packet on its wire."""
    return sum(float(spec.params.get(key, 0.0))
               for key in ("max_displacement_s", "spike_s", "jitter_s"))


def generate_schedule(
    seed: int,
    duration_s: float,
    dedicated: list[Any],
    best_effort: list[Any],
    link_ids: list[str],
) -> list[FaultSpec]:
    """Draw a guardrailed random fault schedule for one soak run.

    ``link_ids`` are the monitored links the entries cross.  Every fault
    sits on one of them or on its reverse, loss-class faults on the link
    itself.  Displacement is charged per (wire, role): to the data budget
    on a monitor's data wire, to the control budget on a monitor's return
    wire, and to both on a wire with both roles.
    """
    rng = random.Random(stable_seed(seed, "chaos", "schedule"))
    # The link pick has its own stream: ``choice`` draws even from a
    # one-element list, and a one-link schedule must draw as it always did.
    link_rng = random.Random(stable_seed(seed, "chaos", "links"))
    n_faults = rng.randint(1, 4)
    budget: dict[str, dict[str, float]] = {}  # wire -> role -> seconds left
    for link_id in link_ids:
        for wire, role in zip(_wires(link_id), ("data", "control")):
            budget.setdefault(wire, {})[role] = _DISPLACEMENT_BUDGET_S[role]
    entries = list(dedicated) + list(best_effort)
    kinds = ["entry_loss", "uniform_loss", "control_loss", "reorder",
             "duplicate", "corrupt", "delay_spike", "link_flap",
             "switch_restart"]
    schedule: list[FaultSpec] = []
    for index in range(n_faults):
        kind = rng.choice(kinds)
        spec = _draw_fault(kind, rng, duration_s, entries,
                           _wires(link_rng.choice(link_ids)), budget, index)
        if spec is None:
            continue
        left = budget[spec.target]
        for role in left:
            left[role] -= _displacement_s(spec)
        schedule.append(spec)
    if not schedule:  # never emit an empty schedule: re-draw one fault
        spec = _draw_fault("uniform_loss", rng, duration_s, entries,
                           _wires(link_rng.choice(link_ids)), budget,
                           n_faults)
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


def _cap(left: dict[str, float], **caps: float) -> float:
    """One displacement fault's cap on a wire: the kind's cap for each
    role the wire plays, within what that role's budget has ``left``."""
    return min(min(caps[role], s) for role, s in left.items())


def _draw_fault(
    kind: str,
    rng: random.Random,
    duration_s: float,
    entries: list[Any],
    wires: tuple[str, str],
    budget: dict[str, dict[str, float]],
    index: int,
) -> FaultSpec | None:
    data_wire, return_wire = wires
    if kind == "entry_loss":
        k = rng.randint(1, max(1, len(entries) // 2))
        chosen = rng.sample(entries, k)
        params = {"entries": chosen,
                  "rate": round(rng.uniform(0.3, 1.0), 3)}
        params.update(_window_params(rng, duration_s, allow_persistent=True))
        return FaultSpec("entry_loss", data_wire, params, index)
    if kind == "uniform_loss":
        params = {"rate": round(rng.uniform(0.3, 0.9), 3)}
        params.update(_window_params(rng, duration_s, allow_persistent=True))
        return FaultSpec("uniform_loss", data_wire, params, index)
    if kind == "control_loss":
        target = rng.choice(wires)
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
        target = rng.choice(wires)
        cap = _cap(budget[target], data=0.005, control=0.15)
        if cap <= 0.0005:
            return None  # displacement budget exhausted
        params = {"rate": round(rng.uniform(0.1, 0.8), 3),
                  "max_displacement_s": round(rng.uniform(0.0005, cap), 5)}
        params.update(_window_params(rng, duration_s, allow_persistent=True))
        return FaultSpec("reorder", target, params, index)
    if kind == "delay_spike":
        target = rng.choice(wires)
        cap = _cap(budget[target], data=0.004, control=0.1)
        if cap <= 0.0005:
            return None
        spike = round(rng.uniform(0.0005, cap * 0.75), 5)
        params = {"spike_s": spike,
                  "jitter_s": round(rng.uniform(0.0, cap - spike), 5),
                  "rate": round(rng.uniform(0.2, 1.0), 3)}
        params.update(_window_params(rng, duration_s, allow_persistent=False))
        return FaultSpec("delay_spike", target, params, index)
    if kind == "duplicate":
        target = rng.choice(wires)
        params = {"rate": round(rng.uniform(0.05, 0.3), 3),
                  "copies": rng.randint(1, 2)}
        params.update(_window_params(rng, duration_s, allow_persistent=True))
        return FaultSpec("duplicate", target, params, index)
    if kind == "corrupt":
        field = rng.choice(["seq", "tag", "session", "snapshot"])
        if field == "snapshot":
            target = return_wire  # Reports travel back
        elif field == "session":
            target = rng.choice(wires)
        else:
            target = data_wire  # data fields ride the data wire
        params = {"field": field, "rate": round(rng.uniform(0.05, 0.5), 3)}
        params.update(_window_params(rng, duration_s, allow_persistent=True))
        return FaultSpec("corrupt", target, params, index)
    if kind == "link_flap":
        target = rng.choice(wires)
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
        return FaultSpec("switch_restart", data_wire, params, index)
    raise ValueError(f"unknown fault kind: {kind!r}")  # pragma: no cover


@dataclass
class Materialized:
    """Live objects built from a schedule, keyed by the link they sit on."""

    #: link id -> loss models composed on that link.
    losses: dict[str, list[GrayFailure]] = dc_field(default_factory=dict)
    #: link id -> the :class:`~repro.chaos.perturbations.ChaosModel`
    #: attached to that link (``Any``: a schedule of loss faults alone
    #: never loads the perturbation models).
    chaos: dict[str, Any] = dc_field(default_factory=dict)
    restarts: list[FaultSpec] = dc_field(default_factory=list)

    def chaos_models(self, *links: Link) -> list[Any]:
        """Chaos models attached to ``links`` (every model if none given)."""
        return [m for m in self.chaos.values() if not links or m.link in links]


def _build_perturbation(spec: FaultSpec, seed: int) -> Any:
    from .perturbations import (CorruptField, DelaySpike, Duplicate, LinkFlap,
                                Reorder)

    p = spec.params
    start = float(p.get("start", 0.0))
    end = p.get("end")
    end_f = None if end is None else float(end)
    common: dict[str, Any] = {"start_time": start, "end_time": end_f,
                              "seed": seed}
    if spec.kind == "reorder":
        return Reorder(float(p["rate"]), float(p["max_displacement_s"]),
                       kinds=_DISPLACE_KINDS, **common)
    if spec.kind == "delay_spike":
        return DelaySpike(float(p["spike_s"]), float(p.get("jitter_s", 0.0)),
                          rate=float(p.get("rate", 1.0)),
                          kinds=_DISPLACE_KINDS, **common)
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
    net: FabricNetwork,
    monitors: Mapping[str, Any],
) -> Materialized:
    """Wire a schedule onto the links of ``net`` its targets name.

    ``monitors`` maps a link id to the monitor deployed on it, the one a
    ``switch_restart`` on that link reboots.  A target that is not
    ``"link:A->B"`` raises ``ValueError``, one naming no link of ``net``
    ``KeyError``.  Loss-model faults compose per link through
    :class:`~repro.simulator.failures.CompositeFailure` (order-independent
    by design), perturbations through one
    :class:`~repro.chaos.perturbations.ChaosModel` per link, named after
    its link id, and switch restarts become engine events calling
    ``monitor.restart(side)``.
    """
    out = Materialized()
    perts: dict[str, list[Any]] = {}
    for spec in schedule:
        link_id = parse_link_target(spec.target)
        if link_id is None:
            raise ValueError(
                f"fault target {spec.target!r} is not a directed link "
                "'link:A->B' (use link_target(a, b))")
        net.endpoints(link_id)  # unknown links fail loudly
        seed = stable_seed(base_seed, "fault", spec.index)
        if spec.kind in ("entry_loss", "uniform_loss", "control_loss"):
            out.losses.setdefault(link_id, []).append(_build_loss(spec, seed))
        elif spec.kind == "switch_restart":
            monitor = monitors.get(link_id)
            if monitor is None:
                raise ValueError(
                    f"switch_restart targets {spec.target!r}, which has no "
                    "monitor deployed")
            out.restarts.append(spec)
            net.sim.schedule_at(float(spec.params["time"]), monitor.restart,
                                str(spec.params["side"]))
        else:
            perts.setdefault(link_id, []).append(
                _build_perturbation(spec, seed))
    for link_id, link in net.links.items():
        if link_id in out.losses:
            link.loss_model = CompositeFailure(out.losses[link_id])
        if link_id in perts:
            from .perturbations import ChaosModel

            out.chaos[link_id] = ChaosModel(perts[link_id],
                                            name=link_id).attach(link)
    return out
