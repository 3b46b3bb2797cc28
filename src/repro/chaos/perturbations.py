"""Wire perturbation models beyond plain loss.

Table 1 of the paper lists gray-failure symptoms that are *not* silent
drops: CRC/memory corruption, intermittent links, faulty line cards that
reorder or duplicate frames.  The simulator's ``loss_model`` hooks
(:mod:`repro.simulator.failures`) only ever answer "drop or deliver"; the
classes here inject the remaining behaviours through the link's ``chaos``
hook (:attr:`repro.simulator.link.Link.chaos`):

* :class:`Reorder` — bounded positive displacement of delivery time.
* :class:`Duplicate` — deliver extra copies of a packet.
* :class:`CorruptField` — bit-flips on header/payload fields (counter ids,
  Report payloads, sequence numbers).
* :class:`DelaySpike` — deterministic latency spike with optional jitter.
* :class:`LinkFlap` — scheduled hard down-windows (drops everything,
  control included).

Composition contract (mirrors :class:`~repro.simulator.failures.
CompositeFailure`): a :class:`ChaosModel` evaluates **every** perturbation
for every packet, with no short-circuiting, and each perturbation draws
only from its **own** seeded ``random.Random``.  RNG streams therefore
never depend on perturbation order or on other perturbations' verdicts,
so seeded runs are stable under schedule reordering — the property the
shrinker (:mod:`repro.chaos.shrink`) relies on when deleting faults.

Timing contract (the link's wire-loss discipline): the link calls
:meth:`ChaosModel.on_wire` with the *pinned departure timestamp* — at send
time for an uncontended packet, at depart time for a queued one.  All
draws key off that timestamp and all chaos-scheduled deliveries are
computed as ``depart_t + link.delay_s + displacement`` — absolute times
independent of which path scheduled them — so a fused link and its
``fused=False`` reference stay bit-identical with perturbations attached
(guarded by ``tests/simulator/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.simulator.link import CHAOS_CONSUMED, CHAOS_DROP, CHAOS_PASS, Link
from repro.simulator.packet import Packet, PacketKind

__all__ = [
    "Perturbation",
    "Reorder",
    "Duplicate",
    "CorruptField",
    "DelaySpike",
    "LinkFlap",
    "ChaosModel",
    "Intent",
]

#: What a perturbation wants to do to one packet:
#: ``(drop, extra_delay_s, copies, corrupt_fn)``.  ``corrupt_fn`` mutates
#: the packet in place and returns ``"control"`` or ``"data"`` for the
#: integrity accounting.
Intent = tuple[bool, float, int, "Callable[[Packet], str] | None"]

_NO_INTENT: Intent = (False, 0.0, 0, None)


class Perturbation:
    """Base class: activation window + per-fault seeded RNG + packet scope.

    Follows the same normalised-window discipline as
    :class:`repro.simulator.failures.GrayFailure`: the window is stored as
    ``[_start, _end)`` with ``_end = +inf`` when open-ended.

    Args:
        rate: Bernoulli probability that a matching packet is perturbed.
        start_time: window start (inclusive), simulated seconds.
        end_time: window end (exclusive); ``None`` = open-ended.
        seed: seed for this fault's **private** ``random.Random``.  Chaos
            code must never draw from the module-level ``random`` functions
            or another object's RNG (lint rule FCY007).
        kinds: restrict to these :class:`PacketKind` values; ``None``
            means the perturbation's default scope (see ``default_kinds``).
    """

    #: Short identifier used in schedules, reproducers and telemetry.
    kind: str = "perturbation"
    #: Scope applied when ``kinds`` is not given; ``None`` = all packets.
    default_kinds: frozenset[PacketKind] | None = None

    def __init__(
        self,
        rate: float = 1.0,
        start_time: float = 0.0,
        end_time: float | None = None,
        seed: int = 0,
        kinds: Iterable[PacketKind] | None = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._start = start_time
        self._end = math.inf if end_time is None else end_time
        self.seed = seed
        self.rng = random.Random(seed)
        self.kinds = (frozenset(kinds) if kinds is not None
                      else self.default_kinds)
        #: Number of packets this perturbation actually fired on.
        self.events = 0

    @property
    def start_time(self) -> float:
        return self._start

    @property
    def end_time(self) -> float | None:
        return None if self._end == math.inf else self._end

    def active(self, now: float) -> bool:
        return self._start <= now < self._end

    def matches(self, packet: Packet) -> bool:
        return self.kinds is None or packet.kind in self.kinds

    def fires(self, packet: Packet, depart_t: float) -> bool:
        """Shared window/scope/Bernoulli gate.

        Consumes exactly one draw from this fault's private RNG per
        matching in-window packet — and *only* then — so the stream is a
        pure function of the packet sequence this perturbation sees,
        independent of every other perturbation.
        """
        if not self._start <= depart_t < self._end:
            return False
        if not self.matches(packet):
            return False
        if self.rate < 1.0 and self.rng.random() >= self.rate:
            return False
        self.events += 1
        return True

    def evaluate(self, packet: Packet, depart_t: float) -> Intent:
        """Return this perturbation's intent for ``packet`` (no mutation)."""
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """JSON-friendly description (used by reproducer files)."""
        return {
            "kind": self.kind,
            "rate": self.rate,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "seed": self.seed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        window = f"[{self._start:g}, {'inf' if self._end == math.inf else f'{self._end:g}'})"
        return f"{type(self).__name__}(rate={self.rate:g}, window={window})"


class Reorder(Perturbation):
    """Displace a packet's delivery by a bounded positive amount.

    Models out-of-order delivery from a flapping LAG member or a faulty
    line card: the packet still arrives, but up to ``max_displacement_s``
    late, letting packets behind it overtake.  Displacement is strictly
    positive, never negative — a link cannot deliver a packet before it
    was sent — so Stop can never overtake the tagged data packets it
    delimits *in the other direction* (earlier packets may still arrive
    after it, which is the interesting case for §4.1).
    """

    kind = "reorder"

    def __init__(self, rate: float, max_displacement_s: float,
                 **kwargs: Any) -> None:
        super().__init__(rate, **kwargs)
        if max_displacement_s <= 0:
            raise ValueError("max_displacement_s must be positive")
        self.max_displacement_s = max_displacement_s

    def evaluate(self, packet: Packet, depart_t: float) -> Intent:
        if not self.fires(packet, depart_t):
            return _NO_INTENT
        return (False, self.rng.uniform(0.0, self.max_displacement_s), 0, None)

    def describe(self) -> dict[str, Any]:
        d = super().describe()
        d["max_displacement_s"] = self.max_displacement_s
        return d


class Duplicate(Perturbation):
    """Deliver extra copies of a packet.

    Models retransmission bugs and loops in faulty hardware.  Copies are
    delivered ``offset_s`` apart after the original and bypass the link's
    loss model (they materialise on the wire past the failure point); the
    per-link conservation bookkeeping is exposed via
    :attr:`ChaosModel.dup_scheduled`.
    """

    kind = "duplicate"

    def __init__(self, rate: float, copies: int = 1, offset_s: float = 1e-6,
                 **kwargs: Any) -> None:
        super().__init__(rate, **kwargs)
        if copies < 1:
            raise ValueError("copies must be >= 1")
        if offset_s <= 0:
            raise ValueError("offset_s must be positive")
        self.copies = copies
        self.offset_s = offset_s

    def evaluate(self, packet: Packet, depart_t: float) -> Intent:
        if not self.fires(packet, depart_t):
            return _NO_INTENT
        return (False, 0.0, self.copies, None)

    def describe(self) -> dict[str, Any]:
        d = super().describe()
        d["copies"] = self.copies
        d["offset_s"] = self.offset_s
        return d


class CorruptField(Perturbation):
    """Bit-flip a header or payload field (CRC/memory corruption, Table 1).

    Supported fields:

    * ``"seq"`` — transport sequence number of data packets.  Benign for
      FANcY (counters count packets, not sequence numbers); exercises the
      transport's tolerance.
    * ``"entry"`` — the forwarding-entry key of data packets is replaced
      by a corrupted sentinel (models VPN-label / prefix corruption); the
      packet effectively leaves its entry, i.e. a loss-class symptom the
      detector is expected to flag.
    * ``"tag"`` — flips bits of the FANcY counter id carried by tagged
      data packets (the paper's header-corruption case that *matters* to
      counting): the downstream counts the wrong — or, after the bounds
      check, no — dedicated counter, so the original entry's remote count
      comes up short and the entry is flagged.  Loss-class by
      construction.
    * ``"session"`` — flips a low bit of the session id in a FANcY
      control payload; the hardened protocol detects this via the payload
      checksum (§4.1's hostile-channel assumption) and rejects it.
    * ``"snapshot"`` — flips a low bit of one counter value inside a
      Report payload; also checksum-detected.

    Control-payload corruption deliberately never touches the ``"fsm"``
    dispatch field or the checksum itself: the corrupted message must
    still *reach* ``on_control`` so detection is attributable (the
    integrity invariant counts delivered corruptions against FSM
    rejections).  Payload dicts are corrupted **by copy** — receivers
    cache report payloads (``_last_report``) and sharing the mutated
    object would corrupt state retroactively.
    """

    kind = "corrupt"

    _CONTROL_FIELDS = frozenset({"session", "snapshot"})
    _DATA_FIELDS = frozenset({"seq", "entry", "tag"})

    #: Entry key marking a corrupted forwarding entry; never routable.
    CORRUPT_ENTRY = "__corrupt__"

    def __init__(self, rate: float, field: str = "seq", **kwargs: Any) -> None:
        if field not in self._CONTROL_FIELDS | self._DATA_FIELDS:
            raise ValueError(f"unsupported corruption field: {field!r}")
        if field in self._CONTROL_FIELDS:
            kwargs.setdefault(
                "kinds",
                (PacketKind.FANCY_START, PacketKind.FANCY_START_ACK,
                 PacketKind.FANCY_STOP, PacketKind.FANCY_REPORT),
            )
        else:
            kwargs.setdefault("kinds", (PacketKind.DATA,))
        super().__init__(rate, **kwargs)
        self.field = field

    def matches(self, packet: Packet) -> bool:
        if not super().matches(packet):
            return False
        if self.field in self._CONTROL_FIELDS:
            payload = packet.payload
            return payload is not None and self.field in payload
        if self.field == "tag":
            # Only dedicated-counter tags carry an integer index to flip.
            return packet.tag_dedicated and packet.tag is not None
        return True

    def evaluate(self, packet: Packet, depart_t: float) -> Intent:
        if not self.fires(packet, depart_t):
            return _NO_INTENT
        # All randomness is drawn *now*, at evaluate time, so the RNG
        # stream does not depend on whether some other perturbation drops
        # the packet before the corruption is applied.
        field = self.field
        if field == "seq":
            bit = 1 << self.rng.randrange(8)

            def corrupt_seq(p: Packet) -> str:
                p.seq ^= bit
                return "data"

            return (False, 0.0, 0, corrupt_seq)
        if field == "entry":
            def corrupt_entry(p: Packet) -> str:
                p.entry = self.CORRUPT_ENTRY
                return "data"

            return (False, 0.0, 0, corrupt_entry)
        if field == "tag":
            flip = 1 + self.rng.randrange(7)

            def corrupt_tag(p: Packet) -> str:
                if p.tag_dedicated and p.tag is not None:
                    p.tag = (p.tag[0] ^ flip,) + tuple(p.tag[1:])
                return "data"

            return (False, 0.0, 0, corrupt_tag)
        if field == "session":
            bit = 1 << self.rng.randrange(4)

            def corrupt_session(p: Packet) -> str:
                payload = dict(p.payload or {})
                payload["session"] = int(payload.get("session", 0)) ^ bit
                p.payload = payload
                return "control"

            return (False, 0.0, 0, corrupt_session)
        # field == "snapshot"
        pick = self.rng.random()
        bit = 1 << self.rng.randrange(4)

        def corrupt_snapshot(p: Packet) -> str:
            payload = dict(p.payload or {})
            snapshot = payload.get("snapshot")
            if isinstance(snapshot, Sequence) and len(snapshot) > 0:
                cells = list(snapshot)
                idx = min(int(pick * len(cells)), len(cells) - 1)
                try:
                    cells[idx] = int(cells[idx]) ^ bit
                except (TypeError, ValueError):
                    cells[idx] = bit
                payload["snapshot"] = cells
            else:
                payload["snapshot"] = [bit]
            p.payload = payload
            return "control"

        return (False, 0.0, 0, corrupt_snapshot)

    def describe(self) -> dict[str, Any]:
        d = super().describe()
        d["field"] = self.field
        return d


class DelaySpike(Perturbation):
    """Latency spike: every matching in-window packet is held back.

    Models transient buffering pathologies (a wedged line card flushing
    late).  Deterministic ``spike_s`` plus optional uniform jitter in
    ``[0, jitter_s]``; with ``jitter_s=0`` no RNG draw is consumed beyond
    the rate gate, keeping pure spikes fully deterministic.
    """

    kind = "delay_spike"

    def __init__(self, spike_s: float, jitter_s: float = 0.0,
                 rate: float = 1.0, **kwargs: Any) -> None:
        super().__init__(rate, **kwargs)
        if spike_s <= 0:
            raise ValueError("spike_s must be positive")
        if jitter_s < 0:
            raise ValueError("jitter_s must be non-negative")
        self.spike_s = spike_s
        self.jitter_s = jitter_s

    def evaluate(self, packet: Packet, depart_t: float) -> Intent:
        if not self.fires(packet, depart_t):
            return _NO_INTENT
        delay = self.spike_s
        if self.jitter_s > 0.0:
            delay += self.rng.uniform(0.0, self.jitter_s)
        return (False, delay, 0, None)

    def describe(self) -> dict[str, Any]:
        d = super().describe()
        d["spike_s"] = self.spike_s
        d["jitter_s"] = self.jitter_s
        return d


class LinkFlap(Perturbation):
    """Hard up/down schedule: during a down-window *everything* is dropped.

    Models an intermittently failing link (§2.1), the all-entries /
    all-packets cell of Table 1 — but time-bounded, which is precisely
    what makes it "gray": between flaps the link looks healthy.  The
    down-windows are an explicit schedule, deterministic by construction
    (no RNG), so a shrunk reproducer pins the exact outage instants.
    """

    kind = "link_flap"

    def __init__(self, down_windows: Iterable[tuple[float, float]],
                 **kwargs: Any) -> None:
        windows = sorted((float(a), float(b)) for a, b in down_windows)
        if not windows:
            raise ValueError("LinkFlap needs at least one down window")
        for a, b in windows:
            if b <= a:
                raise ValueError(f"empty down window ({a}, {b})")
        # The perturbation's own activation window is the envelope of the
        # down schedule, so out-of-envelope packets exit via the shared
        # cheap gate in :meth:`Perturbation.fires`.
        kwargs.setdefault("start_time", windows[0][0])
        kwargs.setdefault("end_time", windows[-1][1])
        super().__init__(1.0, **kwargs)
        self.down_windows = windows

    def is_down(self, now: float) -> bool:
        for a, b in self.down_windows:
            if a <= now < b:
                return True
            if now < a:
                break
        return False

    def evaluate(self, packet: Packet, depart_t: float) -> Intent:
        if not self.fires(packet, depart_t):
            return _NO_INTENT
        if not self.is_down(depart_t):
            return _NO_INTENT
        return (True, 0.0, 0, None)

    def describe(self) -> dict[str, Any]:
        d = super().describe()
        d["down_windows"] = [list(w) for w in self.down_windows]
        return d


class ChaosModel:
    """Composes perturbations on one link; implements the ``chaos`` hook.

    Evaluation is *intent-based*: every perturbation is asked for its
    intent on every packet (consuming its own RNG independently of the
    others — see module docstring), the intents are merged, and only then
    is anything applied:

    1. any drop intent wins → :data:`~repro.simulator.link.CHAOS_DROP`
       (no corruption applied, no copies scheduled);
    2. corruptions are applied to the delivered packet (counted for the
       integrity invariant);
    3. displacement intents sum; a displaced packet is rescheduled at
       ``depart_t + link.delay_s + displacement``
       (→ :data:`~repro.simulator.link.CHAOS_CONSUMED`);
    4. duplicate copies are scheduled behind the original's arrival.

    A model instance attaches to exactly **one** link (:meth:`attach`), so
    each perturbation observes a single FIFO packet sequence and the RNG
    streams are identical on the fused and reference pipelines.
    """

    def __init__(self, perturbations: Iterable[Perturbation],
                 name: str = "") -> None:
        self.perturbations = list(perturbations)
        self.name = name
        self.link: Link | None = None
        #: Duplicate copies scheduled (for packet-conservation checks:
        #: ``delivered == tx - dropped_failure - dropped_chaos + dup_scheduled``
        #: once the wire is drained).
        self.dup_scheduled = 0
        #: Delivered packets whose FANcY control payload was corrupted, by
        #: the FSM id each addresses — each must be rejected by that FSM
        #: (integrity invariant).  A wire can carry two monitors' control
        #: messages (one's Start/Stop, the other's StartACK/Reports).
        self.corrupted_control_to: dict[str, int] = {}
        #: Delivered data packets corrupted (seq/entry).
        self.corrupted_data = 0
        #: Packets rescheduled with a displacement.
        self.displaced = 0
        #: Telemetry hook: optional callable ``(event, packet, t)`` for
        #: the fault-event timeline (set by the harness).
        self.on_event: Callable[[str, Packet, float], None] | None = None

    def attach(self, link: Link) -> "ChaosModel":
        if self.link is not None and self.link is not link:
            raise ValueError(
                "a ChaosModel attaches to exactly one link; create one "
                "model per link so RNG streams stay per-wire FIFO")
        self.link = link
        link.chaos = self
        if not self.name:
            self.name = link.name
        return self

    def on_wire(self, packet: Packet, depart_t: float, link: Link) -> int:
        """Link hook: merge every perturbation's intent for ``packet``."""
        drop = False
        displacement = 0.0
        copies = 0
        corrupters: list[Callable[[Packet], str]] | None = None
        for p in self.perturbations:
            p_drop, p_delay, p_copies, p_corrupt = p.evaluate(packet, depart_t)
            drop |= p_drop
            displacement += p_delay
            copies += p_copies
            if p_corrupt is not None:
                if corrupters is None:
                    corrupters = [p_corrupt]
                else:
                    corrupters.append(p_corrupt)
        if drop:
            if self.on_event is not None:
                self.on_event("chaos_drop", packet, depart_t)
            return CHAOS_DROP
        if displacement == 0.0 and copies == 0 and corrupters is None:
            return CHAOS_PASS
        if corrupters is not None:
            # Copies are cloned *after* corruption is applied, so every
            # scheduled duplicate delivers the corruption too: count each
            # corrupted packet once per wire arrival (original + copies),
            # so the integrity invariant can equate delivered control
            # corruptions with FSM rejections.  Counting is per *packet*,
            # not per corrupter — the FSM rejects a mangled Report once no
            # matter how many faults touched it — and a control packet
            # only counts if the merged result actually fails
            # verification (two co-firing faults flipping the same bit
            # restore the payload: nothing is corrupt on the wire).
            classes = {corrupt(packet) for corrupt in corrupters}
            mult = 1 + copies
            if "control" in classes and not _control_payload_intact(packet):
                fsm = packet.payload["fsm"]
                self.corrupted_control_to[fsm] = (
                    self.corrupted_control_to.get(fsm, 0) + mult)
            if "data" in classes:
                self.corrupted_data += mult
            if self.on_event is not None:
                self.on_event("chaos_corrupt", packet, depart_t)
        arrival_t = depart_t + link.delay_s + displacement
        if copies:
            self.dup_scheduled += copies
            if self.on_event is not None:
                self.on_event("chaos_duplicate", packet, depart_t)
            offset = 1e-6
            for p in self.perturbations:
                if isinstance(p, Duplicate):
                    offset = p.offset_s
                    break
            for i in range(copies):
                copy = _clone_packet(packet)
                link.sim.schedule_at(arrival_t + (i + 1) * offset,
                                     link._deliver, copy)
        if displacement == 0.0 and copies == 0:
            # Pure in-place corruption: let the link finish delivery on
            # its own (keeps burst coalescing on instant links).
            return CHAOS_PASS
        if displacement > 0.0:
            self.displaced += 1
            if self.on_event is not None:
                self.on_event("chaos_displace", packet, depart_t)
            link.sim.schedule_at(arrival_t, link._deliver, packet)
            return CHAOS_CONSUMED
        # Copies scheduled but the original is undisplaced: deliver the
        # original through the normal pipeline.
        return CHAOS_PASS

    @property
    def corrupted_control(self) -> int:
        """Delivered corrupted control messages, whichever FSM they address."""
        return sum(self.corrupted_control_to.values())

    def describe(self) -> list[dict[str, Any]]:
        return [p.describe() for p in self.perturbations]

    def stats(self) -> dict[str, int]:
        return {
            "dup_scheduled": self.dup_scheduled,
            "corrupted_control": self.corrupted_control,
            "corrupted_data": self.corrupted_data,
            "displaced": self.displaced,
            "events": sum(p.events for p in self.perturbations),
        }


def _control_payload_intact(packet: Packet) -> bool:
    """Whether a control payload still verifies after corruption merged.

    Imported lazily from the protocol layer: chaos sits above both the
    simulator and the core protocol (it may look *down* at either), and
    the checksum definition must be the single one the FSMs use — a
    private reimplementation here could drift and desynchronise the
    integrity invariant.
    """
    from repro.core.protocol import verify_payload

    payload = packet.payload
    return payload is None or verify_payload(payload)


def _clone_packet(packet: Packet) -> Packet:
    """Duplicate a packet for redelivery (deep enough).

    The payload dict is shallow-copied so later corruption of one copy
    cannot leak into the other; tags are immutable tuples and copied by
    reference.
    """
    payload = dict(packet.payload) if packet.payload is not None else None
    copy = Packet.acquire(
        packet.kind, packet.entry, packet.size, flow_id=packet.flow_id,
        seq=packet.seq, ack=packet.ack, created_at=packet.created_at,
        payload=payload, reverse=packet.reverse)
    copy.tag = packet.tag
    copy.tag_session = packet.tag_session
    copy.tag_dedicated = packet.tag_dedicated
    return copy
