"""FANcY switch integration: wiring counters, trees and FSMs onto links.

:class:`FancyLinkMonitor` deploys FANcY on one directed link A→B: it
installs the sender side (dedicated counters + tree + their FSMs) in A's
egress pipeline on the port facing B, and the receiver side in B's ingress
pipeline on the port facing A — honouring the §3 placement (count after
the upstream TM, before the downstream TM).

Dedicated counters and the hash-based tree run as separate FSM pairs with
independent session durations — counters are exchanged every 50 ms and the
tree zooms every 200 ms in the paper's evaluation (§5.1).

The monitor works unchanged across non-adjacent switches (partial
deployment, §4.3): control messages are ordinary packets that middle
switches forward, so a monitor across the ends of a
:func:`~repro.fabric.builders.line` detects failures anywhere on the path
once the legacy switches route control messages — which carry no entry —
with ``net.add_entry(None, first, last)``.
"""

from __future__ import annotations

import dataclasses

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..simulator.engine import Simulator
from ..simulator.packet import MIN_FRAME_BYTES, Packet, PacketKind
from ..simulator.switch import Switch
from .classify import EntryClassifier
from .counters import DedicatedReceiverCounters, DedicatedSenderCounters
from .hashtree import HashTree, HashTreeParams
from .output import FailureKind, FailureLog, FailureReport, HashPathFlags
from .protocol import (
    DEFAULT_BACKOFF_CAP,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_RTX_TIMEOUT,
    DEFAULT_TWAIT,
    FancyReceiver,
    FancySender,
    ReceiverState,
    SenderState,
)
from .zooming import TreeReceiverStrategy, TreeSenderStrategy

__all__ = ["FancyConfig", "FancyLinkMonitor", "claim_monitored_port"]


def claim_monitored_port(switch: Switch, port: int) -> None:
    """Reserve a switch egress port for exactly one counting monitor.

    Packets carry a single FANcY tag (2 bytes on the wire, §5.3), so two
    monitors tagging on the same port would silently corrupt each other's
    counts.  Every monitor type in this repository claims its port here;
    a second claim fails loudly instead.
    """
    claimed: set[int] = getattr(switch, "_fancy_monitored_ports", set())
    if port in claimed:
        raise RuntimeError(
            f"{switch.name} port {port} already has a counting monitor; "
            "packets have a single tag field — run one monitor per port "
            "(use separate simulations or a composed classifier instead)"
        )
    claimed.add(port)
    # Duck-punched bookkeeping attribute: monitors claim ports across
    # modules without Switch having to know about FANcY.
    setattr(switch, "_fancy_monitored_ports", claimed)


@dataclass
class FancyConfig:
    """Configuration of a FANcY deployment on one link.

    Defaults reflect the paper's evaluation setup (§5): 500 dedicated
    counters exchanged every 50 ms, and a depth-3 split-2 width-190
    pipelined tree zooming every 200 ms.
    """

    high_priority: Sequence[Any] = field(default_factory=list)
    tree_params: HashTreeParams | None = field(
        default_factory=lambda: HashTreeParams(width=190, depth=3, split=2, pipelined=True)
    )
    dedicated_session_s: float = 0.050
    tree_session_s: float = 0.200
    rtx_timeout_s: float = DEFAULT_RTX_TIMEOUT
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    twait_s: float = DEFAULT_TWAIT
    #: Cap factor for the sender FSMs' exponential retransmission backoff
    #: (see :data:`repro.core.protocol.DEFAULT_BACKOFF_CAP`).
    backoff_cap: int = DEFAULT_BACKOFF_CAP
    #: **Chaos-regression fixture only**: disables stale-session rejection
    #: in the sender FSMs so the soak harness can prove it catches the
    #: resulting protocol violations (docs/ROBUSTNESS.md).  Never enable
    #: in real experiments.
    accept_stale_responses: bool = False
    seed: int = 0
    suppress_known: bool = True
    #: Entry classifier (§1): maps packets to entry keys.  ``None`` means
    #: the destination prefix (the evaluation's setting); root-cause
    #: analyses can install e.g. per-packet-size classifiers from
    #: :mod:`repro.core.classify` without touching the downstream switch.
    classifier: EntryClassifier | None = None

    @property
    def enable_dedicated(self) -> bool:
        return len(self.high_priority) > 0

    @property
    def enable_tree(self) -> bool:
        return self.tree_params is not None

    @classmethod
    def from_monitoring_input(cls, spec: Any, **overrides: Any) -> "FancyConfig":
        """Build a config from an operator :class:`~repro.core.entries.
        MonitoringInput` via the §4.3 input translation.

        Runs :func:`~repro.core.memory.plan_memory` — so the Figure 1
        contract holds: if the high-priority set plus a usable tree do
        not fit the memory budget, a
        :class:`~repro.core.memory.MemoryBudgetError` propagates instead
        of silently shrinking the request.
        """
        from .memory import plan_memory

        plan = plan_memory(spec)
        return cls(
            high_priority=list(spec.high_priority),
            tree_params=plan.tree,
            **overrides,
        )


class FancyLinkMonitor:
    """FANcY on one directed link between an upstream and downstream switch."""

    def __init__(
        self,
        sim: Simulator,
        upstream: Switch,
        up_port: int,
        downstream: Switch,
        down_port: int,
        config: FancyConfig | None = None,
        log: FailureLog | None = None,
        telemetry: Any | None = None,
    ) -> None:
        self.sim = sim
        self.upstream = upstream
        self.up_port = up_port
        self.downstream = downstream
        self.down_port = down_port
        self.config = config or FancyConfig()
        self.log = log if log is not None else FailureLog()
        self.telemetry = telemetry
        self._timeline: Any = telemetry.timeline if telemetry is not None else None
        self._traces: Any = getattr(telemetry, "traces", None)
        self._id = f"{upstream.name}->{downstream.name}"
        #: ``None`` = the destination prefix (:func:`~repro.core.classify.
        #: by_prefix`), read inline on the per-packet path.
        self._entry_of = self.config.classifier

        cfg = self.config
        self.dedicated_sender: FancySender | None = None
        self.dedicated_receiver: FancyReceiver | None = None
        self.tree_sender: FancySender | None = None
        self.tree_receiver: FancyReceiver | None = None
        self.tree_strategy: TreeSenderStrategy | None = None
        self.dedicated_strategy: DedicatedSenderCounters | None = None
        self.output_flags = HashPathFlags(seed=cfg.seed)

        #: Deferred high-priority entry swap (see :meth:`update_entries`).
        self._pending_entries: list[Any] | None = None

        if cfg.enable_dedicated:
            self._build_dedicated()
        if cfg.enable_tree:
            self._build_tree()
        self._install_hooks()

    # -- construction -----------------------------------------------------------

    def _build_dedicated(self) -> None:
        cfg = self.config
        fsm_id = f"{self._id}/dedicated"
        n = len(cfg.high_priority)
        report_size = max(MIN_FRAME_BYTES, (n * 32) // 8 + 30)
        self.dedicated_strategy = DedicatedSenderCounters(
            cfg.high_priority,
            on_detection=self._on_dedicated_detection,
            entry_of=self._entry_of,
        )
        self.dedicated_sender = FancySender(
            self.sim,
            fsm_id,
            self._send_control_downstream,
            self.dedicated_strategy,
            session_duration=cfg.dedicated_session_s,
            rtx_timeout=cfg.rtx_timeout_s,
            max_attempts=cfg.max_attempts,
            on_link_failure=self._on_link_failure,
            telemetry=self.telemetry,
            backoff_cap=cfg.backoff_cap,
            accept_stale_responses=cfg.accept_stale_responses,
        )
        self.dedicated_receiver = FancyReceiver(
            self.sim,
            fsm_id,
            self._send_control_upstream,
            DedicatedReceiverCounters(n),
            twait=cfg.twait_s,
            report_size_bytes=report_size,
            telemetry=self.telemetry,
        )
        # Deferred entry swaps apply at the verified-Report boundary — the
        # only instant the dedicated tag-index space is not live on the
        # wire (see update_entries).
        self.dedicated_sender.impairment_taps.append(self._dedicated_signal)

    def _build_tree(self) -> None:
        cfg = self.config
        fsm_id = f"{self._id}/tree"
        params = cfg.tree_params
        assert params is not None  # _build_tree is gated on enable_tree
        report_size = max(
            MIN_FRAME_BYTES, (params.width * 32 * params.node_count()) // 8 + 30
        )
        tree = HashTree(params, seed=cfg.seed)
        self.tree_strategy = TreeSenderStrategy(
            tree,
            on_report=self._on_tree_report,
            output_flags=self.output_flags,
            suppress_known=cfg.suppress_known,
            seed=cfg.seed,
            now_fn=lambda: self.sim.now,
            port=self.up_port,
            entry_of=self._entry_of,
            telemetry=self.telemetry,
            name=fsm_id,
        )
        self.tree_sender = FancySender(
            self.sim,
            fsm_id,
            self._send_control_downstream,
            self.tree_strategy,
            session_duration=cfg.tree_session_s,
            rtx_timeout=cfg.rtx_timeout_s,
            max_attempts=cfg.max_attempts,
            on_link_failure=self._on_link_failure,
            report_size_bytes=report_size,
            telemetry=self.telemetry,
            backoff_cap=cfg.backoff_cap,
            accept_stale_responses=cfg.accept_stale_responses,
        )
        self.tree_receiver = FancyReceiver(
            self.sim,
            fsm_id,
            self._send_control_upstream,
            TreeReceiverStrategy(params),
            twait=cfg.twait_s,
            report_size_bytes=report_size,
            telemetry=self.telemetry,
        )

    def _install_hooks(self) -> None:
        claim_monitored_port(self.upstream, self.up_port)
        # The counting tap never sees control messages (its own injected
        # Start/Stop included); DATA/ACK never visit the upstream ingress tap.
        self.upstream.add_egress_hook(self.up_port, self._upstream_egress,
                                      data_only=True)
        self.upstream.add_ingress_hook(self.up_port, self._upstream_ingress, front=True,
                                       control_only=True)
        self.downstream.add_ingress_hook(self.down_port, self._downstream_ingress, front=True)

    # -- control transport ---------------------------------------------------------

    def _send_control_downstream(self, kind: PacketKind, payload: dict[str, Any],
                                 size: int) -> None:
        packet = Packet(kind, entry=None, size=size, payload=payload)
        self.upstream.inject(packet, self.up_port)

    def _send_control_upstream(self, kind: PacketKind, payload: dict[str, Any],
                               size: int) -> None:
        packet = Packet(kind, entry=None, size=size, payload=payload, reverse=True)
        self.downstream.inject(packet, self.down_port)

    # -- pipeline hooks ---------------------------------------------------------------

    def _upstream_egress(self, packet: Packet, _out_port: int) -> bool:
        """Egress pipeline of the upstream switch (after the TM)."""
        if packet.kind is not PacketKind.DATA or packet.reverse:
            return True
        # Inlined Packet.clear_tag(): stale tags from an upstream hop, if any.
        packet.tag = None
        packet.tag_session = -1
        packet.tag_dedicated = False
        # Classified once per hop.  Only best-effort entries go to the
        # tree; packets of dedicated entries outside a dedicated session
        # stay uncounted.
        classify = self._entry_of
        entry = packet.entry if classify is None else classify(packet)
        dedicated = self.dedicated_strategy
        sender = (self.dedicated_sender
                  if dedicated is not None and entry in dedicated.index
                  else self.tree_sender)
        # FancySender.process_packet's counting gate, evaluated here: the
        # strategy is one call away instead of behind a forwarding frame.
        if sender is not None and sender.state is SenderState.COUNTING:
            sender.strategy.process_packet(packet, sender.session_id, entry)
        return True

    def _upstream_ingress(self, packet: Packet, _in_port: int) -> bool:
        """Control responses (StartACK / Report) coming back from B."""
        if packet.kind.is_control and packet.payload is not None:
            fsm = packet.payload.get("fsm", "")
            if self.dedicated_sender is not None and fsm == self.dedicated_sender.fsm_id:
                self.dedicated_sender.on_control(packet.kind, packet.payload)
                return False
            if self.tree_sender is not None and fsm == self.tree_sender.fsm_id:
                self.tree_sender.on_control(packet.kind, packet.payload)
                return False
        return True

    def _downstream_ingress(self, packet: Packet, _in_port: int) -> bool:
        """Ingress pipeline of the downstream switch (before the TM)."""
        if packet.kind.is_control and packet.payload is not None:
            fsm = packet.payload.get("fsm", "")
            if self.dedicated_receiver is not None and fsm == self.dedicated_receiver.fsm_id:
                self.dedicated_receiver.on_control(packet.kind, packet.payload)
                return False
            if self.tree_receiver is not None and fsm == self.tree_receiver.fsm_id:
                self.tree_receiver.on_control(packet.kind, packet.payload)
                return False
            return True
        if packet.kind is PacketKind.DATA and packet.tag is not None:
            receiver = (self.dedicated_receiver if packet.tag_dedicated
                        else self.tree_receiver)
            if receiver is not None:
                # FancyReceiver.process_packet's counting gate, evaluated
                # here; the session's first tagged packet (SEND_ACK ->
                # COUNTING) still goes through the FSM.
                state = receiver.state
                if state is ReceiverState.COUNTING or state is ReceiverState.WAIT_TO_SEND:
                    receiver.strategy.process_packet(packet, receiver.session_id)
                else:
                    receiver.process_packet(packet)
        return True

    # -- detections ----------------------------------------------------------------------

    def _record_detection(self, report: FailureReport, fsm_id: str) -> None:
        """Mirror a failure report into the telemetry timeline + registry.

        The timeline event carries the *cumulative* control bytes at
        detection time, so each per-entry detection record states what
        the detection cost on the wire (§5.3's companion quantity).
        """
        if self.telemetry is None:
            return
        metrics = self.telemetry.metrics
        metrics.counter(
            "fancy_detections_total", "Failure reports raised by the monitor",
            monitor=self._id, kind=report.kind.value,
        ).inc()
        self._timeline.record(
            report.time, self._id, "detection",
            kind=report.kind.value,
            fsm=fsm_id,
            entry=report.entry,
            hash_path=report.hash_path,
            session=report.session_id,
            lost=report.lost_packets,
            control_bytes=int(metrics.total("fancy_control_bytes_total")),
        )
        if self._traces is not None:
            # Unattributed detections (no fault episode opened by a chaos
            # or experiment harness) open their own episode here — the
            # false-positive-sentinel signal the health report surfaces.
            self._traces.ensure_episode(report.time, cause="detection",
                                        monitor=self._id)
            if report.kind is FailureKind.DEDICATED_ENTRY:
                self._traces.emit("divergence", report.time,
                                  category="counters", fsm=fsm_id,
                                  entry=report.entry)
            self._traces.emit(
                "flag", report.time, category="detect",
                kind=report.kind.value, fsm=fsm_id, entry=report.entry,
                hash_path=report.hash_path, session=report.session_id,
                lost=report.lost_packets)

    def _on_dedicated_detection(self, entry: Any, lost: int, session_id: int) -> None:
        report = FailureReport(
            FailureKind.DEDICATED_ENTRY,
            self.sim.now,
            entry=entry,
            lost_packets=lost,
            session_id=session_id,
            port=self.up_port,
        )
        self.log.record(report)
        self._record_detection(report, f"{self._id}/dedicated")

    def _on_tree_report(self, report: FailureReport) -> None:
        self.log.record(report)
        self._record_detection(report, f"{self._id}/tree")

    def _on_link_failure(self, fsm_id: str, now: float) -> None:
        report = FailureReport(FailureKind.LINK_DOWN, now, entry=fsm_id,
                               port=self.up_port)
        self.log.record(report)
        self._record_detection(report, fsm_id)

    # -- lifecycle --------------------------------------------------------------------------

    def attach_congestion_guard(self, guard: Any) -> None:
        """Discard sessions overlapping congested periods (§4.3 fn. 2).

        Only needed for partial deployments, where legacy switches' TM
        drops happen between the two counting points; in a full per-link
        deployment the §3 counter placement already excludes congestion.
        Pass a started :class:`~repro.core.congestion.QueueGuard` watching
        the path's devices.
        """
        from .congestion import GuardedSenderStrategy

        if self.dedicated_sender is not None:
            self.dedicated_sender.strategy = GuardedSenderStrategy(
                self.dedicated_sender.strategy, guard, self.sim
            )
        if self.tree_sender is not None:
            self.tree_sender.strategy = GuardedSenderStrategy(
                self.tree_sender.strategy, guard, self.sim
            )

    def start(self, delay: float = 0.0) -> None:
        """Open the first counting sessions (optionally staggered)."""
        if self.dedicated_sender is not None:
            self.sim.schedule(delay, self.dedicated_sender.start)
        if self.tree_sender is not None:
            self.sim.schedule(delay, self.tree_sender.start)

    def stop(self) -> None:
        for fsm in (self.dedicated_sender, self.tree_sender,
                    self.dedicated_receiver, self.tree_receiver):
            if fsm is not None:
                fsm.stop()

    def restart(self, side: str = "both") -> None:
        """Simulate a switch reboot on one or both ends of the link.

        A restart wipes the affected FSMs' transient state mid-session
        (see :meth:`FancySender.restart` / :meth:`FancyReceiver.restart`
        for the exact persistence model).  Counter state is zeroed on the
        next ``begin_session``.  Sender FSMs that were never started stay
        unstarted — a restart must not *begin* monitoring.

        This is the switch-restart fault model of the chaos subsystem
        (docs/ROBUSTNESS.md); the monitor's :attr:`log` deliberately
        survives restarts (it models the control-plane collector, not
        switch ASIC memory), which is what makes eventual-detection
        invariants checkable across state wipes.
        """
        if side not in ("upstream", "downstream", "both"):
            raise ValueError(f"unknown restart side: {side!r}")
        now = self.sim.now
        if side in ("upstream", "both"):
            for sender in (self.dedicated_sender, self.tree_sender):
                if sender is not None and sender.session_id > 0:
                    sender.restart()
        if side in ("downstream", "both"):
            for receiver in (self.dedicated_receiver, self.tree_receiver):
                if receiver is not None:
                    receiver.restart()
        if self._timeline is not None:
            self._timeline.record(now, self._id, "switch_restart", side=side)
        if self._traces is not None and self._traces.active:
            self._traces.emit("switch_restart", now, category="chaos",
                              monitor=self._id, side=side)
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "chaos_switch_restarts_total",
                "Simulated switch restarts injected by the chaos subsystem",
                monitor=self._id, side=side).inc()

    # -- entry churn ---------------------------------------------------------------------------

    def _dedicated_signal(self, signal: str, now: float) -> None:
        """Impairment-tap hook on the dedicated sender (entry churn)."""
        if signal == "recovered" and self._pending_entries is not None:
            self._apply_entry_update()

    def update_entries(self, entries: Sequence[Any]) -> bool:
        """Replace the dedicated high-priority entry set (entry churn).

        The operator's top-N prefix set rotates over time; this swaps the
        dedicated counter arrays (both sides), carrying over the output
        flags of entries that persist across the swap.  Mid-session the
        tag-index space is live on the wire, so the swap is **deferred**
        to the dedicated sender's next verified-Report boundary (its
        ``"recovered"`` impairment signal) — the only instant with no
        in-flight tagged packets or unverified snapshot; a monitor whose
        dedicated FSM is idle or failed swaps immediately.  Calling again
        before the swap applied replaces the pending set.

        Does not compose with :meth:`attach_congestion_guard` (the guard
        wraps the strategy the swap replaces).  Returns True when the
        swap applied immediately, False when deferred.
        """
        if self.dedicated_sender is None or self.dedicated_strategy is None:
            raise RuntimeError(
                f"monitor {self._id} has no dedicated counters; "
                "update_entries only rotates an existing high-priority set")
        self._pending_entries = list(entries)
        if self.dedicated_sender.state in (SenderState.IDLE, SenderState.FAILED):
            self._apply_entry_update()
            return True
        return False

    @property
    def pending_entry_update(self) -> bool:
        """Whether an entry swap is waiting for a verified-Report boundary."""
        return self._pending_entries is not None

    def _apply_entry_update(self) -> None:
        entries = self._pending_entries
        assert entries is not None
        self._pending_entries = None
        old = self.dedicated_strategy
        sender = self.dedicated_sender
        receiver = self.dedicated_receiver
        assert old is not None and sender is not None and receiver is not None
        n = len(entries)
        new = DedicatedSenderCounters(
            entries,
            on_detection=self._on_dedicated_detection,
            entry_of=self._entry_of,
        )
        for entry in entries:
            if old.owns(entry) and old.flags[old.index[entry]]:
                new.flags[new.index[entry]] = True
        new.sessions_completed = old.sessions_completed
        self.dedicated_strategy = new
        sender.strategy = new
        receiver.strategy = DedicatedReceiverCounters(n)
        receiver.report_size_bytes = max(MIN_FRAME_BYTES, (n * 32) // 8 + 30)
        self.config = dataclasses.replace(self.config,
                                          high_priority=list(entries))
        if self._timeline is not None:
            self._timeline.record(self.sim.now, self._id, "entry_update",
                                  entries=n)
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "fancy_entry_updates_total",
                "Dedicated entry-set swaps applied (entry churn)",
                monitor=self._id).inc()

    def clear_dedicated_flags(self, entries: Iterable[Any]) -> list[Any]:
        """Clear dedicated output flags for ``entries``; return those cleared.

        Degraded-mode re-validation (docs/ROBUSTNESS.md): flags held
        through a FREEZE window that the next live verified window did
        not re-raise are retracted here.  Unknown or unflagged entries
        are ignored.  Tree Bloom-filter flags are *not* individually
        clearable (a Bloom filter has no deletion) — tree flags held
        through a FREEZE stay flagged until operator reset.
        """
        strategy = self.dedicated_strategy
        if strategy is None:
            return []
        cleared: list[Any] = []
        for entry in entries:
            idx = strategy.index.get(entry)
            if idx is not None and strategy.flags[idx]:
                strategy.flags[idx] = False
                cleared.append(entry)
        if cleared and self._timeline is not None:
            self._timeline.record(self.sim.now, self._id, "flags_cleared",
                                  entries=len(cleared))
        return cleared

    # -- convenience queries -------------------------------------------------------------------

    def flagged_entries(self) -> list[Any]:
        """Entries flagged by dedicated counters."""
        if self.dedicated_strategy is None:
            return []
        return self.dedicated_strategy.flagged_entries

    def flagged_leaf_paths(self) -> set[tuple[int, ...]]:
        """Leaf hash paths flagged by the tree."""
        if self.tree_strategy is None:
            return set()
        return set(self.tree_strategy.known_failed)

    def entry_is_flagged(self, entry: Any) -> bool:
        """Would the data plane consider ``entry`` failed right now?

        Dedicated entries consult the 1-bit flag array; best-effort entries
        consult the output Bloom filter with the entry's full hash path —
        exactly what the rerouting application does per packet.
        """
        if self.dedicated_strategy is not None and self.dedicated_strategy.owns(entry):
            return self.dedicated_strategy.flags[self.dedicated_strategy.index[entry]]
        if self.tree_strategy is None:
            return False
        return self.output_flags.is_flagged(self.tree_strategy.tree.hash_path(entry))
