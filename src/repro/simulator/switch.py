"""P4-like switch model.

The switch mimics the data-plane structure the paper's ns-3 model
reproduces: parser → ingress pipeline → traffic manager (TM) → egress
pipeline → port.  The placement constraints from §3 are honoured:

* congestion (tail-drop) happens **in the TM**;
* upstream FANcY counting happens in the **egress pipeline**, i.e. after
  the TM, so congestion drops are never mistaken for gray failures;
* downstream FANcY counting happens in the **ingress pipeline**, i.e.
  before the TM of the receiving switch.

Hooks are plain callables so the FANcY detector (or any other in-switch
application, e.g. the rerouting app of §6.1) can be attached per port.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

from .engine import Simulator
from .link import Link
from .packet import Packet

__all__ = ["ForwardingOverride", "Node", "Switch", "SwitchStats"]

#: Ingress hook signature: (packet, in_port) -> bool.  Returning False
#: consumes the packet (it does not continue to the TM).
IngressHook = Callable[[Packet, int], bool]

#: Egress hook signature: (packet, out_port) -> bool.  Returning False
#: drops the packet instead of transmitting it.
EgressHook = Callable[[Packet, int], bool]

#: Forwarding-override signature: (packet) -> out_port or None to fall
#: through to the next override in the chain / the routing table.
ForwardingOverride = Callable[[Packet], "int | None"]


class Node:
    """Base class for anything attached to links (switches and hosts)."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.links: dict[int, Link] = {}

    def attach_link(self, port: int, link: Link) -> None:
        self.links[port] = link

    def receive(self, packet: Packet, in_port: int) -> None:
        raise NotImplementedError

    def transmit(self, packet: Packet, out_port: int) -> None:
        """Hand a packet to the link on ``out_port``."""
        link = self.links.get(out_port)
        if link is None:
            raise KeyError(f"{self.name}: no link on port {out_port}")
        link.send(packet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name})"


class SwitchStats:
    """Aggregate counters a switch keeps about its own forwarding."""

    __slots__ = ("received", "forwarded", "dropped_no_route", "dropped_tm", "consumed")

    def __init__(self) -> None:
        self.received = 0
        self.forwarded = 0
        self.dropped_no_route = 0
        self.dropped_tm = 0
        self.consumed = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "received": self.received,
            "forwarded": self.forwarded,
            "dropped_no_route": self.dropped_no_route,
            "dropped_tm": self.dropped_tm,
            "consumed": self.consumed,
        }


class Switch(Node):
    """A destination-(entry-)routed switch with FANcY attachment points.

    Args:
        sim: event engine.
        name: switch name for logs and link labels.
        tm_queue_packets: TM admission limit per output port, expressed as
            the maximum number of packets queued on the outgoing link.
            ``None`` disables tail-drop (infinite buffers).
        telemetry: optional :class:`repro.telemetry.Telemetry`; when set,
            the registry reads ``switch_received_total`` /
            ``switch_forwarded_total`` / ``switch_consumed_total`` /
            ``switch_dropped_total{reason=tm|no_route}`` out of
            :attr:`stats`, and the switch feeds a TM queue-occupancy
            histogram ``switch_tm_queue_occupancy`` (sampled at admission
            time).
    """

    def __init__(self, sim: Simulator, name: str, tm_queue_packets: int | None = 1000,
                 telemetry: Any | None = None) -> None:
        super().__init__(sim, name)
        self.tm_queue_packets = tm_queue_packets
        self.routes: dict[Any, int] = {}
        self.default_port: int | None = None
        self.stats = SwitchStats()
        self._telemetry = telemetry
        #: The TM occupancy histogram, or None when nobody watches.
        self._m_tm_occupancy: Any = None
        if telemetry is not None:
            metrics = telemetry.metrics
            stats = self.stats
            metrics.read("switch_received_total", "Packets entering the parser",
                         stats, "received", switch=name)
            metrics.read("switch_forwarded_total",
                         "Packets leaving the egress pipeline",
                         stats, "forwarded", switch=name)
            metrics.read("switch_consumed_total", "Packets consumed by ingress hooks",
                         stats, "consumed", switch=name)
            metrics.read("switch_dropped_total", "Packets dropped inside the switch",
                         stats, "dropped_tm", switch=name, reason="tm")
            metrics.read("switch_dropped_total", "Packets dropped inside the switch",
                         stats, "dropped_no_route", switch=name, reason="no_route")
            self._m_tm_occupancy = metrics.histogram(
                "switch_tm_queue_occupancy",
                "Output-queue occupancy observed at TM admission (packets)",
                start=1.0, base=4.0, n_buckets=8, switch=name)
        #: Ingress hooks per port, by the packet class that reaches them:
        #: control messages walk every hook, DATA/ACK only those not
        #: registered ``control_only``.  Both keep registration order.
        self._ingress_hooks: dict[int, list[IngressHook]] = {}
        self._data_ingress_hooks: dict[int, list[IngressHook]] = {}
        #: Egress hooks per port, likewise: DATA/ACK walk every hook,
        #: control messages only those not registered ``data_only``.
        self._egress_hooks: dict[int, list[EgressHook]] = {}
        self._control_egress_hooks: dict[int, list[EgressHook]] = {}
        #: Composable forwarding-override chain (fast-rerouting apps, the
        #: fabric forwarder, ...).  Overrides are consulted in order; the
        #: first one returning a port wins, None falls through to the
        #: next override and finally to the routing table.
        self._override_chain: list[ForwardingOverride] = []
        #: Hot-path cache: None (no overrides), the single override
        #: itself, or the bound chain dispatcher.  ``receive`` reads this
        #: attribute directly so the single-override fast path costs
        #: exactly what the pre-chain plain attribute did.
        self._fwd_override: ForwardingOverride | None = None

    # -- configuration -----------------------------------------------------

    def add_route(self, entry: Any, out_port: int) -> None:
        self.routes[entry] = out_port

    def add_routes(self, entries: Any, out_port: int) -> None:
        for entry in entries:
            self.routes[entry] = out_port

    def set_default_route(self, out_port: int) -> None:
        self.default_port = out_port

    def add_ingress_hook(self, in_port: int, hook: IngressHook, front: bool = False,
                         control_only: bool = False) -> None:
        """Register an ingress hook; ``front`` puts it before existing ones
        (FANcY uses this so its control messages are consumed before any
        topology-level routing hooks see them).  A ``control_only`` hook
        can only consume control messages and is never called for
        DATA/ACK packets."""
        tables = ((self._ingress_hooks,) if control_only
                  else (self._ingress_hooks, self._data_ingress_hooks))
        for table in tables:
            hooks = table.setdefault(in_port, [])
            if front:
                hooks.insert(0, hook)
            else:
                hooks.append(hook)

    def add_egress_hook(self, out_port: int, hook: EgressHook,
                        data_only: bool = False) -> None:
        """Register an egress hook.  A ``data_only`` hook lets every
        control message pass and is never called for one."""
        self._egress_hooks.setdefault(out_port, []).append(hook)
        if not data_only:
            self._control_egress_hooks.setdefault(out_port, []).append(hook)

    # -- forwarding-override chain ------------------------------------------

    @property
    def forwarding_override(self) -> ForwardingOverride | None:
        """The effective override: None, the sole override, or the chain
        dispatcher.  Assignment replaces the whole chain (the historical
        single-override semantics); use :meth:`add_forwarding_override`
        to compose."""
        return self._fwd_override

    @forwarding_override.setter
    def forwarding_override(self, fn: ForwardingOverride | None) -> None:
        self._override_chain = [] if fn is None else [fn]
        self._refresh_override()

    def add_forwarding_override(self, fn: ForwardingOverride,
                                front: bool = False) -> None:
        """Append ``fn`` to the override chain (``front`` prepends).

        Earlier overrides win: the first one returning a port decides the
        packet.  Terminal resolvers (e.g. the fabric forwarder, which
        always returns a port) must therefore sit last, and reroute apps
        that shadow them prepend themselves with ``front=True``.
        """
        if fn in self._override_chain:
            raise ValueError(f"{self.name}: override {fn!r} already installed")
        if front:
            self._override_chain.insert(0, fn)
        else:
            self._override_chain.append(fn)
        self._refresh_override()

    def remove_forwarding_override(self, fn: ForwardingOverride) -> None:
        """Remove ``fn`` from the chain; unknown overrides are a no-op."""
        try:
            self._override_chain.remove(fn)
        except ValueError:
            return
        self._refresh_override()

    def _refresh_override(self) -> None:
        chain = self._override_chain
        if not chain:
            self._fwd_override = None
        elif len(chain) == 1:
            # Identity-preserving: with one override installed the public
            # attribute *is* that callable, exactly as before the chain.
            self._fwd_override = chain[0]
        else:
            self._fwd_override = self._run_override_chain

    def _run_override_chain(self, packet: Packet) -> int | None:
        for fn in self._override_chain:
            port = fn(packet)
            if port is not None:
                return port
        return None

    # -- data plane ---------------------------------------------------------

    def receive(self, packet: Packet, in_port: int) -> None:
        """Parser + ingress pipeline + TM + egress pipeline, inlined.

        This is the per-packet hot path (every forwarded packet runs it
        once per hop): route lookup and tail-drop admission live only
        here, and the egress stage is inlined rather than delegated to
        :meth:`_egress` — the method call and the duplicate ``links``
        lookup are measurable at packet rates.  Keep the egress stage in
        sync with :meth:`_egress` (also bound as :meth:`inject`), the
        entry point for locally generated packets and for topology code
        that feeds packets straight into an egress pipeline (past the TM).
        """
        stats = self.stats
        stats.received += 1
        is_control = packet.kind.is_control
        hooks = (self._ingress_hooks if is_control
                 else self._data_ingress_hooks).get(in_port)
        if hooks is not None:
            for hook in hooks:
                if not hook(packet, in_port):
                    stats.consumed += 1
                    return
        # -- TM: route lookup + tail-drop admission.
        out_port: int | None = None
        override = self._fwd_override
        if override is not None:
            out_port = override(packet)
        if out_port is None:
            out_port = self.routes.get(packet.entry, self.default_port)
        if out_port is None:
            stats.dropped_no_route += 1
            return
        link = self.links.get(out_port)
        if link is None:
            stats.dropped_no_route += 1
            return
        # Inlined link.queue_len (same definition): the property call is
        # measurable at per-packet admission rates.
        if self._m_tm_occupancy is not None:
            self._m_tm_occupancy.observe(len(link._tx_queue) + len(link._ctrl_queue))
        if self.tm_queue_packets is not None and \
                len(link._tx_queue) + len(link._ctrl_queue) >= self.tm_queue_packets:
            stats.dropped_tm += 1
            return
        # -- Egress pipeline (see _egress).
        hooks = (self._control_egress_hooks if is_control
                 else self._egress_hooks).get(out_port)
        if hooks is not None:
            for hook in hooks:
                if not hook(packet, out_port):
                    return
        stats.forwarded += 1
        link.send(packet)

    def _egress(self, packet: Packet, out_port: int) -> None:
        """Egress pipeline (after the TM): FANcY sender hooks live here.

        Entry point for locally generated packets (bound as
        :meth:`inject` below) and for topology/rerouting code that picked
        the port itself, so no TM admission applies; the forwarding hot
        path inlines the same stage in :meth:`receive`.
        """
        for hook in (self._control_egress_hooks if packet.kind.is_control
                     else self._egress_hooks).get(out_port, ()):
            if not hook(packet, out_port):
                return
        self.stats.forwarded += 1
        # Reverse-routed traffic (every ACK, via the topology ingress
        # hooks) lands here too, so resolve the link once instead of
        # paying transmit()'s second lookup.
        link = self.links.get(out_port)
        if link is None:
            raise KeyError(f"{self.name}: no link on port {out_port}")
        link.send(packet)

    #: Send a locally generated packet (e.g. a FANcY control message)
    #: straight to the egress pipeline of the target port: subject to its
    #: egress hooks (all but the ``data_only`` ones — the local FANcY
    #: sender's counting tap never sees its own Start/Stop leaving) and
    #: to on-wire failures, but not to TM admission.
    inject = _egress
