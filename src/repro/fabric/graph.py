"""Topology graphs and their materialization onto the simulator.

:class:`FabricGraph` is a deliberately small undirected graph whose
adjacency is stored in *insertion-ordered* dicts — never sets — so every
traversal (BFS, ECMP enumeration, port assignment) is reproducible under
any ``PYTHONHASHSEED`` (fancylint FCY003/FCY008 guard this).

:class:`FabricNetwork` turns a graph into live ``Switch``/``Link``
objects.  Forwarding is destination-based per monitoring entry: an entry
registered with :meth:`FabricNetwork.add_entry` gets next-hop port sets
installed on **every** switch (distance-vector style), so a packet
steered off its shortest path — by a selective reroute — keeps making
progress from wherever it lands.  ECMP ties are broken by a
flowlet-stable CRC32 hash of ``(switch, entry, flow_id, direction)``:
one flow always takes one port, so rerouting never reorders within a
flow, and the choice is independent of ``hash()`` randomization.  Being
constant per flow, the choice is hashed once per (switch, flow) and
memoised in the switch's forwarder, not recomputed per packet.
"""

from __future__ import annotations

import zlib
from collections import deque
from collections.abc import Callable, Sequence
from typing import Any

from ..simulator.apps import Host
from ..simulator.engine import Simulator
from ..simulator.link import Link, connect_duplex
from ..simulator.switch import Switch

__all__ = ["FabricGraph", "FabricNetwork", "PORT_TO_HOST", "flowlet_port"]

#: Every fabric switch reserves port 0 for its (lazily created) host.
PORT_TO_HOST = 0


class FabricGraph:
    """An undirected graph with deterministic adjacency order.

    Nodes and neighbors keep insertion order; adjacency is a
    dict-of-dicts rather than a dict-of-sets so iteration never depends
    on ``PYTHONHASHSEED``.
    """

    def __init__(self, name: str = "fabric") -> None:
        self.name = name
        # node -> {neighbor: None}; the inner dict is an ordered set.
        self._adj: dict[str, dict[str, None]] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, node: str) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        self.add_node(a)
        self.add_node(b)
        self._adj[a].setdefault(b)
        self._adj[b].setdefault(a)

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return list(self._adj)

    def neighbors(self, node: str) -> list[str]:
        return list(self._adj[node])

    def degree(self, node: str) -> int:
        return len(self._adj[node])

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, {})

    def edges(self) -> list[tuple[str, str]]:
        """Undirected edges, each once, in insertion order."""
        seen: dict[tuple[str, str], None] = {}
        for a in self._adj:
            for b in self._adj[a]:
                if (b, a) not in seen:
                    seen[(a, b)] = None
        return list(seen)

    def directed_links(self) -> list[tuple[str, str]]:
        """Both directions of every edge, in insertion order."""
        out: list[tuple[str, str]] = []
        for a, b in self.edges():
            out.append((a, b))
            out.append((b, a))
        return out

    def distances(self, dst: str, without: tuple[str, str] | None = None) -> dict[str, int]:
        """Hop counts to ``dst`` (BFS over reversed edges).

        ``without`` excludes one *directed* link ``(a, b)``: paths may
        not forward over a→b (the pruned-graph computation used for
        repair paths around a failed directional link).
        """
        dist = {dst: 0}
        queue = deque([dst])
        while queue:
            node = queue.popleft()
            for nbr in self._adj[node]:
                # Traversing dst-outwards: nbr would forward nbr -> node.
                if without is not None and (nbr, node) == without:
                    continue
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    queue.append(nbr)
        return dist

    def ecmp_next_hops(self, src: str, dst: str) -> list[str]:
        """Neighbors of ``src`` on some shortest path toward ``dst``."""
        if src == dst:
            return []
        dist = self.distances(dst)
        if src not in dist:
            return []
        return [n for n in self._adj[src] if dist.get(n) == dist[src] - 1]

    def shortest_path(
        self, src: str, dst: str, without: tuple[str, str] | None = None
    ) -> list[str] | None:
        """One deterministic shortest path, optionally avoiding a
        directed link; ``None`` when disconnected."""
        if src == dst:
            return [src]
        dist = self.distances(dst, without=without)
        if src not in dist:
            return None
        path = [src]
        node = src
        while node != dst:
            for nbr in self._adj[node]:
                if without is not None and (node, nbr) == without:
                    continue
                if dist.get(nbr) == dist[node] - 1:
                    path.append(nbr)
                    node = nbr
                    break
            else:  # pragma: no cover - dist guarantees a next hop
                return None
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FabricGraph({self.name!r}, nodes={len(self._adj)}, "
                f"edges={len(self.edges())})")


def flowlet_port(node: str, entry: Any, flow_id: int, reverse: bool,
                 ports: Sequence[int]) -> int:
    """Deterministic flowlet-stable ECMP choice among ``ports``.

    CRC32 rather than ``hash()``: stable across processes and
    ``PYTHONHASHSEED`` values, so sweeps replay bit-identically.
    """
    key = f"{node}|{entry!r}|{flow_id}|{int(reverse)}"
    return ports[zlib.crc32(key.encode()) % len(ports)]


class FabricNetwork:
    """A :class:`FabricGraph` materialized as switches, links and hosts.

    Port convention: port 0 of every switch faces its host (created
    lazily by :meth:`host`); ports 1.. face the node's neighbors in
    adjacency order.  Directed links are addressable by the id
    ``"A->B"`` — the same id :class:`~repro.fabric.deployment.
    FabricDeployment` keys its monitors by and fabric chaos schedules
    target.
    """

    def __init__(
        self,
        sim: Simulator,
        graph: FabricGraph,
        link_delay_s: float = 0.010,
        link_bandwidth_bps: float | None = 100e9,
        access_delay_s: float = 0.0001,
        tm_queue_packets: int | None = 10000,
        telemetry: Any | None = None,
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.telemetry = telemetry
        self.switches: dict[str, Switch] = {}
        self.hosts: dict[str, Host] = {}
        self._access_delay_s = access_delay_s
        #: directed "A->B" -> Link carrying A's transmissions toward B.
        self.links: dict[str, Link] = {}
        #: (node, neighbor) -> node's egress port toward that neighbor.
        self._port_to: dict[tuple[str, str], int] = {}
        #: (node, port) -> the neighbor behind that port.
        self._peer_on_port: dict[tuple[str, int], str] = {}
        #: (entry, reverse) -> {node: (ports,)} ECMP port sets.
        self._entry_ports: dict[tuple[Any, bool], dict[str, tuple[int, ...]]] = {}
        #: node -> its forwarder's memo, (entry, flow_id, reverse) -> port:
        #: a pure cache of ``_entry_ports``, cleared whenever that changes.
        self._port_memos: dict[str, dict[tuple[Any, int, bool], int]] = {}
        self.entry_src: dict[Any, str] = {}
        self.entry_dst: dict[Any, str] = {}

        for node in graph.nodes:
            self.switches[node] = Switch(
                sim, node, tm_queue_packets=tm_queue_packets, telemetry=telemetry
            )
            for i, nbr in enumerate(graph.neighbors(node)):
                port = PORT_TO_HOST + 1 + i
                self._port_to[(node, nbr)] = port
                self._peer_on_port[(node, port)] = nbr
        for a, b in graph.edges():
            ab, ba = connect_duplex(
                sim, self.switches[a], self._port_to[(a, b)],
                self.switches[b], self._port_to[(b, a)],
                bandwidth_bps=link_bandwidth_bps, delay_s=link_delay_s,
                telemetry=telemetry,
            )
            self.links[f"{a}->{b}"] = ab
            self.links[f"{b}->{a}"] = ba
        for node in graph.nodes:
            self.switches[node].add_forwarding_override(self._forwarder(node))

    # -- addressing --------------------------------------------------------

    def switch(self, node: str) -> Switch:
        return self.switches[node]

    @property
    def access_delay_s(self) -> float:
        """Host access-link delay (the first leg of any fluid delay chain)."""
        return self._access_delay_s

    def host(self, node: str) -> Host:
        """The node's host, wired to switch port 0 on first use."""
        h = self.hosts.get(node)
        if h is None:
            h = Host(self.sim, f"host-{node}", auto_sink=True)
            connect_duplex(self.sim, h, 0, self.switches[node], PORT_TO_HOST,
                           bandwidth_bps=None, delay_s=self._access_delay_s)
            self.hosts[node] = h
        return h

    def port_to(self, node: str, neighbor: str) -> int:
        """``node``'s egress port toward an adjacent ``neighbor``."""
        try:
            return self._port_to[(node, neighbor)]
        except KeyError:
            raise KeyError(f"{node} is not adjacent to {neighbor}") from None

    def link(self, a: str, b: str) -> Link:
        """The directed link carrying ``a``'s transmissions toward ``b``."""
        return self.links[f"{a}->{b}"]

    @staticmethod
    def link_id(a: str, b: str) -> str:
        return f"{a}->{b}"

    # -- entries and forwarding --------------------------------------------

    def add_entry(self, entry: Any, src: str, dst: str) -> None:
        """Register a monitoring entry flowing ``src`` host → ``dst`` host.

        Installs ECMP next-hop port sets on every switch for both the
        forward direction (toward ``dst``) and the reverse (ACKs toward
        ``src``), so reroutes landing traffic anywhere keep it routable.
        """
        if src == dst:
            raise ValueError("entry endpoints must differ")
        if entry in self.entry_dst:
            raise ValueError(f"entry {entry!r} already registered")
        self.host(src)
        self.host(dst)
        self.entry_src[entry] = src
        self.entry_dst[entry] = dst
        self._entry_ports[(entry, False)] = self._ports_toward(dst)
        self._entry_ports[(entry, True)] = self._ports_toward(src)
        for memo in self._port_memos.values():
            memo.clear()

    def _ports_toward(self, target: str) -> dict[str, tuple[int, ...]]:
        dist = self.graph.distances(target)
        out: dict[str, tuple[int, ...]] = {}
        for node in self.graph.nodes:
            if node == target:
                out[node] = (PORT_TO_HOST,)
                continue
            if node not in dist:
                continue  # disconnected: no route installed
            hops = [n for n in self.graph.neighbors(node)
                    if dist.get(n) == dist[node] - 1]
            out[node] = tuple(self._port_to[(node, n)] for n in hops)
        return out

    def flow_path(self, entry: Any, flow_id: int,
                  reverse: bool = False) -> list[str]:
        """The node sequence one flow takes under baseline ECMP.

        Replays the forwarder's flowlet-hash decisions without any
        reroute overrides — how experiments pick a failed link that is
        guaranteed to carry a given flow's packets.
        """
        table = self._entry_ports[(entry, reverse)]
        node = self.entry_dst[entry] if reverse else self.entry_src[entry]
        target = self.entry_src[entry] if reverse else self.entry_dst[entry]
        path = [node]
        while node != target:
            ports = table[node]
            port = ports[0] if len(ports) == 1 else flowlet_port(
                node, entry, flow_id, reverse, ports)
            node = self._peer_on_port[(node, port)]
            path.append(node)
        return path

    def delay_legs(self, entry: Any, flow_id: int, link_id: str,
                   packet_size: int) -> tuple[float, ...] | None:
        """Delay chain host → ``link_id``'s egress, or None when the flow's
        baseline path does not cross that link.

        Mirrors the discrete pipeline's per-hop additions in order: the
        instant access link delivers at ``now + access_delay``, each
        switch-switch hop serializes then propagates, and the monitor's
        egress tap fires inline at the arrival instant — so folding these
        legs left-to-right reproduces the exact float the packet model
        compares against the counting-window boundary.
        """
        a, b = self.endpoints(link_id)
        path = self.flow_path(entry, flow_id)
        idx = path.index(a) if a in path else -1
        if idx < 0 or path[idx + 1:idx + 2] != [b]:
            return None
        legs = [self._access_delay_s]
        for i in range(idx):
            link = self.link(path[i], path[i + 1])
            if link.bandwidth_bps:
                legs.append(packet_size * 8 / link.bandwidth_bps)
            legs.append(link.delay_s)
        return tuple(legs)

    def entry_links(self, entry: Any) -> list[str]:
        """Directed switch-switch link ids on the entry's forward ECMP DAG."""
        dst = self.entry_dst[entry]
        src = self.entry_src[entry]
        dist = self.graph.distances(dst)
        out: list[str] = []
        reached = {src}
        frontier = [src]
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                if node == dst:
                    continue
                for nbr in self.graph.neighbors(node):
                    if dist.get(nbr) == dist[node] - 1:
                        out.append(self.link_id(node, nbr))
                        if nbr not in reached:
                            reached.add(nbr)
                            nxt.append(nbr)
            frontier = nxt
        return out

    def _forwarder(self, node: str) -> Callable[[Any], int | None]:
        """Terminal member of ``node``'s override chain: entry ECMP.

        The port is constant per (entry, flow, direction), so it is
        resolved once and memoised; entries the fabric does not know
        stay unmemoised and fall through to the routing table.
        """
        entry_ports = self._entry_ports
        memo: dict[tuple[Any, int, bool], int] = {}
        self._port_memos[node] = memo

        def forward(packet: Any) -> int | None:
            key = (packet.entry, packet.flow_id, packet.reverse)
            port = memo.get(key)
            if port is None:
                table = entry_ports.get((packet.entry, packet.reverse))
                if table is None:
                    return None
                ports = table.get(node)
                if ports is None:
                    return None
                port = memo[key] = ports[0] if len(ports) == 1 else flowlet_port(
                    node, packet.entry, packet.flow_id, packet.reverse, ports)
            return port

        return forward

    # -- bookkeeping -------------------------------------------------------

    def directed_link_ids(self) -> list[str]:
        return [self.link_id(a, b) for a, b in self.graph.directed_links()]

    def link_stats(self) -> dict[str, dict[str, int]]:
        return {lid: link.stats.as_dict()
                for lid, link in sorted(self.links.items())}

    def endpoints(self, link_id: str) -> tuple[str, str]:
        a, _, b = link_id.partition("->")
        if not b or f"{a}->{b}" not in self.links:
            raise KeyError(f"unknown fabric link {link_id!r}")
        return a, b
