"""Topology builders: line, star, ring, Clos/fat-tree, and ISP-style graphs.

All builders return a :class:`~repro.fabric.graph.FabricGraph` whose
node and edge insertion order is a pure function of the arguments —
the order is what fixes switch port assignment, BFS tie-breaking and
ECMP hashing downstream, so builders must never iterate sets or draw
from unseeded RNGs (fancylint FCY001/FCY008).
"""

from __future__ import annotations

import random

from ..runtime.jobs import stable_seed
from .graph import FabricGraph

__all__ = ["line", "star", "ring", "clos", "fat_tree", "abilene", "random_isp"]


def line(n: int) -> FabricGraph:
    """``n`` switches in a path: ``s0 - s1 - ... - s{n-1}``.

    The partial-deployment path of §4.3: a monitor across its two ends
    counts over every legacy switch in between.
    """
    if n < 2:
        raise ValueError("line needs at least two switches")
    g = FabricGraph(f"line{n}")
    for i in range(n):
        g.add_node(f"s{i}")
    for i in range(n - 1):
        g.add_edge(f"s{i}", f"s{i + 1}")
    return g


def star(n: int) -> FabricGraph:
    """One ``hub`` with ``n`` peers ``peer0 ... peer{n-1}``.

    The paper's per-port framing (a switch keeping counting sessions with
    *all* its downstream switches, §3/§5): hub port ``i + 1`` faces peer
    ``i``.
    """
    if n < 1:
        raise ValueError("star needs at least one peer")
    g = FabricGraph(f"star{n}")
    g.add_node("hub")
    for i in range(n):
        g.add_edge("hub", f"peer{i}")
    return g


def ring(n: int) -> FabricGraph:
    """``n`` switches in a cycle: ``s0 - s1 - ... - s{n-1} - s0``."""
    if n < 3:
        raise ValueError("ring needs at least three switches")
    g = FabricGraph(f"ring{n}")
    for i in range(n):
        g.add_node(f"s{i}")
    for i in range(n):
        g.add_edge(f"s{i}", f"s{(i + 1) % n}")
    return g


def clos(n_leaves: int, n_spines: int) -> FabricGraph:
    """Two-tier leaf-spine Clos: every leaf connects to every spine."""
    if n_leaves < 2 or n_spines < 1:
        raise ValueError("clos needs >= 2 leaves and >= 1 spine")
    g = FabricGraph(f"clos{n_leaves}x{n_spines}")
    for i in range(n_leaves):
        g.add_node(f"leaf{i}")
    for j in range(n_spines):
        g.add_node(f"spine{j}")
    for i in range(n_leaves):
        for j in range(n_spines):
            g.add_edge(f"leaf{i}", f"spine{j}")
    return g


def fat_tree(k: int) -> FabricGraph:
    """The canonical ``k``-ary fat tree (k even).

    ``(k/2)^2`` cores, ``k`` pods of ``k/2`` aggregation and ``k/2``
    edge switches; core group ``g`` connects to aggregation switch
    ``g`` of every pod.  ``k=4`` yields 20 switches and 32 edges — 64
    directed links, enough for the ≥32-concurrent-session experiments.
    """
    if k < 2 or k % 2:
        raise ValueError("fat tree arity must be even and >= 2")
    half = k // 2
    g = FabricGraph(f"fat{k}")
    for j in range(half * half):
        g.add_node(f"core{j}")
    for p in range(k):
        for i in range(half):
            g.add_node(f"agg{p}-{i}")
        for i in range(half):
            g.add_node(f"edge{p}-{i}")
    for p in range(k):
        for a in range(half):
            for e in range(half):
                g.add_edge(f"agg{p}-{a}", f"edge{p}-{e}")
        for a in range(half):
            for c in range(half):
                g.add_edge(f"core{a * half + c}", f"agg{p}-{a}")
    return g


#: Internet2/Abilene backbone (11 PoPs, 14 links) — the Rocketfuel-style
#: ISP topology used by the fabric experiments' WAN scenario.
_ABILENE_EDGES = (
    ("Seattle", "Sunnyvale"),
    ("Seattle", "Denver"),
    ("Sunnyvale", "LosAngeles"),
    ("Sunnyvale", "Denver"),
    ("LosAngeles", "Houston"),
    ("Denver", "KansasCity"),
    ("KansasCity", "Houston"),
    ("KansasCity", "Indianapolis"),
    ("Houston", "Atlanta"),
    ("Chicago", "Indianapolis"),
    ("Chicago", "NewYork"),
    ("Indianapolis", "Atlanta"),
    ("Atlanta", "Washington"),
    ("NewYork", "Washington"),
)


def abilene() -> FabricGraph:
    """The Abilene (Internet2) research backbone."""
    g = FabricGraph("abilene")
    for a, b in _ABILENE_EDGES:
        g.add_edge(a, b)
    return g


def random_isp(n: int, extra_edges: int = 0, seed: int = 0) -> FabricGraph:
    """A connected random graph shaped like a small ISP core.

    A random spanning tree (guaranteeing connectivity) plus
    ``extra_edges`` random chords.  Fully determined by ``(n,
    extra_edges, seed)`` via :func:`repro.runtime.stable_seed`.
    """
    if n < 2:
        raise ValueError("random ISP needs at least two nodes")
    rng = random.Random(stable_seed(seed, "isp", n, extra_edges))
    g = FabricGraph(f"isp{n}")
    names = [f"r{i}" for i in range(n)]
    for name in names:
        g.add_node(name)
    for i in range(1, n):
        g.add_edge(names[rng.randrange(i)], names[i])
    attempts = 0
    added = 0
    while added < extra_edges and attempts < extra_edges * 20 + 20:
        attempts += 1
        a, b = rng.sample(names, 2)
        if not g.has_edge(a, b):
            g.add_edge(a, b)
            added += 1
    return g
