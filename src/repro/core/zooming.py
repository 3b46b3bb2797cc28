"""The FANcY zooming algorithm over hash-based trees (§4.2).

The upstream switch incrementally builds partial hash paths of increasing
length for counters affected by a failure: each counting session narrows
the candidate set by one level, until mismatching *leaf* counters are
reported.  Two operating modes are implemented:

* **Pipelined** (``HashTreeParams.pipelined=True``, the mode evaluated in
  §5): several explorations proceed simultaneously at different tree
  levels.  Physical capacity follows Appendix A.3 — a full k-ary node
  tree, i.e. at most ``k^j`` concurrent explorations with their frontier
  at level ``j``, and up to ``k^(d-1)`` paths explored in ``d`` sessions.
  Root-level counters keep monitoring all traffic throughout.

* **Non-pipelined** (the Tofino prototype's mode, Appendix B.1): a single
  zooming wave moves all-at-once through the levels — stage 0 counts at
  the root for all packets; stage ``j>0`` counts only packets matching the
  current frontier prefixes, in level-``j`` nodes.  On any session without
  mismatches the wave resets to stage 0.

Counting model: a packet's tag names the root counter (``tag[0]``) and the
frontier node/counter (``tag[:-1]`` / ``tag[-1]``).  In pipelined mode both
sides increment the root counter and the deepest matching frontier node;
intermediate levels are not double-counted, keeping both sides consistent
without the downstream ever hashing entries.  Both strategies count
through :meth:`~repro.core.hashtree.TreeCounters.add`: ``process_packet``
as a window of one packet, ``absorb`` for a fluid window of ``n``.

Selection policy: among mismatching counters the algorithm zooms the ones
with the **maximum difference** (§4.2 footnote 1: prioritizing the largest
losses).  When ``suppress_known`` is set (default), root/interior
candidates whose subtree already contains only known-failed leaf paths are
deprioritized, which keeps multi-entry failure exploration from re-walking
already-reported paths; this plays the role the selective-rerouting
application plays in the paper's deployment (flagged traffic stops
mismatching once rerouted).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Any

from ..simulator.packet import Packet
from .hashtree import HashTree, HashTreeParams, NodePath, TreeCounters
from .output import FailureKind, FailureReport, HashPathFlags

__all__ = ["TreeSenderStrategy", "TreeReceiverStrategy"]

#: Report callback: receives a FailureReport.
ReportCallback = Callable[[FailureReport], None]


class TreeSenderStrategy:
    """Upstream-side hash-tree counting and zooming.

    Implements the SenderStrategy interface of the counting-protocol FSM:
    ``begin_session`` / ``process_packet`` / ``end_session``.

    State is sized by use: the counters hold the root row until zooming
    activates a node, and the tie-break ``random.Random(seed)`` is created
    the first time candidates are ranked — the same stream it would have
    drawn had it been created here, since nothing else draws from it.
    """

    def __init__(
        self,
        tree: HashTree,
        on_report: ReportCallback | None = None,
        output_flags: HashPathFlags | None = None,
        suppress_known: bool = True,
        seed: int = 0,
        now_fn: Callable[[], float] | None = None,
        port: int = -1,
        entry_of: Callable[[Packet], Any] | None = None,
        telemetry: Any | None = None,
        name: str = "tree",
    ) -> None:
        self.tree = tree
        self.params: HashTreeParams = tree.params
        self.counters = TreeCounters(self.params)
        self.on_report = on_report
        self.output_flags = output_flags if output_flags is not None else HashPathFlags()
        self.suppress_known = suppress_known
        self._seed = seed
        #: Tie-break stream, created by the first ranking
        #: (:meth:`_by_max_difference`); a sender that never zooms has none.
        self._rng: random.Random | None = None
        self.now_fn = now_fn or (lambda: 0.0)
        self.port = port
        #: Entry classifier (§1); defaults to the destination prefix.
        self.entry_of = entry_of if entry_of is not None else (lambda p: p.entry)
        self.name = name
        #: Plain ``Any`` (not ``Any | None``): attribute access is always
        #: guarded by the ``_timeline`` check on the hot paths.
        self.telemetry: Any = telemetry
        self._timeline: Any = telemetry.timeline if telemetry is not None else None
        self._traces: Any = getattr(telemetry, "traces", None)
        #: The clock of the session end being processed: every frontier
        #: change happens inside one, and an observer reads it here
        #: rather than asking ``now_fn`` again.
        self._now = 0.0
        #: Open zoom-span ids by frontier path (durative: activate→retreat).
        self._zoom_spans: dict[NodePath, int | None] = {}
        self._m_frontier: Any = (
            telemetry.metrics.gauge(
                "fancy_zoom_frontier", "Active zooming explorations", fsm=name)
            if telemetry is not None else None
        )

        #: Active explorations, keyed by frontier node path (len 1..d-1).
        self.frontier: set[NodePath] = set()
        #: Leaf hash paths already reported (mirror of the output Bloom
        #: filter, exact, for suppression and duplicate avoidance).
        self.known_failed: set[NodePath] = set()
        #: Non-pipelined wave stage (0 = root); unused in pipelined mode.
        self.stage = 0
        #: ``entry -> tag`` memo shared by :meth:`process_packet` and
        #: :meth:`tag_for_entry`.  A tag is a function of the entry's hash
        #: path, the frontier and the wave stage, so every write to either
        #: of the latter clears it; ``None`` (staged, off-frontier) is
        #: memoised like any tag.  Never outgrows the tree's own
        #: hash-path cache (:meth:`_resolve_tag`).
        self._tags: dict[Any, tuple[int, ...] | None] = {}
        self.sessions_completed = 0
        #: First time any zooming started (the paper's "technical"
        #: detection instant) and per-report bookkeeping.
        self.first_zoom_time: float | None = None
        self.uniform_reports = 0

    # -- helpers --------------------------------------------------------------

    def _level_capacity(self, level: int) -> int:
        """Max concurrent explorations with frontier at ``level``."""
        return self.params.split ** level

    def _frontier_at(self, level: int) -> list[NodePath]:
        return [p for p in self.frontier if len(p) == level]

    def _subtree_fully_known(self, prefix: NodePath) -> bool:
        """True if some known-failed leaf lies under ``prefix`` — used to
        deprioritize re-exploration of already-reported failures."""
        n = len(prefix)
        return any(q[:n] == prefix for q in self.known_failed)

    def _activate(self, path: NodePath) -> None:
        self.frontier.add(path)
        self._tags.clear()
        self.counters.activate_node(path)
        if self._timeline is not None:
            self._timeline.record(self._now, self.name, "zoom_descend",
                                  fsm=self.name, path=path, level=len(path))
            self._m_frontier.set(len(self.frontier))
            self.telemetry.metrics.counter(
                "fancy_zoom_activations_total",
                "Zooming-frontier node activations, by tree level",
                fsm=self.name, level=str(len(path))).inc()
        if self._traces is not None and self._traces.active:
            self._zoom_spans[path] = self._traces.open_span(
                f"zoom L{len(path)} {list(path)}", self._now,
                category="zoom", fsm=self.name, path=path, level=len(path))

    def _deactivate(self, path: NodePath) -> None:
        self.frontier.discard(path)
        self._tags.clear()
        self.counters.deactivate_node(path)
        if self._timeline is not None:
            self._timeline.record(self._now, self.name, "zoom_retreat",
                                  fsm=self.name, path=path, level=len(path))
            self._m_frontier.set(len(self.frontier))
        if self._traces is not None:
            self._traces.close_span(self._zoom_spans.pop(path, None), self._now)

    # -- SenderStrategy interface ----------------------------------------------

    def begin_session(self, session_id: int) -> None:
        self.counters.reset()

    def process_packet(self, packet: Packet, session_id: int,
                       entry: Any = None) -> bool:
        """Tag a best-effort packet and count it: :meth:`absorb` of one.

        Steady state is one memo hit plus :meth:`TreeCounters.add` (one
        or two ``row * width + idx`` register updates per packet).
        """
        if entry is None:
            entry = self.entry_of(packet)
        try:
            tag = self._tags[entry]
        except KeyError:
            tag = self._resolve_tag(entry)
        if tag is None:
            return False
        packet.tag = tag
        packet.tag_session = session_id
        packet.tag_dedicated = False
        self.counters.add(tag, 1)
        return True

    def _resolve_tag(self, entry: Any) -> tuple[int, ...] | None:
        """Memo miss: derive ``entry``'s tag for this window and keep it."""
        if len(self._tags) >= self.tree.cache_size:  # unbounded entry churn
            self._tags.clear()
        tag = self._tags[entry] = self._tag_for(self.tree.hash_path(entry))
        return tag

    def _tag_for(self, hp: tuple[int, ...]) -> tuple[int, ...] | None:
        if self.params.pipelined or self.stage == 0:
            frontier = self.frontier
            if not frontier:
                # Common case in healthy operation: nothing has zoomed, so
                # every packet tags at the root level.  Skips depth-1 slice
                # + set lookups per packet.
                return hp[:1]
            # Deepest active frontier node along the packet's hash path.
            deepest = 0
            for level in range(1, self.params.depth):
                if hp[:level] in frontier:
                    deepest = level
            if deepest == 0:
                return hp[:1]
            return hp[: deepest + 1]
        # Non-pipelined zoom stage: only packets matching a frontier prefix
        # are tagged/counted at all.
        if hp[: self.stage] in self.frontier:
            return hp[: self.stage + 1]
        return None

    # -- fluid traffic interface (repro.simulator.fluid) ---------------------

    def tag_for_entry(self, entry: Any) -> tuple[int, ...] | None:
        """The tag packets of ``entry`` would carry right now.

        Valid for a whole counting window: the frontier only moves at
        ``end_session``, which runs strictly between windows — and every
        move clears the memo this reads.
        """
        try:
            return self._tags[entry]
        except KeyError:
            return self._resolve_tag(entry)

    def absorb(self, tag: tuple[int, ...], n: int) -> None:
        """Count ``n`` packets of one tag (a fluid window)."""
        self.counters.add(tag, n)

    def end_session(self, remote: dict[NodePath, list[int]],
                    session_id: int) -> list[FailureReport]:
        """Compare against the downstream snapshot and advance the zoom."""
        if not isinstance(remote, dict):
            # Defense-in-depth against malformed Report payloads (checksum
            # verification normally rejects these upstream; see
            # repro.core.counters.coerce_remote_snapshot): a garbage
            # snapshot reads as "no remote nodes", i.e. loss semantics,
            # and must never crash the FSM.
            remote = {}
        reports = (
            self._end_session_pipelined(remote, session_id)
            if self.params.pipelined
            else self._end_session_staged(remote, session_id)
        )
        self.sessions_completed += 1
        for report in reports:
            if self.on_report is not None:
                self.on_report(report)
        return reports

    # -- pipelined mode ---------------------------------------------------------

    def _end_session_pipelined(
        self, remote: dict[NodePath, list[int]], session_id: int
    ) -> list[FailureReport]:
        now = self._now = self.now_fn()
        reports: list[FailureReport] = []

        root_mism = self.counters.mismatches(remote, ())
        if len(root_mism) > self.params.width // 2:
            # Majority of root counters disagree: uniform random failure,
            # "localized" to all entries (§4.2).
            self.uniform_reports += 1
            reports.append(
                FailureReport(FailureKind.UNIFORM, now, lost_packets=sum(d for _, d in root_mism),
                              session_id=session_id, port=self.port)
            )
            return reports

        # Advance existing explorations, deepest first so freed capacity is
        # visible to shallower spawns within the same session end.
        for path in sorted(self.frontier, key=len, reverse=True):
            if path not in self.frontier:
                continue
            mism = self.counters.mismatches(remote, path)
            if not mism:
                # Branch went quiet: transient loss or wrong path — retreat.
                self._deactivate(path)
                continue
            level = len(path)
            if level == self.params.depth - 1:
                # Leaf level: report every mismatching leaf counter.
                for idx, diff in mism:
                    leaf = path + (idx,)
                    if leaf not in self.known_failed:
                        self.known_failed.add(leaf)
                        self.output_flags.flag(leaf)
                        reports.append(
                            FailureReport(FailureKind.TREE_LEAF, now, hash_path=leaf,
                                          lost_packets=diff, session_id=session_id,
                                          port=self.port)
                        )
                self._deactivate(path)
                continue
            # Interior: the frontier moves down — free this node, then spawn
            # up to `split` children on the max-difference mismatching
            # counters, within the next level's capacity.
            self._deactivate(path)
            self._spawn_children(path, mism, level + 1)

        # Start new explorations from mismatching root counters.
        if root_mism:
            if self.first_zoom_time is None:
                self.first_zoom_time = now
            if self._traces is not None:
                self._traces.ensure_episode(now, cause="divergence",
                                            fsm=self.name)
                self._traces.emit("divergence", now, category="counters",
                                  fsm=self.name, counters=len(root_mism))
            self._spawn_children((), root_mism, 1)
        return reports

    def _spawn_children(
        self, parent: NodePath, mism: list[tuple[int, int]], child_level: int
    ) -> None:
        capacity = self._level_capacity(child_level) - len(self._frontier_at(child_level))
        budget = min(self.params.split, capacity)
        if budget <= 0:
            return
        candidates = [
            (idx, diff) for idx, diff in mism if parent + (idx,) not in self.frontier
        ]
        if self.suppress_known:
            fresh = [c for c in candidates if not self._subtree_fully_known(parent + (c[0],))]
            stale = [c for c in candidates if self._subtree_fully_known(parent + (c[0],))]
            ordered = self._by_max_difference(fresh) + self._by_max_difference(stale)
        else:
            ordered = self._by_max_difference(candidates)
        for idx, _diff in ordered[:budget]:
            self._activate(parent + (idx,))

    def _by_max_difference(self, candidates: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Sort by descending loss difference, random tie-break."""
        if self._rng is None:
            self._rng = random.Random(self._seed)
        draw = self._rng.random
        return sorted(candidates, key=lambda c: (-c[1], draw()))

    # -- non-pipelined (staged) mode ----------------------------------------------

    def _end_session_staged(
        self, remote: dict[NodePath, list[int]], session_id: int
    ) -> list[FailureReport]:
        now = self._now = self.now_fn()
        reports: list[FailureReport] = []

        if self.stage == 0:
            root_mism = self.counters.mismatches(remote, ())
            if len(root_mism) > self.params.width // 2:
                self.uniform_reports += 1
                reports.append(
                    FailureReport(FailureKind.UNIFORM, now,
                                  lost_packets=sum(d for _, d in root_mism),
                                  session_id=session_id, port=self.port)
                )
                return reports
            if root_mism:
                if self.first_zoom_time is None:
                    self.first_zoom_time = now
                if self._traces is not None:
                    self._traces.ensure_episode(now, cause="divergence",
                                                fsm=self.name)
                    self._traces.emit("divergence", now, category="counters",
                                      fsm=self.name, counters=len(root_mism))
                self._reset_wave()
                self._spawn_wave((), root_mism)
                if self.frontier:
                    self.stage = 1
                    self._tags.clear()
            return reports

        # Stage >= 1: every frontier node sits at level == stage.
        next_frontier_sources: list[tuple[NodePath, list[tuple[int, int]]]] = []
        for path in list(self.frontier):
            mism = self.counters.mismatches(remote, path)
            if mism:
                next_frontier_sources.append((path, mism))
        if not next_frontier_sources:
            self._reset_wave()
            return reports

        if self.stage == self.params.depth - 1:
            for path, mism in next_frontier_sources:
                for idx, diff in mism:
                    leaf = path + (idx,)
                    if leaf not in self.known_failed:
                        self.known_failed.add(leaf)
                        self.output_flags.flag(leaf)
                        reports.append(
                            FailureReport(FailureKind.TREE_LEAF, now, hash_path=leaf,
                                          lost_packets=diff, session_id=session_id,
                                          port=self.port)
                        )
            self._reset_wave()
            return reports

        # Move the whole wave one level deeper.
        for path in list(self.frontier):
            self._deactivate(path)
        for path, mism in next_frontier_sources:
            self._spawn_wave(path, mism)
        self.stage += 1
        self._tags.clear()
        return reports

    def _reset_wave(self) -> None:
        for path in list(self.frontier):
            self._deactivate(path)
        self.stage = 0
        self._tags.clear()

    def _spawn_wave(self, parent: NodePath, mism: list[tuple[int, int]]) -> None:
        candidates = list(mism)
        if self.suppress_known:
            fresh = [c for c in candidates if not self._subtree_fully_known(parent + (c[0],))]
            stale = [c for c in candidates if self._subtree_fully_known(parent + (c[0],))]
            ordered = self._by_max_difference(fresh) + self._by_max_difference(stale)
        else:
            ordered = self._by_max_difference(candidates)
        for idx, _diff in ordered[: self.params.split]:
            self._activate(parent + (idx,))

    # -- introspection ------------------------------------------------------------

    @property
    def is_zooming(self) -> bool:
        return bool(self.frontier)

    def active_explorations(self) -> list[NodePath]:
        return sorted(self.frontier)


class TreeReceiverStrategy:
    """Downstream-side tree counters, driven purely by packet tags.

    The receiver never hashes entries: tags name the root counter and the
    frontier node/counter (§4.2), and nodes are materialized on demand the
    first time a tag references them.
    """

    def __init__(self, params: HashTreeParams) -> None:
        self.params = params
        self.counters = TreeCounters(params)

    def begin_session(self, session_id: int) -> None:
        # Fresh session: drop all zoom nodes, keep (and zero) the root.
        # clear() reuses the flat counter arena instead of reallocating.
        self.counters.clear()

    def process_packet(self, packet: Packet, session_id: int) -> bool:
        if packet.tag is None or packet.tag_dedicated:
            return False
        if packet.tag_session != session_id:
            return False  # stale tag from a closed session
        self.counters.add(packet.tag, 1)
        return True

    def absorb(self, tag: tuple[int, ...], n: int) -> None:
        """Count ``n`` packets of one tag (a fluid window); like
        :meth:`process_packet`, materializes the node the tag names."""
        self.counters.add(tag, n)

    def snapshot(self) -> dict[NodePath, list[int]]:
        return self.counters.snapshot()
