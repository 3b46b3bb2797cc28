"""Determinism-equivalence tests for the simulator fast paths.

The optimization contract (see ``docs/PERFORMANCE.md``) is that every
fast path — fused link events, flat-array tree counters — consumes the same RNG draws in the same order as its reference
and therefore produces *identical* experiment outputs.  The link
reference is chosen per link: ``Link(fused=False)``, set here on every
link a scenario builds.  Two modes are compared to it: ``fused`` (the
shipped pipeline) and ``observed`` (the same pipeline with telemetry and
a :class:`PacketTracer` on every link, which must not change a thing).
These tests enforce the contract end-to-end:

* fig7-style (dedicated counters) and fig9-style (hash-tree zooming)
  scenarios via the canonical :func:`repro.experiments.runner.
  run_entry_failure`, comparing whole scored ``RunResult`` dicts;
* a drained two-switch FANcY run comparing ``LinkStats``, per-entry
  counters, zooming state, and the full failure-report log;
* the flat-array :class:`TreeCounters` against an in-test dict-of-lists
  reference model under randomized operation interleavings.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams, TreeCounters
from repro.experiments.runner import ExperimentSpec, run_entry_failure
from repro.simulator import topology
from repro.simulator.apps import FlowGenerator
from repro.simulator.engine import Simulator
from repro.simulator.failures import EntryLossFailure, UniformLossFailure
from repro.simulator.link import Link
from repro.simulator.topology import TwoSwitchTopology
from repro.simulator.tracing import PacketTracer
from repro.simulator.udp import UdpSource
from repro.telemetry import Telemetry
from repro.traffic.synthetic import EntrySize

#: The link modes under test, each compared to "reference".
MODES = ("fused", "observed")


@contextmanager
def _links_as(mode: str):
    """Build every link of the enclosed scenario in ``mode``.

    Yields the tracers attached in ``observed`` mode (empty otherwise) so
    a test can check that they saw traffic.
    """
    tracers: list[PacketTracer] = []
    build = topology.connect_duplex

    def connect_duplex(*args, **kwargs):
        links = build(*args, **kwargs)
        for link in links:
            if mode == "reference":
                link.fused = False
            elif mode == "observed":
                tracers.append(PacketTracer(link.sim))
                tracers[-1].attach_link(link)
        return links

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "connect_duplex", connect_duplex)
        yield tracers


def _telemetry(mode: str) -> Telemetry | None:
    return Telemetry() if mode == "observed" else None

SPECS = {
    # §5.1.1-style: one failed entry on dedicated counters.
    "fig7": ExperimentSpec(
        entry_size=EntrySize(1e6, 20), loss_rate=0.1, n_failed=1,
        n_background=4, mode="dedicated", duration_s=4.0,
        max_pps_per_entry=200, seed=7,
    ),
    # §5.1.2-style: everything on the hash tree, zooming to a leaf.
    "fig9": ExperimentSpec(
        entry_size=EntrySize(1e6, 20), loss_rate=0.5, n_failed=1,
        n_background=6, mode="tree",
        tree_params=HashTreeParams(width=24, depth=3, split=2, pipelined=True),
        duration_s=6.0, max_pps_per_entry=200, seed=11,
    ),
}

_RESULT_CACHE: dict[tuple[str, str], dict] = {}


def _scored(spec_name: str, mode_name: str) -> dict:
    """run_entry_failure with its links in one mode, memoized per module.

    Telemetry adds the timeline's detection records to the scored result;
    everything else must match the reference.
    """
    key = (spec_name, mode_name)
    if key not in _RESULT_CACHE:
        with _links_as(mode_name) as tracers:
            result = run_entry_failure(SPECS[spec_name],
                                       telemetry=_telemetry(mode_name)).to_dict()
        assert all(tracers) if mode_name == "observed" else not tracers
        result["extra"].pop("detections", None)
        _RESULT_CACHE[key] = result
    return _RESULT_CACHE[key]


@pytest.mark.parametrize("mode_name", MODES)
@pytest.mark.parametrize("spec_name", sorted(SPECS))
class TestRunnerEquivalence:
    def test_scored_results_identical(self, spec_name, mode_name):
        """Fast-path runs score bit-identically to the reference path."""
        assert _scored(spec_name, mode_name) == _scored(spec_name, "reference")

    def test_detection_happened(self, spec_name, mode_name):
        """Guard against vacuous equivalence: the scenario must detect."""
        result = _scored(spec_name, mode_name)
        assert result["n_detected"] == result["n_failed"] == 1
        assert result["detection_times"]


# ---------------------------------------------------------------------------
# Drained-scenario equivalence: LinkStats + per-entry counters + reports.
# ---------------------------------------------------------------------------


def _run_fancy_drained(link_mode: str, mode: str) -> dict:
    """A small FANcY run with an explicit drain phase.

    Fused links book ``tx_packets`` at delivery rather than departure, so
    stats comparisons require a quiet wire: generators stop at T and the
    run continues to the middle of a later counting session, when no data
    or control packet is in flight.
    """
    with _links_as(link_mode):
        sim = Simulator()
        failure = EntryLossFailure(["victim"], 0.3, start_time=0.8, seed=21)
        topo = TwoSwitchTopology(sim, link_delay_s=0.001, loss_model=failure,
                                 telemetry=_telemetry(link_mode))
        if mode == "dedicated":
            config = FancyConfig(high_priority=["victim", "healthy/0"],
                                 tree_params=None,
                                 dedicated_session_s=0.05, seed=3)
        else:
            config = FancyConfig(high_priority=[],
                                 tree_params=HashTreeParams(width=12, depth=2, split=2),
                                 tree_session_s=0.2, seed=3)
        monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1, config)
        generators = [
            FlowGenerator(sim, topo.source, entry, rate_bps=3e5,
                          flows_per_second=10, seed=i + 1,
                          max_packets_per_flow=40,
                          flow_id_base=(i + 1) * 1_000_000, destination=topo.sink)
            for i, entry in enumerate(["victim", "healthy/0", "healthy/1"])
        ]
        for gen in generators:
            gen.start()
        monitor.start()
        sim.run(until=3.0)
        # Counters mid-experiment (non-trivial values).
        if monitor.dedicated_strategy is not None:
            live_counters = list(monitor.dedicated_strategy.counters)
            tree_snapshot = None
        else:
            live_counters = None
            tree_snapshot = monitor.tree_strategy.counters.snapshot()
        for gen in generators:
            gen.stop()
        # Let in-flight data and the current counting session land, then
        # stop the session timers and drain the event queue completely.
        # An empty queue is a quiet wire by construction, which is exactly
        # what the fused-bookkeeping contract requires for LinkStats
        # comparisons (no hand-tuned "mid-session" instants).
        sim.run(until=3.5)
        monitor.stop()
        sim.run()
        return {
            "live_counters": live_counters,
            "tree_snapshot": tree_snapshot,
            "reports": [(r.kind.name, r.entry, r.hash_path, r.time)
                        for r in monitor.log.reports],
            "ab": topo.link_ab.stats.as_dict(),
            "ba": topo.link_ba.stats.as_dict(),
            "events": None,  # placeholder: event counts legitimately differ
        }


@pytest.mark.parametrize("mode", ["dedicated", "tree"])
@pytest.mark.parametrize("mode_name", MODES)
class TestDrainedScenarioEquivalence:
    def test_stats_counters_reports_identical(self, mode, mode_name):
        reference = _run_fancy_drained("reference", mode)
        fast = _run_fancy_drained(mode_name, mode)
        assert fast == reference
        assert reference["reports"], "scenario must produce detections"
        assert reference["ab"]["dropped_failure"] > 0


# ---------------------------------------------------------------------------
# Chaos-perturbed drained scenario: fast paths under non-loss faults.
# ---------------------------------------------------------------------------


def _run_fancy_chaos_drained(link_mode: str) -> dict:
    """The drained-scenario pattern with chaos models on both directions.

    Perturbations draw from their own private RNGs keyed off fixed seeds
    (FCY007's contract), so the chaos decision stream is a pure function
    of the packet sequence each model sees — which the fast paths must
    preserve bit-for-bit for the outputs below to compare equal.
    """
    from repro.chaos.perturbations import (
        ChaosModel,
        CorruptField,
        Duplicate,
        Reorder,
    )
    from repro.simulator.packet import PacketKind

    with _links_as(link_mode):
        sim = Simulator()
        failure = EntryLossFailure(["victim"], 0.3, start_time=0.8, seed=21)
        topo = TwoSwitchTopology(sim, link_delay_s=0.001, loss_model=failure,
                                 telemetry=_telemetry(link_mode))
        # twait must cover the forward displacement bound so reordered
        # tagged packets still land inside their session (§4.1 T_wait).
        config = FancyConfig(high_priority=["victim", "healthy/0"],
                             tree_params=None, dedicated_session_s=0.05,
                             twait_s=0.005, seed=3)
        monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                                   config)
        ChaosModel([
            Reorder(0.2, 0.004, seed=101, kinds=(PacketKind.DATA,)),
            Duplicate(0.1, copies=1, seed=102),
            CorruptField(0.2, field="seq", seed=103),
        ]).attach(topo.link_ab)
        ChaosModel([
            Reorder(0.3, 0.02, seed=104),
            Duplicate(0.15, copies=1, seed=105),
        ]).attach(topo.link_ba)
        generators = [
            FlowGenerator(sim, topo.source, entry, rate_bps=3e5,
                          flows_per_second=10, seed=i + 1,
                          max_packets_per_flow=40,
                          flow_id_base=(i + 1) * 1_000_000, destination=topo.sink)
            for i, entry in enumerate(["victim", "healthy/0", "healthy/1"])
        ]
        for gen in generators:
            gen.start()
        monitor.start()
        sim.run(until=3.0)
        live_counters = list(monitor.dedicated_strategy.counters)
        for gen in generators:
            gen.stop()
        sim.run(until=3.5)
        monitor.stop()
        sim.run()  # drain: empty queue == quiet wire
        sender = monitor.dedicated_sender
        return {
            "live_counters": live_counters,
            "reports": [(r.kind.name, r.entry, r.hash_path, r.time)
                        for r in monitor.log.reports],
            "ab": topo.link_ab.stats.as_dict(),
            "ba": topo.link_ba.stats.as_dict(),
            "chaos_ab": topo.link_ab.chaos.stats(),
            "chaos_ba": topo.link_ba.chaos.stats(),
            "hardening": (sender.rejected_corrupt, sender.rejected_stale,
                          sender.sessions_completed),
        }


@pytest.mark.parametrize("mode_name", MODES)
class TestChaosDrainedEquivalence:
    def test_chaos_outputs_identical(self, mode_name):
        reference = _run_fancy_chaos_drained("reference")
        fast = _run_fancy_chaos_drained(mode_name)
        assert fast == reference
        # guard against vacuous equivalence: every fault class fired and
        # the scenario still detects through the noise
        assert reference["reports"], "scenario must produce detections"
        assert reference["chaos_ab"]["displaced"] > 0
        assert reference["chaos_ab"]["dup_scheduled"] > 0
        assert reference["chaos_ab"]["corrupted_data"] > 0
        assert reference["chaos_ba"]["displaced"] > 0
        assert reference["chaos_ba"]["dup_scheduled"] > 0


# ---------------------------------------------------------------------------
# Link-level equivalence: delivered/dropped sequences on a lossy wire.
# ---------------------------------------------------------------------------


class _Collector:
    """Terminal receiver recording per-packet metadata."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, float, int]] = []

    def receive(self, packet, in_port) -> None:
        self.rows.append((packet.seq, packet.created_at, packet.pid))


def _run_lossy_link(link_mode: str, trace: bool = False) -> dict:
    sim = Simulator()
    sink = _Collector()
    loss = UniformLossFailure(0.25, start_time=0.0, seed=5)
    link = Link(sim, sink, 0, bandwidth_bps=1e8, delay_s=0.002,
                loss_model=loss, telemetry=_telemetry(link_mode),
                fused=link_mode != "reference")
    tracer = PacketTracer(sim)
    if trace or link_mode == "observed":
        tracer.attach_link(link)
    src = UdpSource(sim, link.send, "e", 1, rate_bps=4e6,
                    packet_size=1000, jitter=0.2, seed=13)
    src.start()
    sim.run(until=1.0)
    src.stop()
    sim.run(until=1.2)  # drain the wire
    base = min(pid for _, _, pid in sink.rows)
    return {
        "stats": link.stats.as_dict(),
        "rows": [(seq, t, pid - base) for seq, t, pid in sink.rows],
        "sent": src.packets_sent,
        "fused_events": link.fused_events,
        "trace": Counter((e.time, e.location, e.event, e.kind, e.size)
                         for e in tracer.events),
    }


@pytest.mark.parametrize("mode_name", MODES)
def test_lossy_link_sequences_identical(mode_name):
    """Same drops, same delivery order, same relative pid allocation."""
    reference = _run_lossy_link("reference")
    fast = _run_lossy_link(mode_name)
    assert fast.pop("fused_events") > 0
    assert reference.pop("fused_events") == 0
    fast.pop("trace")
    reference.pop("trace")
    assert fast == reference
    assert reference["stats"]["dropped_failure"] > 0


def test_traced_fused_link_records_what_the_reference_records():
    """A tracer taps the fused link where it stands: the link keeps fusing,
    and the records — departure instants for tx / drop, arrival instants
    for deliver — are the reference link's, as a multiset."""
    reference = _run_lossy_link("reference", trace=True)
    fused = _run_lossy_link("fused", trace=True)
    assert fused["fused_events"] > 0
    assert fused["trace"] == reference["trace"]
    events = Counter()
    for (_t, _loc, event, _kind, _size), n in reference["trace"].items():
        events[event] += n
    stats = reference["stats"]
    assert events == {"tx": stats["delivered"], "drop": stats["dropped_failure"],
                      "deliver": stats["delivered"]}


# ---------------------------------------------------------------------------
# Flat-array TreeCounters vs. a dict-of-lists reference model.
# ---------------------------------------------------------------------------


class _DictTreeCounters:
    """The pre-optimization TreeCounters semantics, kept as an oracle."""

    def __init__(self, params: HashTreeParams):
        self.params = params
        self.nodes = {(): [0] * params.width}
        self.packets = 0

    def activate_node(self, path):
        if len(path) >= self.params.depth:
            raise ValueError(path)
        if path not in self.nodes:
            self.nodes[path] = [0] * self.params.width

    def increment_path(self, tag):
        self.packets += 1
        for level in range(len(tag)):
            node = self.nodes.get(tag[:level])
            if node is not None:
                node[tag[level]] += 1

    def reset(self):
        for node in self.nodes.values():
            for i in range(len(node)):
                node[i] = 0
        self.packets = 0

    def deactivate_node(self, path):
        if path != ():
            self.nodes.pop(path, None)

    def clear(self):
        self.nodes = {(): [0] * self.params.width}
        self.packets = 0

    def snapshot(self):
        return {p: list(c) for p, c in self.nodes.items()}

    def mismatches(self, remote, path):
        local = self.nodes.get(path)
        if local is None:
            return []
        remote_node = remote.get(path, [0] * self.params.width)
        return [(i, local[i] - remote_node[i])
                for i in range(self.params.width) if local[i] > remote_node[i]]


@pytest.mark.parametrize("seed", range(6))
def test_flat_tree_counters_match_dict_model(seed):
    """Randomized differential test: flat arena == dict-of-lists oracle."""
    params = HashTreeParams(width=5, depth=3, split=2, pipelined=True)
    rng = random.Random(seed)
    flat, oracle = TreeCounters(params), _DictTreeCounters(params)

    def rand_path():
        return tuple(rng.randrange(params.width)
                     for _ in range(rng.randint(1, params.depth - 1)))

    def rand_tag():
        return tuple(rng.randrange(params.width)
                     for _ in range(rng.randint(1, params.depth)))

    for _ in range(400):
        op = rng.randrange(6)
        if op == 0:
            p = rand_path()
            flat.activate_node(p)
            oracle.activate_node(p)
        elif op in (1, 2, 3):  # bias toward counting, the hot operation
            t = rand_tag()
            flat.increment_path(t)
            oracle.increment_path(t)
        elif op == 4:
            p = rand_path()
            flat.deactivate_node(p)
            oracle.deactivate_node(p)
        elif op == 5 and rng.random() < 0.2:
            flat.reset()
            oracle.reset()
        assert flat.snapshot() == oracle.snapshot()
        assert flat.packets == oracle.packets
        probe = rand_path()
        remote = oracle.snapshot()
        # Perturb the remote snapshot to exercise the mismatch scan.
        for node in remote.values():
            for i in range(len(node)):
                if rng.random() < 0.3 and node[i] > 0:
                    node[i] -= 1
        assert flat.mismatches(remote, probe) == oracle.mismatches(remote, probe)
        assert flat.mismatches(remote, ()) == oracle.mismatches(remote, ())

    flat.clear()
    oracle.clear()
    assert flat.snapshot() == oracle.snapshot()
