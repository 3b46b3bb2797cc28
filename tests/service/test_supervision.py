"""InvariantSupervisor: online ticks, breach metering, finalize drain."""

from __future__ import annotations

from repro.chaos.invariants import Violation
from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams
from repro.service.supervision import InvariantSupervisor
from repro.simulator.apps import FlowGenerator
from repro.simulator.topology import TwoSwitchTopology
from repro.telemetry import Telemetry

SMALL_TREE = HashTreeParams(width=8, depth=2, split=2, pipelined=True)


def deploy(sim, entries=("hp",), best_effort=("be",)):
    topo = TwoSwitchTopology(sim)
    config = FancyConfig(high_priority=list(entries), tree_params=SMALL_TREE,
                         twait_s=0.015)
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                               config)
    sources = []
    for i, entry in enumerate(entries + best_effort):
        source = FlowGenerator(sim, topo.source, entry, rate_bps=1e6,
                               flows_per_second=10, seed=3 + i,
                               flow_id_base=(i + 1) * 1_000_000, destination=topo.sink)
        source.start()
        sources.append(source)
    return topo, monitor, sources


class TestOnlineSupervision:
    def test_clean_run_has_zero_breaches(self, sim):
        topo, monitor, sources = deploy(sim)
        supervisor = InvariantSupervisor(sim, interval_s=0.25)
        observer = supervisor.watch(
            "a->b", monitor, schedule=[], dedicated=["hp"],
            best_effort=["be"], links=[topo.link_ab, topo.link_ba],
            chaos_models=[])
        supervisor.start()
        monitor.start()
        sim.run(until=3.0)
        supervisor.stopped = True
        for source in sources:
            source.stop()
        monitor.stop()
        sim.run()  # drains: traffic stopped, ticks cancelled
        breaches = supervisor.finalize(horizon=3.0)
        assert breaches == []
        assert observer.ticks >= 10  # the observer really ran online
        assert supervisor.breach_counts() == {}

    def test_finalize_is_idempotent(self, sim):
        topo, monitor, sources = deploy(sim)
        supervisor = InvariantSupervisor(sim, interval_s=0.25)
        supervisor.watch("a->b", monitor, schedule=[], dedicated=["hp"],
                         best_effort=["be"],
                         links=[topo.link_ab, topo.link_ba], chaos_models=[])
        monitor.start()
        sim.run(until=1.0)
        for source in sources:
            source.stop()
        monitor.stop()
        sim.run()
        first = supervisor.finalize(horizon=1.0)
        second = supervisor.finalize(horizon=1.0)
        assert first == second

    def test_stopped_supervisor_stops_ticking(self, sim):
        topo, monitor, _sources = deploy(sim)
        supervisor = InvariantSupervisor(sim, interval_s=0.25)
        observer = supervisor.watch(
            "a->b", monitor, schedule=[], dedicated=["hp"],
            best_effort=["be"], links=[topo.link_ab, topo.link_ba],
            chaos_models=[])
        supervisor.start()
        monitor.start()
        sim.run(until=1.0)
        supervisor.stopped = True
        ticks = observer.ticks
        sim.run(until=2.0)
        assert observer.ticks == ticks

    def test_breach_metered_per_invariant_and_link(self, sim):
        telemetry = Telemetry(scope="test")
        supervisor = InvariantSupervisor(sim, telemetry=telemetry)
        supervisor._on_breach("a->b", Violation("I1", 1.0, "stalled"))
        supervisor._on_breach("a->b", Violation("I1", 2.0, "stalled again"))
        supervisor._on_breach("c->d", Violation("I5", 2.5, "pool leak"))
        snapshot = telemetry.metrics.snapshot()
        rows = {
            (m["name"], m["labels"].get("invariant"), m["labels"].get("link")):
            m["value"]
            for m in snapshot["metrics"]
            if m["name"] == "fancy_invariant_breach_total"
        }
        assert rows[("fancy_invariant_breach_total", "I1", "a->b")] == 2
        assert rows[("fancy_invariant_breach_total", "I5", "c->d")] == 1

    def test_observer_breaches_feed_supervisor_queries(self, sim):
        topo, monitor, _sources = deploy(sim)
        supervisor = InvariantSupervisor(sim)
        observer = supervisor.watch(
            "a->b", monitor, schedule=[], dedicated=["hp"],
            best_effort=["be"], links=[topo.link_ab, topo.link_ba],
            chaos_models=[])
        observer._record([Violation("I2", 1.0, "regressed")])
        assert supervisor.breach_counts() == {"I2": 1}
        assert [v.invariant for v in supervisor.breaches_for("a->b")] == ["I2"]
        assert supervisor.breaches_for("nope") == []
