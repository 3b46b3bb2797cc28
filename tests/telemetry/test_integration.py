"""End-to-end telemetry: instrumented detection runs and sweep wiring.

These are the acceptance tests of the observability layer:

* a detection scenario run with telemetry produces a JSONL timeline with
  FSM transitions and a per-entry detection record whose latency matches
  the one scored by ``experiments.metrics``;
* the registry's control-message accounting agrees with an independent
  :class:`PacketTracer` count of control packets on the wire (the
  registry replaced the FSMs' private ad-hoc counters);
* sweep cells run with ``RuntimeContext(telemetry=True)`` carry their
  metrics snapshot in the JSONL run log;
* observing a run does not change which code runs: the instrumented run
  processes exactly the plain run's events and scores the same.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import runner
from repro.experiments.heatmaps import HeatmapScale, run_heatmap
from repro.experiments.metrics import control_overhead
from repro.experiments.runner import ExperimentSpec, run_entry_failure, run_cell
from repro.runtime import RuntimeContext
from repro.simulator.engine import Simulator
from repro.simulator.tracing import PacketTracer
from repro.telemetry import Telemetry
from repro.traffic.synthetic import EntrySize


def _quick_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        entry_size=EntrySize(1e6, 50),
        loss_rate=1.0,
        mode="dedicated",
        duration_s=5.0,
        max_pps_per_entry=200,
        n_background=3,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestDetectionScenario:
    def test_timeline_has_fsm_transitions_and_sessions(self):
        session = Telemetry()
        run_entry_failure(_quick_spec(), telemetry=session)
        counts = session.timeline.counts()
        assert counts.get("fsm_transition", 0) > 0
        assert counts.get("session_open", 0) > 0
        assert counts.get("session_close", 0) > 0
        assert counts.get("failure_injected") == 1
        assert counts.get("detection", 0) >= 1

    def test_detection_latency_matches_scoring(self):
        """The timeline's detection record and the experiment scorer must
        agree on the injection→detection latency."""
        session = Telemetry()
        result = run_entry_failure(_quick_spec(), telemetry=session)
        assert result.n_detected == 1
        records = [r for r in session.detection_records() if r.detected]
        assert len(records) == 1
        assert records[0].latency == pytest.approx(result.detection_times[0])
        assert records[0].sessions_used >= 1
        assert records[0].control_bytes > 0
        # ... and the same pairing rides the RunResult for the run log.
        assert result.extra["detections"][0]["latency"] == pytest.approx(
            result.detection_times[0])

    def test_detection_latency_matches_scoring_tree_mode(self):
        session = Telemetry()
        result = run_entry_failure(
            _quick_spec(mode="tree", duration_s=8.0), telemetry=session)
        assert result.n_detected == 1
        records = [r for r in session.detection_records() if r.detected]
        assert records[0].latency == pytest.approx(result.detection_times[0])
        assert records[0].kind == "tree_leaf"

    def test_timeline_jsonl_is_parseable_and_ordered(self):
        session = Telemetry()
        run_entry_failure(_quick_spec(), telemetry=session)
        lines = session.timeline.to_jsonl().splitlines()
        objs = [json.loads(line) for line in lines]
        times = [o["time"] for o in objs if "time" in o]
        assert times == sorted(times)
        assert any(o["event"] == "fsm_transition" for o in objs)

    def test_profile_collects_hotspots(self):
        from repro.telemetry import hotspots

        session = Telemetry(profile=True)
        run_entry_failure(_quick_spec(duration_s=2.0), telemetry=session)
        ranked = hotspots(session.metrics)
        assert ranked and ranked[0]["calls"] > 0
        assert session.metrics.total("sim_events_total") > 0

    def test_no_telemetry_keeps_result_clean(self):
        result = run_entry_failure(_quick_spec())
        assert "detections" not in result.extra


class TestObserverEffect:
    def test_telemetry_runs_the_plain_runs_events(self, monkeypatch):
        """``sim_events_total`` of the instrumented run is the plain run's
        ``events_processed``, and the scores agree but for the detection
        records telemetry adds."""
        sims: list[Simulator] = []

        class _Recorded(Simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sims.append(self)

        monkeypatch.setattr(runner, "Simulator", _Recorded)
        spec = _quick_spec(loss_rate=0.5)
        plain = run_entry_failure(spec).to_dict()
        session = Telemetry()
        observed = run_entry_failure(spec, telemetry=session).to_dict()
        assert session.metrics.total("sim_events_total") == sims[0].events_processed
        assert session.metrics.total("link_tx_packets_total") > 0
        assert observed["extra"].pop("detections")
        assert observed == plain
        assert plain["n_detected"] == 1


class TestControlOverheadCrossCheck:
    def test_registry_agrees_with_wire_count(self):
        """``fancy_control_*_total`` must equal an independent on-wire
        count of control packets (tracer on both link directions)."""
        from repro.core.detector import FancyConfig, FancyLinkMonitor
        from repro.simulator.engine import Simulator
        from repro.simulator.topology import TwoSwitchTopology

        session = Telemetry()
        sim = Simulator(telemetry=session)
        topo = TwoSwitchTopology(sim, telemetry=session)
        tracer = PacketTracer(sim, predicate=lambda p: p.kind.is_control)
        tracer.attach_link(topo.link_ab)
        tracer.attach_link(topo.link_ba)
        monitor = FancyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            FancyConfig(high_priority=["e"], tree_params=None,
                        dedicated_session_s=0.05),
            telemetry=session,
        )
        monitor.start()
        sim.run(until=3.0)
        monitor.stop()
        sim.run(until=4.0)  # drain in-flight control packets

        on_wire = [e for e in tracer.events if e.event in ("tx", "drop")]
        overhead = control_overhead(session.metrics, duration_s=4.0)
        assert overhead["messages"] == len(on_wire)
        assert overhead["bytes"] == sum(e.size for e in on_wire)
        assert overhead["messages"] > 0
        assert overhead["bytes_per_s"] == pytest.approx(overhead["bytes"] / 4.0)
        # Per-kind breakdown covers every message exactly once.
        assert sum(overhead["by_kind"].values()) == overhead["messages"]

    def test_legacy_adhoc_counters_are_gone(self):
        """The FSMs' private message counters were replaced by the
        registry; the attribute must not silently come back."""
        from repro.core.protocol import FancyReceiver, FancySender

        assert not hasattr(FancySender, "control_messages_sent")
        assert not hasattr(FancyReceiver, "control_messages_sent")


class TestSessionSemantics:
    def test_fork_shares_registry_not_timeline(self):
        parent = Telemetry(profile=True)
        child = parent.fork()
        assert child.metrics is parent.metrics
        assert child.timeline is not parent.timeline
        assert child.profile is True

    def test_fork_keeps_the_session_caps(self):
        """A fork's collector inherits ``max_spans`` as its timeline
        inherits ``max_events`` — including every per-link fork of a
        fabric deployment, whose collector once reverted to 100 000."""
        from repro.core.detector import FancyConfig
        from repro.fabric.builders import ring
        from repro.fabric.deployment import FabricDeployment
        from repro.fabric.graph import FabricNetwork
        from repro.obs.trace import TraceCollector
        from repro.simulator.engine import Simulator
        from repro.telemetry import StateTimeline

        parent = Telemetry(timeline=StateTimeline(max_events=5),
                           traces=TraceCollector(max_spans=3), scope="root")
        child = parent.fork(scope="s0->s1")
        assert child.traces is not parent.traces
        assert (child.traces.max_spans, child.timeline.max_events) == (3, 5)
        assert child.traces.scope == "s0->s1"
        assert parent.fork().traces.scope == "root"

        deployment = FabricDeployment(
            FabricNetwork(Simulator(), ring(4)),
            config=FancyConfig(high_priority=["e0"], tree_params=None),
            links=["s0->s1", "s1->s2"], telemetry=parent)
        for link_id, monitor in deployment.monitors.items():
            assert monitor.telemetry.traces.scope == link_id
            assert monitor.telemetry.traces.max_spans == 3

    def test_run_cell_aggregates_metrics_across_reps(self):
        session = Telemetry()
        cell = run_cell(_quick_spec(duration_s=2.0), repetitions=2,
                        telemetry=session)
        assert cell.n_runs == 2
        # Two repetitions' events land in one shared registry...
        assert session.metrics.total("sim_events_total") > 0
        # ...while the parent session's own timeline stays empty (each
        # repetition wrote to its fork).
        assert len(session.timeline) == 0
        for run in cell.runs:
            assert "detections" in run.extra


class TestSweepRunLog:
    def test_cell_done_carries_metrics_snapshot(self, tmp_path):
        scale = HeatmapScale(
            rows=(EntrySize(1e6, 50),),
            loss_rates=(1.0,),
            repetitions=1,
            duration_s=2.0,
            max_pps_per_entry=100,
            n_background=2,
        )
        log = tmp_path / "run.jsonl"
        ctx = RuntimeContext(run_log=log, telemetry=True)
        out = run_heatmap("dedicated", scale, runtime=ctx)
        assert not out["errors"]
        cell_events = [json.loads(line) for line in log.read_text().splitlines()
                       if json.loads(line)["event"] == "cell_done"]
        assert cell_events
        snap = cell_events[0]["metrics"]
        names = {m["name"] for m in snap["metrics"]}
        assert "sim_events_total" in names
        assert "fancy_control_bytes_total" in names

    def test_telemetry_cells_do_not_alias_plain_cache_entries(self, tmp_path):
        scale = HeatmapScale(
            rows=(EntrySize(1e6, 50),),
            loss_rates=(1.0,),
            repetitions=1,
            duration_s=2.0,
            max_pps_per_entry=100,
            n_background=2,
        )
        cache = tmp_path / "cache"
        plain = RuntimeContext(cache_dir=cache)
        with_tel = RuntimeContext(cache_dir=cache, telemetry=True)
        first = run_heatmap("dedicated", scale, runtime=plain)
        second = run_heatmap("dedicated", scale, runtime=with_tel)
        # The telemetry run must not get the plain run's cached cell.
        assert first["sweep"]["cache_misses"] == 1
        assert second["sweep"]["cache_misses"] == 1
        # Same experiment outcome either way.
        assert first["tpr"] == second["tpr"]

    def test_no_telemetry_no_metrics_key(self, tmp_path):
        scale = HeatmapScale(
            rows=(EntrySize(1e6, 50),),
            loss_rates=(1.0,),
            repetitions=1,
            duration_s=2.0,
            max_pps_per_entry=100,
            n_background=2,
        )
        log = tmp_path / "run.jsonl"
        ctx = RuntimeContext(run_log=log)
        run_heatmap("dedicated", scale, runtime=ctx)
        for line in log.read_text().splitlines():
            event = json.loads(line)
            if event["event"] == "cell_done":
                assert "metrics" not in event
