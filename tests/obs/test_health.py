"""FabricHealthReport: scoring ladder, trace-derived latency, summaries."""

from __future__ import annotations

from repro.core.detector import FancyConfig
from repro.fabric.builders import ring
from repro.fabric.deployment import FabricDeployment
from repro.fabric.graph import FabricNetwork
from repro.obs.health import STATUSES, FabricHealthReport, LinkHealth, _score
from repro.obs.trace import TraceCollector
from repro.simulator.engine import Simulator
from repro.telemetry import Telemetry


class TestScoreLadder:
    def _health(self, **overrides):
        health = LinkHealth(link_id="a->b", status="healthy")
        for key, value in overrides.items():
            setattr(health, key, value)
        return health

    def test_clean_link_is_healthy(self):
        assert _score(self._health()) == "healthy"

    def test_rejections_degrade(self):
        assert _score(self._health(rejected_corrupt=1)) == "degraded"
        assert _score(self._health(rejected_stale=2)) == "degraded"

    def test_restart_and_truncation_degrade(self):
        assert _score(self._health(restarts=1)) == "degraded"
        assert _score(self._health(timeline_truncated=5)) == "degraded"

    def test_unattributed_detection_degrades(self):
        assert _score(self._health(unattributed_detections=1)) == "degraded"

    def test_flags_beat_degraded(self):
        health = self._health(rejected_corrupt=1,
                              flagged_entries=["'victim'"])
        assert _score(health) == "flagged"
        assert _score(self._health(flagged_leaf_paths=2)) == "flagged"

    def test_link_down_is_declared(self):
        assert _score(self._health(link_down=True)) == "declared"
        assert _score(self._health(ladder_state="declared")) == "declared"

    def test_ladder_rungs_between_degraded_and_flagged(self):
        assert _score(self._health(ladder_state="use_last_state")) \
            == "use_last_state"
        assert _score(self._health(ladder_state="freeze")) == "freeze"
        # flags outrank a frozen ladder; DECLARE outranks flags
        assert _score(self._health(ladder_state="freeze",
                                   flagged_entries=["'v'"])) == "flagged"
        assert _score(self._health(ladder_state="declared",
                                   flagged_entries=["'v'"])) == "declared"
        # a healthy ladder never masks degraded evidence
        assert _score(self._health(ladder_state="healthy",
                                   rejected_corrupt=1)) == "degraded"

    def test_invariant_breaches_degrade(self):
        assert _score(self._health(invariant_breaches={"I1": 2})) \
            == "degraded"

    def test_reroute_beats_everything(self):
        health = self._health(flagged_entries=["'victim'"],
                              rerouted_entries=["'victim'"])
        assert _score(health) == "rerouted"

    def test_lattice_order(self):
        assert STATUSES == ("healthy", "degraded", "use_last_state",
                            "freeze", "flagged", "declared", "rerouted")


class TestTraceDerivedStats:
    def test_fault_rooted_episode_yields_latency(self):
        tc = TraceCollector(scope="a->b")
        tc.begin_episode(1.0, cause="fault")
        tc.emit("flag", 1.25, category="detect")
        tc.finalize(2.0)
        from repro.obs.health import _trace_stats

        latencies, unattributed, n_traces, n_spans = _trace_stats(tc)
        assert latencies == [0.25]
        assert unattributed == 0
        assert (n_traces, n_spans) == (1, 2)

    def test_detection_opened_episode_counts_unattributed(self):
        tc = TraceCollector(scope="a->b")
        tc.ensure_episode(1.0, cause="detection")
        tc.emit("flag", 1.0, category="detect")
        tc.finalize(2.0)
        from repro.obs.health import _trace_stats

        latencies, unattributed, _, _ = _trace_stats(tc)
        assert latencies == []
        assert unattributed == 1


class TestFromDeployment:
    def _deployment(self):
        sim = Simulator()
        net = FabricNetwork(sim, ring(4))
        telemetry = Telemetry(scope="test")
        config = FancyConfig(high_priority=["e0"], tree_params=None)
        deployment = FabricDeployment(net, config=config,
                                      links=["s0->s1", "s1->s2"],
                                      telemetry=telemetry)
        return net, deployment

    def test_all_healthy_without_activity(self):
        _net, deployment = self._deployment()
        report = FabricHealthReport.from_deployment(deployment)
        assert [link.status for link in report.links] == ["healthy"] * 2
        assert report.status_of("s0->s1") == "healthy"
        assert report.counts()["healthy"] == 2

    def test_topology_rows_cover_every_node(self):
        net, deployment = self._deployment()
        report = FabricHealthReport.from_deployment(deployment)
        nodes = {row["node"] for row in report.topology}
        assert nodes == set(net.graph.nodes)
        s0 = next(r for r in report.topology if r["node"] == "s0")
        assert s0["monitored_out"] == 1  # only s0->s1 is monitored

    def test_to_dict_shape(self):
        _net, deployment = self._deployment()
        data = FabricHealthReport.from_deployment(deployment).to_dict()
        assert set(data) == {"summary", "links", "topology"}
        assert data["summary"]["links"] == 2
        assert data["summary"]["detection_latency"]["count"] == 0
        for link in data["links"]:
            assert link["status"] in STATUSES

    def test_unknown_link_raises(self):
        _net, deployment = self._deployment()
        report = FabricHealthReport.from_deployment(deployment)
        try:
            report.status_of("nope->nope")
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError")
