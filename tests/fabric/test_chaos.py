"""Tests for fabric-addressed chaos schedules and the ring soak."""

from __future__ import annotations

import pytest

from repro.chaos.schedule import FaultSpec
from repro.fabric.builders import ring
from repro.fabric.chaos import (
    FabricSoakConfig,
    default_fabric_schedule,
    directional_schedule,
    fabric_soak,
    link_target,
    materialize_on_fabric,
    parse_link_target,
)
from repro.fabric.graph import FabricNetwork


class TestLinkTargets:
    def test_round_trip(self):
        assert link_target("s1", "s2") == "link:s1->s2"
        assert parse_link_target("link:s1->s2") == "s1->s2"

    def test_non_link_targets_pass_through_as_none(self):
        assert parse_link_target("forward") is None
        assert parse_link_target("reverse") is None

    def test_directional_schedule_names_each_monitors_sides(self):
        own = FaultSpec("entry_loss", target="link:s1->s2",
                        params={"entries": ["e"], "rate": 0.5,
                                "start": 0.5, "end": None}, index=3)
        back = FaultSpec("control_loss", target="link:s2->s1",
                         params={"rate": 0.2, "start": 0.0, "end": None},
                         index=4)
        elsewhere = FaultSpec("uniform_loss", target="link:s0->s1",
                              params={"rate": 0.5, "start": 0.0, "end": None},
                              index=5)
        schedule = [own, back, elsewhere]
        forward, reverse = directional_schedule("s1->s2", schedule)
        assert (forward.target, reverse.target) == ("forward", "reverse")
        for translated, spec in ((forward, own), (reverse, back)):
            assert translated.kind == spec.kind
            assert translated.params == spec.params
            assert translated.index == spec.index
        # A copy, not an alias: mutating one must not leak to the other.
        forward.params["rate"] = 0.9
        assert own.params["rate"] == 0.5
        # The opposite monitor sees the same two faults from the other side.
        assert [(s.target, s.index)
                for s in directional_schedule("s2->s1", schedule)] == [
            ("reverse", 3), ("forward", 4)]
        # A link no fault touches gets an empty view.
        assert directional_schedule("s2->s3", schedule) == []


class TestMaterialize:
    """The fabric adapter's own target validation.  The materializer it
    hands off to is tested over pair and link targets alike in
    tests/chaos/test_schedule.py."""

    def test_rejects_two_switch_targets(self, sim):
        net = FabricNetwork(sim, ring(4))
        bad = FaultSpec("entry_loss", target="forward",
                        params={"entries": ["e"], "rate": 1.0,
                                "start": 0.1, "end": None}, index=0)
        with pytest.raises(ValueError, match="link-addressed"):
            materialize_on_fabric([bad], 0, net)

    def test_rejects_unknown_link(self, sim):
        net = FabricNetwork(sim, ring(4))
        spec = FaultSpec("entry_loss", target=link_target("s0", "s2"),
                         params={"entries": ["e"], "rate": 1.0,
                                 "start": 0.1, "end": None}, index=0)
        with pytest.raises(KeyError):
            materialize_on_fabric([spec], 0, net)


class TestSoakConfig:
    def test_round_trips_through_dict(self):
        config = FabricSoakConfig(seed=4, fault_rate=0.5)
        assert FabricSoakConfig.from_dict(config.to_dict()) == config

    def test_default_schedule_covers_all_entries(self):
        config = FabricSoakConfig()
        (spec,) = default_fabric_schedule(config)
        assert spec.target == "link:s1->s2"
        assert spec.params["entries"] == ["hp/0", "hp/1", "hp/2",
                                          "be/0", "be/1"]


class TestFabricSoak:
    def test_ring_too_small_rejected(self):
        with pytest.raises(ValueError):
            fabric_soak(FabricSoakConfig(ring_size=3))

    def test_soak_holds_invariants(self):
        result = fabric_soak(FabricSoakConfig(seed=3))
        assert result.ok, [v.to_dict() for v in result.violations]
        # Reports live only on the faulted link; the sentinel monitors
        # (no fault, or no traffic at all) stay silent.
        reports = result.stats["reports"]
        assert reports.get("s1->s2")
        assert not reports.get("s0->s1")
        assert not reports.get("s2->s3")
        assert all(n > 0
                   for n in result.stats["sessions_completed"].values())
        serialized = result.to_dict()
        assert serialized["ok"] is True
        assert serialized["seed"] == 3

    @pytest.mark.parametrize("fault", [
        FaultSpec("control_loss", target="link:s2->s1",
                  params={"rate": 1.0, "start": 0.5, "end": None}, index=1),
        FaultSpec("corrupt", target="link:s2->s1",
                  params={"field": "snapshot", "rate": 0.3, "start": 0.5,
                          "end": None}, index=1),
    ], ids=["dead-control-return", "corrupt-reports"])
    def test_reverse_wire_faults_are_attributed(self, fault):
        """A fault on ``s2->s1`` is ``s1->s2``'s control-return channel:
        its LINK_DOWNs (I3) and its rejected corrupt Reports (I6) are
        explained by it, not reported as violations."""
        config = FabricSoakConfig(seed=3)
        schedule = default_fabric_schedule(config) + [fault]
        result = fabric_soak(config, schedule)
        assert result.ok, [v.to_dict() for v in result.violations]
