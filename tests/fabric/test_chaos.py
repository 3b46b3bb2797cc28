"""Tests for fabric-addressed chaos schedules and the ring soak."""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.chaos.harness import drive_soak, soak_entries, soak_fancy_config
from repro.chaos.schedule import (
    FaultSpec,
    generate_schedule,
    link_target,
    parse_link_target,
)
from repro.fabric.builders import ring
from repro.fabric.chaos import (
    default_fabric_schedule,
    fabric_soak,
    materialize_on_fabric,
)
from repro.fabric.deployment import FabricDeployment
from repro.fabric.graph import FabricNetwork
from repro.simulator.engine import Simulator
from repro.simulator.packet import PacketKind
from repro.simulator.udp import UdpSource
from tests.chaos.test_harness import RING


class TestLinkTargets:
    def test_round_trip(self):
        assert link_target("s1", "s2") == "link:s1->s2"
        assert parse_link_target("link:s1->s2") == "s1->s2"

    def test_non_link_targets_pass_through_as_none(self):
        for target in ("forward", "reverse", "s1->s2", "link:", "link:s1",
                       "link:->s2"):
            assert parse_link_target(target) is None, target


class TestMaterialize:
    """The fabric adapter's target validation.  The materializer it
    hands off to is tested on the pair and on a ring in
    tests/chaos/test_schedule.py."""

    def test_rejects_two_switch_targets(self, sim):
        net = FabricNetwork(sim, ring(4))
        bad = FaultSpec("entry_loss", target="forward",
                        params={"entries": ["e"], "rate": 1.0,
                                "start": 0.1, "end": None}, index=0)
        with pytest.raises(ValueError, match="not a directed link"):
            materialize_on_fabric([bad], 0, net)

    def test_rejects_unknown_link(self, sim):
        net = FabricNetwork(sim, ring(4))
        spec = FaultSpec("entry_loss", target=link_target("s0", "s2"),
                         params={"entries": ["e"], "rate": 1.0,
                                 "start": 0.1, "end": None}, index=0)
        with pytest.raises(KeyError):
            materialize_on_fabric([spec], 0, net)


class TestDisplacementRule:
    def test_reorder_on_a_shared_wire_spares_only_start_and_stop(self, sim):
        """``s2->s1`` is its own monitor's data wire and ``s1->s2``'s
        return wire.  A reorder on it displaces the one's DATA and the
        other's Reports, and never a Start or Stop."""
        config = dataclasses.replace(RING, seed=1)
        net = FabricNetwork(sim, ring(4))
        flows = {"hp/0": ("s1", "s2"), "hp/1": ("s2", "s1")}
        for entry, (src, dst) in flows.items():
            net.add_entry(entry, src, dst)
        deployment = FabricDeployment(
            net, config=soak_fancy_config(config, list(flows)),
            links=["s1->s2", "s2->s1"])
        reorder = FaultSpec("reorder", link_target("s2", "s1"),
                            {"rate": 1.0, "max_displacement_s": 0.002,
                             "start": 0.0, "end": None}, index=0)
        chaos = materialize_on_fabric([reorder], config.seed, net,
                                      deployment).chaos["s2->s1"]
        moved: Counter = Counter()
        chaos.on_event = lambda event, packet, _t: moved.update(
            [packet.kind] if event == "chaos_displace" else [])
        for i, (entry, (src, _dst)) in enumerate(flows.items()):
            source = UdpSource(sim, net.host(src).send, entry, flow_id=i,
                               rate_bps=config.rate_bps,
                               packet_size=config.packet_size, seed=i)
            source.start()
            sim.schedule_at(1.0, source.stop)
        deployment.start()
        sim.run(until=1.5)
        assert moved[PacketKind.DATA] > 0
        assert moved[PacketKind.FANCY_REPORT] > 0
        assert moved[PacketKind.FANCY_START] == 0
        assert moved[PacketKind.FANCY_STOP] == 0
        # ...although s2->s1's own Starts and Stops crossed that wire
        assert deployment.sessions_completed()["s2->s1"] > 0


class TestIntegrityOnASharedWire:
    def test_each_monitor_balances_only_its_own_corruptions(self):
        """``s2->s1`` carries ``s2->s1``'s Starts and Stops and
        ``s1->s2``'s StartACKs and Reports.  A session corruption on it
        hits both monitors' FSMs, and each observer's I6 balances the
        corruptions addressed to its own FSMs against its own
        rejections."""
        dedicated, best_effort = soak_entries(RING)
        net = FabricNetwork(Simulator(), ring(4))
        for entry in dedicated + best_effort:
            net.add_entry(entry, "s1", "s2")
        deployment = FabricDeployment(
            net, config=soak_fancy_config(RING, dedicated),
            links=["s1->s2", "s2->s1"])
        schedule = [FaultSpec("corrupt", link_target("s2", "s1"),
                              {"rate": 0.3, "field": "session",
                               "start": 0.0, "end": None}, index=0)]

        def arm():
            materialized = materialize_on_fabric(schedule, RING.seed, net,
                                                 deployment)
            deployment.start(stagger_s=0.005)
            return materialized

        run = drive_soak(RING, net, "s1", deployment.monitors, schedule, arm)
        assert [v.to_dict() for v in run.violations
                if v.invariant == "I6"] == []
        chaos = run.materialized.chaos["s2->s1"]
        by_monitor = Counter()
        for fsm_id, n in chaos.corrupted_control_to.items():
            by_monitor[fsm_id.split("/")[0]] += n
        assert set(by_monitor) == {"s1->s2", "s2->s1"}
        for link_id, monitor in deployment.monitors.items():
            fsms = (monitor.dedicated_sender, monitor.tree_sender,
                    monitor.dedicated_receiver, monitor.tree_receiver)
            assert sum(f.rejected_corrupt for f in fsms) == by_monitor[link_id] > 0


class TestSoakConfig:
    def test_default_schedule_covers_all_entries(self):
        (spec,) = default_fabric_schedule(RING)
        assert spec.target == "link:s1->s2"
        assert spec.params["entries"] == ["hp/0", "hp/1", "hp/2",
                                          "be/0", "be/1"]


class TestFabricSoak:
    def test_soak_holds_invariants(self):
        result = fabric_soak(RING)
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
        schedule = default_fabric_schedule(RING) + [fault]
        result = fabric_soak(RING, schedule)
        assert result.ok, [v.to_dict() for v in result.violations]

    @pytest.mark.parametrize("seed", range(25))
    def test_generated_schedules_hold_invariants(self, seed):
        """Random schedules over the ring's two entry-carrying links,
        where each wire is one monitor's data wire or its return wire."""
        config = dataclasses.replace(RING, seed=seed)
        dedicated, best_effort = soak_entries(config)
        schedule = generate_schedule(seed, config.duration_s, dedicated,
                                     best_effort, ["s0->s1", "s1->s2"])
        result = fabric_soak(config, schedule)
        assert result.ok, ([s.to_dict() for s in schedule],
                           [v.to_dict() for v in result.violations])
