"""Tests for fault-schedule generation, serialisation, and guardrails."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

from repro.chaos.schedule import (
    _FORWARD_DISPLACEMENT_BUDGET_S,
    _REVERSE_DISPLACEMENT_BUDGET_S,
    FaultSpec,
    generate_schedule,
    link_target,
    materialize,
)
from repro.fabric.builders import ring
from repro.fabric.chaos import materialize_on_fabric
from repro.fabric.graph import FabricGraph, FabricNetwork
from repro.simulator.engine import Simulator
from repro.simulator.failures import CompositeFailure
from repro.simulator.packet import PacketKind

DEDICATED = ["hp/0", "hp/1", "hp/2", "hp/3"]
BEST_EFFORT = ["be/0", "be/1"]


def displacement_cost(spec: FaultSpec) -> float:
    if spec.kind not in ("reorder", "delay_spike"):
        return 0.0
    p = spec.params
    return (float(p.get("max_displacement_s", 0.0))
            + float(p.get("spike_s", 0.0)) + float(p.get("jitter_s", 0.0)))


class TestFaultSpec:
    def test_round_trip(self):
        spec = FaultSpec("entry_loss", "forward",
                         {"entries": ["hp/0"], "rate": 0.5,
                          "start": 1.0, "end": 2.0}, index=3)
        doc = json.loads(json.dumps(spec.to_dict()))
        assert FaultSpec.from_dict(doc) == spec

    def test_window_forms(self):
        open_ended = FaultSpec("uniform_loss", params={"start": 1.0, "end": None})
        assert open_ended.window() == (1.0, math.inf)
        flap = FaultSpec("link_flap", params={"windows": [[1.0, 1.5], [3.0, 3.2]]})
        assert flap.window() == (1.0, 3.2)
        restart = FaultSpec("switch_restart", params={"time": 2.0, "side": "both"})
        assert restart.window() == (2.0, 2.0)

    def test_active_in(self):
        spec = FaultSpec("uniform_loss", params={"start": 1.0, "end": 2.0})
        assert spec.active_in(0.0, 1.0)
        assert spec.active_in(1.5, 3.0)
        assert not spec.active_in(2.5, 3.0)

    def test_loss_class_membership(self):
        assert FaultSpec("entry_loss", "forward",
                         {"entries": ["hp/0"]}).is_loss_class()
        assert FaultSpec("corrupt", "forward", {"field": "tag"}).is_loss_class()
        assert not FaultSpec("corrupt", "forward", {"field": "seq"}).is_loss_class()
        assert not FaultSpec("reorder", "forward", {}).is_loss_class()
        assert not FaultSpec("entry_loss", "reverse",
                             {"entries": ["hp/0"]}).is_loss_class()

    def test_control_class_membership(self):
        assert FaultSpec("control_loss", "reverse", {}).is_control_class()
        assert FaultSpec("switch_restart", params={"time": 1.0}).is_control_class()
        assert FaultSpec("corrupt", "reverse",
                         {"field": "session"}).is_control_class()
        assert not FaultSpec("duplicate", "reverse", {}).is_control_class()

    def test_affects_entry_scoping(self):
        entry = FaultSpec("entry_loss", "forward", {"entries": ["hp/1"]})
        assert entry.affects_entry("hp/1", dedicated=True)
        assert not entry.affects_entry("hp/0", dedicated=True)
        tag = FaultSpec("corrupt", "forward", {"field": "tag"})
        assert tag.affects_entry("hp/0", dedicated=True)
        assert not tag.affects_entry("be/0", dedicated=False)

    def test_persistence(self):
        persistent = FaultSpec("entry_loss", "forward",
                               {"entries": ["hp/0"], "rate": 0.8,
                                "start": 0.5, "end": None})
        assert persistent.is_persistent(horizon=4.0)
        assert not persistent.is_persistent(horizon=2.0)  # starts too late
        weak = FaultSpec("uniform_loss", "forward",
                         {"rate": 0.1, "start": 0.0, "end": None})
        assert not weak.is_persistent(horizon=4.0)
        bounded = FaultSpec("uniform_loss", "forward",
                            {"rate": 0.9, "start": 0.0, "end": 1.0})
        assert not bounded.is_persistent(horizon=4.0)


class TestGenerateSchedule:
    def test_deterministic_per_seed(self):
        a = generate_schedule(5, 4.0, DEDICATED, BEST_EFFORT)
        b = generate_schedule(5, 4.0, DEDICATED, BEST_EFFORT)
        assert a == b

    def test_seeds_vary(self):
        schedules = [generate_schedule(s, 4.0, DEDICATED, BEST_EFFORT)
                     for s in range(10)]
        assert len({json.dumps([f.to_dict() for f in s])
                    for s in schedules}) > 1

    def test_never_empty_and_bounded(self):
        for seed in range(50):
            schedule = generate_schedule(seed, 4.0, DEDICATED, BEST_EFFORT)
            assert 1 <= len(schedule) <= 4
            # indexes reflect original draw positions (shrink soundness)
            assert len({s.index for s in schedule}) == len(schedule)

    def test_round_trippable(self):
        for seed in range(20):
            schedule = generate_schedule(seed, 4.0, DEDICATED, BEST_EFFORT)
            doc = json.loads(json.dumps([s.to_dict() for s in schedule]))
            assert [FaultSpec.from_dict(d) for d in doc] == schedule

    def test_displacement_budgets_respected(self):
        for seed in range(200):
            schedule = generate_schedule(seed, 4.0, DEDICATED, BEST_EFFORT)
            fwd = sum(displacement_cost(s) for s in schedule
                      if s.target == "forward")
            rev = sum(displacement_cost(s) for s in schedule
                      if s.target == "reverse")
            assert fwd <= _FORWARD_DISPLACEMENT_BUDGET_S + 1e-9
            assert rev <= _REVERSE_DISPLACEMENT_BUDGET_S + 1e-9


class _RestartRecorder:
    telemetry = None  # no trace collector: the fabric adapter roots no episode

    def __init__(self):
        self.calls = []

    def restart(self, side):
        self.calls.append(side)


class _PairWires:
    """The two-switch soak's addressing: ``"forward"`` / ``"reverse"``
    name the A->B / B->A wires of a two-node fabric."""

    forward, reverse = "forward", "reverse"
    names = ("forward", "reverse")

    def __init__(self):
        self.sim = Simulator()
        graph = FabricGraph("pair")
        graph.add_edge("A", "B")
        self.net = FabricNetwork(self.sim, graph)
        self.forward_link = self.net.link("A", "B")
        self.reverse_link = self.net.link("B", "A")

    def materialize(self, schedule, monitor=None):
        return materialize(
            schedule, 0, self.sim,
            {"forward": self.forward_link, "reverse": self.reverse_link},
            {} if monitor is None else {"forward": monitor})


class _FabricWires:
    """Link-addressed targets on a ring, through the fabric adapter."""

    forward, reverse = link_target("s1", "s2"), link_target("s2", "s1")
    names = ("s1->s2", "s2->s1")

    def __init__(self):
        self.sim = Simulator()
        self.net = FabricNetwork(self.sim, ring(4))
        self.forward_link = self.net.link("s1", "s2")
        self.reverse_link = self.net.link("s2", "s1")

    def materialize(self, schedule, monitor=None):
        deployment = (None if monitor is None
                      else SimpleNamespace(monitors={"s1->s2": monitor}))
        return materialize_on_fabric(schedule, 0, self.net, deployment)


@pytest.fixture(params=[_PairWires, _FabricWires], ids=["pair", "fabric"])
def wires(request):
    return request.param()


class TestMaterialize:
    def test_wiring_by_kind(self, wires):
        monitor = _RestartRecorder()
        schedule = [
            FaultSpec("entry_loss", wires.forward,
                      {"entries": ["hp/0"], "rate": 0.5, "start": 0.0,
                       "end": None}, index=0),
            FaultSpec("control_loss", wires.reverse,
                      {"rate": 0.3, "start": 0.0, "end": 2.0}, index=1),
            FaultSpec("reorder", wires.forward,
                      {"rate": 0.5, "max_displacement_s": 0.004,
                       "start": 0.0, "end": None}, index=2),
            FaultSpec("switch_restart", wires.forward,
                      {"time": 1.0, "side": "downstream"}, index=3),
        ]
        m = wires.materialize(schedule, monitor)
        assert list(m.losses) == [wires.forward, wires.reverse]
        assert isinstance(wires.forward_link.loss_model, CompositeFailure)
        assert isinstance(wires.reverse_link.loss_model, CompositeFailure)
        # every wire no target names stays clean
        others = [link for link in wires.net.links.values()
                  if link not in (wires.forward_link, wires.reverse_link)]
        assert all(link.loss_model is None and link.chaos is None
                   for link in others)
        assert list(m.chaos) == [wires.forward]
        assert wires.forward_link.chaos is m.chaos[wires.forward]
        assert wires.reverse_link.chaos is None
        # displacement faults on a data-direction wire ("forward", or a
        # link-addressed one: its own monitor's forward wire) move DATA only
        assert m.chaos[wires.forward].perturbations[0].kinds == {PacketKind.DATA}
        assert m.restarts == [schedule[3]]
        wires.sim.run(until=2.0)
        assert monitor.calls == ["downstream"]

    def test_fault_seeds_survive_deletion(self, wires):
        """Per-fault RNG seeds key off the *original* index, so deleting
        one fault leaves the survivors' streams untouched (shrink
        soundness)."""
        schedule = [
            FaultSpec("duplicate", wires.forward,
                      {"rate": 0.5, "copies": 1, "start": 0.0, "end": None},
                      index=0),
            FaultSpec("reorder", wires.forward,
                      {"rate": 0.5, "max_displacement_s": 0.004,
                       "start": 0.0, "end": None}, index=1),
        ]
        full = wires.materialize(schedule)
        reduced = type(wires)().materialize(schedule[1:])
        survivor_full = full.chaos[wires.forward].perturbations[1]
        survivor_reduced = reduced.chaos[wires.forward].perturbations[0]
        assert survivor_full.seed == survivor_reduced.seed
        assert [survivor_full.rng.random() for _ in range(5)] == \
            [survivor_reduced.rng.random() for _ in range(5)]

    def test_restart_requires_deployed_monitor(self, wires):
        restart = FaultSpec("switch_restart", wires.forward,
                            {"time": 0.5, "side": "upstream"}, index=0)
        with pytest.raises(ValueError, match="no monitor deployed"):
            wires.materialize([restart])

    def test_one_chaos_model_per_wire(self, wires):
        schedule = [
            FaultSpec("reorder", wires.forward,
                      {"rate": 0.2, "max_displacement_s": 0.002,
                       "start": 0.0, "end": None}, index=0),
            FaultSpec("duplicate", wires.reverse,
                      {"rate": 0.1, "copies": 1, "start": 0.0, "end": None},
                      index=1),
            FaultSpec("duplicate", wires.forward,
                      {"rate": 0.1, "copies": 1, "start": 0.0, "end": None},
                      index=2),
        ]
        m = wires.materialize(schedule)
        forward, reverse = m.chaos[wires.forward], m.chaos[wires.reverse]
        assert (forward.name, reverse.name) == wires.names
        assert len(forward.perturbations) == 2
        assert len(reverse.perturbations) == 1
        assert m.chaos_models() == [forward, reverse]
        assert m.chaos_models(wires.reverse_link) == [reverse]
