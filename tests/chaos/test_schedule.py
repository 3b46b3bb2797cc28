"""Tests for fault-schedule generation, serialisation, and guardrails."""

from __future__ import annotations

import json
import math

import pytest

from repro.chaos.schedule import (
    _DISPLACEMENT_BUDGET_S,
    FaultSpec,
    _displacement_s,
    generate_schedule,
    link_target,
    materialize,
)
from repro.fabric.builders import ring
from repro.fabric.graph import FabricGraph, FabricNetwork
from repro.simulator.engine import Simulator
from repro.simulator.failures import CompositeFailure
from repro.simulator.packet import PacketKind

DEDICATED = ["hp/0", "hp/1", "hp/2", "hp/3"]
BEST_EFFORT = ["be/0", "be/1"]
AB, BA = link_target("A", "B"), link_target("B", "A")


class TestFaultSpec:
    def test_round_trip(self):
        spec = FaultSpec("entry_loss", AB,
                         {"entries": ["hp/0"], "rate": 0.5,
                          "start": 1.0, "end": 2.0}, index=3)
        doc = json.loads(json.dumps(spec.to_dict()))
        assert FaultSpec.from_dict(doc) == spec

    @pytest.mark.parametrize("target", [
        "forward", "reverse", "link:", "link:A", "link:A->", "s1->s2", None,
    ])
    def test_from_dict_rejects_targets_that_are_not_links(self, target):
        """Reproducer files and soak payloads enter through ``from_dict``:
        a target from the old two-switch vocabulary fails there, by name."""
        doc = {"kind": "uniform_loss", "target": target,
               "params": {"rate": 0.5}, "index": 0}
        with pytest.raises(ValueError, match=repr(str(target))):
            FaultSpec.from_dict(doc)

    def test_window_forms(self):
        open_ended = FaultSpec("uniform_loss", AB,
                               params={"start": 1.0, "end": None})
        assert open_ended.window() == (1.0, math.inf)
        flap = FaultSpec("link_flap", AB,
                         params={"windows": [[1.0, 1.5], [3.0, 3.2]]})
        assert flap.window() == (1.0, 3.2)
        restart = FaultSpec("switch_restart", AB,
                            params={"time": 2.0, "side": "both"})
        assert restart.window() == (2.0, 2.0)

    def test_active_in(self):
        spec = FaultSpec("uniform_loss", AB, params={"start": 1.0, "end": 2.0})
        assert spec.active_in(0.0, 1.0)
        assert spec.active_in(1.5, 3.0)
        assert not spec.active_in(2.5, 3.0)

    def test_loss_class_membership(self):
        assert FaultSpec("entry_loss", AB,
                         {"entries": ["hp/0"]}).is_loss_class("A->B")
        assert FaultSpec("corrupt", AB, {"field": "tag"}).is_loss_class("A->B")
        assert not FaultSpec("corrupt", AB,
                             {"field": "seq"}).is_loss_class("A->B")
        assert not FaultSpec("reorder", AB, {}).is_loss_class("A->B")
        assert not FaultSpec("entry_loss", BA,
                             {"entries": ["hp/0"]}).is_loss_class("A->B")

    def test_control_class_membership(self):
        assert FaultSpec("control_loss", BA, {}).is_control_class("A->B")
        assert FaultSpec("switch_restart", AB,
                         {"time": 1.0}).is_control_class("A->B")
        assert FaultSpec("corrupt", BA,
                         {"field": "session"}).is_control_class("A->B")
        assert not FaultSpec("duplicate", BA, {}).is_control_class("A->B")

    def test_classification_follows_the_observing_link(self):
        """One schedule, read by each monitor from its own link: a fault
        on ``s1->s2`` is data-wire loss for that link's monitor and a
        return-wire fault for ``s2->s1``'s; a fault on ``s0->s1`` is
        neither's."""
        own = FaultSpec("entry_loss", link_target("s1", "s2"),
                        {"entries": ["e"], "rate": 0.5,
                         "start": 0.5, "end": None})
        back = FaultSpec("control_loss", link_target("s2", "s1"),
                         {"rate": 0.2, "start": 0.0, "end": None})
        elsewhere = FaultSpec("link_flap", link_target("s0", "s1"),
                              {"windows": [[0.5, 1.0]]})
        assert own.is_loss_class("s1->s2")
        assert own.is_persistent(4.0, "s1->s2")
        assert not own.is_loss_class("s2->s1")
        assert not own.is_persistent(4.0, "s2->s1")
        assert back.is_control_class("s1->s2")
        assert back.is_control_class("s2->s1")
        for link_id in ("s1->s2", "s2->s1"):
            assert not elsewhere.is_loss_class(link_id)
            assert not elsewhere.is_control_class(link_id)
        assert elsewhere.is_loss_class("s0->s1")
        assert elsewhere.is_control_class("s1->s0")

    def test_affects_entry_scoping(self):
        entry = FaultSpec("entry_loss", AB, {"entries": ["hp/1"]})
        assert entry.affects_entry("hp/1", True, "A->B")
        assert not entry.affects_entry("hp/0", True, "A->B")
        assert not entry.affects_entry("hp/1", True, "B->A")
        tag = FaultSpec("corrupt", AB, {"field": "tag"})
        assert tag.affects_entry("hp/0", True, "A->B")
        assert not tag.affects_entry("be/0", False, "A->B")

    def test_persistence(self):
        persistent = FaultSpec("entry_loss", AB,
                               {"entries": ["hp/0"], "rate": 0.8,
                                "start": 0.5, "end": None})
        assert persistent.is_persistent(4.0, "A->B")
        assert not persistent.is_persistent(2.0, "A->B")  # starts too late
        weak = FaultSpec("uniform_loss", AB,
                         {"rate": 0.1, "start": 0.0, "end": None})
        assert not weak.is_persistent(4.0, "A->B")
        bounded = FaultSpec("uniform_loss", AB,
                            {"rate": 0.9, "start": 0.0, "end": 1.0})
        assert not bounded.is_persistent(4.0, "A->B")


#: Link sets a schedule is drawn over: the two-switch pair, the ring
#: soak's two entry-carrying links, and a link monitored both ways, whose
#: reverse is another monitor's data wire.
LINK_SETS = {
    "pair": ["A->B"],
    "ring": ["s0->s1", "s1->s2"],
    "both-ways": ["s1->s2", "s2->s1"],
}


def _reverse(link_id: str) -> str:
    a, _, b = link_id.partition("->")
    return f"{b}->{a}"


class TestGenerateSchedule:
    def test_deterministic_per_seed(self):
        a = generate_schedule(5, 4.0, DEDICATED, BEST_EFFORT, ["A->B"])
        b = generate_schedule(5, 4.0, DEDICATED, BEST_EFFORT, ["A->B"])
        assert a == b

    def test_seeds_vary(self):
        schedules = [generate_schedule(s, 4.0, DEDICATED, BEST_EFFORT,
                                       ["A->B"])
                     for s in range(10)]
        assert len({json.dumps([f.to_dict() for f in s])
                    for s in schedules}) > 1

    def test_never_empty_and_bounded(self):
        for seed in range(50):
            schedule = generate_schedule(seed, 4.0, DEDICATED, BEST_EFFORT,
                                         ["A->B"])
            assert 1 <= len(schedule) <= 4
            # indexes reflect original draw positions (shrink soundness)
            assert len({s.index for s in schedule}) == len(schedule)

    def test_round_trippable(self):
        for seed in range(20):
            schedule = generate_schedule(seed, 4.0, DEDICATED, BEST_EFFORT,
                                         ["A->B"])
            doc = json.loads(json.dumps([s.to_dict() for s in schedule]))
            assert [FaultSpec.from_dict(d) for d in doc] == schedule

    def test_displacement_budgets_respected(self):
        """Displacement is charged per (wire, role): a monitor's data
        wire against the data budget, a monitor's return wire against the
        control budget, and a wire with both roles against both."""
        for links in LINK_SETS.values():
            data_wires = {link_target(*lid.split("->")) for lid in links}
            return_wires = {link_target(*_reverse(lid).split("->"))
                            for lid in links}
            for seed in range(200):
                spent: dict[str, float] = {}
                for spec in generate_schedule(seed, 4.0, DEDICATED,
                                              BEST_EFFORT, links):
                    spent[spec.target] = (spent.get(spec.target, 0.0)
                                          + _displacement_s(spec))
                for wire, cost in spent.items():
                    assert wire in data_wires | return_wires
                    if wire in data_wires:
                        assert cost <= _DISPLACEMENT_BUDGET_S["data"] + 1e-9
                    if wire in return_wires:
                        assert cost <= \
                            _DISPLACEMENT_BUDGET_S["control"] + 1e-9

    def test_loss_class_faults_sit_on_the_links_drawn_over(self):
        links = LINK_SETS["ring"]
        data_wires = {link_target(*lid.split("->")) for lid in links}
        hit: set[str] = set()
        for seed in range(100):
            for spec in generate_schedule(seed, 4.0, DEDICATED, BEST_EFFORT,
                                          links):
                hit.add(spec.target)
                if spec.kind in ("entry_loss", "uniform_loss",
                                 "switch_restart") \
                        or spec.params.get("field") in ("tag", "seq"):
                    assert spec.target in data_wires, spec
        # every link and every return wire gets drawn
        assert hit == data_wires | {link_target(*_reverse(lid).split("->"))
                                    for lid in links}


class _RestartRecorder:
    telemetry = None  # no trace collector: the fabric adapter roots no episode

    def __init__(self):
        self.calls = []

    def restart(self, side):
        self.calls.append(side)


def _pair() -> FabricGraph:
    graph = FabricGraph("pair")
    graph.add_edge("A", "B")
    return graph


class _Wires:
    """A monitored link ``forward`` and its return wire ``reverse`` on a
    built fabric: the two-switch soak's pair or a ring."""

    def __init__(self, graph: FabricGraph, a: str, b: str):
        self.sim = Simulator()
        self.net = FabricNetwork(self.sim, graph)
        self.link_id = f"{a}->{b}"
        self.forward, self.reverse = link_target(a, b), link_target(b, a)
        self.names = (f"{a}->{b}", f"{b}->{a}")
        self.forward_link = self.net.link(a, b)
        self.reverse_link = self.net.link(b, a)

    def materialize(self, schedule, monitor=None):
        return materialize(
            schedule, 0, self.net,
            {} if monitor is None else {self.link_id: monitor})


WIRINGS = {
    "pair": lambda: _Wires(_pair(), "A", "B"),
    "fabric": lambda: _Wires(ring(4), "s1", "s2"),
}


@pytest.fixture(params=list(WIRINGS), ids=list(WIRINGS))
def wires(request):
    return WIRINGS[request.param]()


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
        assert list(m.losses) == list(wires.names)
        assert isinstance(wires.forward_link.loss_model, CompositeFailure)
        assert isinstance(wires.reverse_link.loss_model, CompositeFailure)
        # every wire no target names stays clean
        others = [link for link in wires.net.links.values()
                  if link not in (wires.forward_link, wires.reverse_link)]
        assert all(link.loss_model is None and link.chaos is None
                   for link in others)
        assert list(m.chaos) == [wires.names[0]]
        assert wires.forward_link.chaos is m.chaos[wires.names[0]]
        assert wires.reverse_link.chaos is None
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
        reduced = materialize(schedule[1:], 0, FabricNetwork(
            Simulator(), wires.net.graph), {})
        survivor_full = full.chaos[wires.names[0]].perturbations[1]
        survivor_reduced = reduced.chaos[wires.names[0]].perturbations[0]
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
        forward, reverse = m.chaos[wires.names[0]], m.chaos[wires.names[1]]
        assert (forward.name, reverse.name) == wires.names
        assert len(forward.perturbations) == 2
        assert len(reverse.perturbations) == 1
        assert m.chaos_models() == [forward, reverse]
        assert m.chaos_models(wires.reverse_link) == [reverse]


class TestDisplacementRule:
    @pytest.mark.parametrize("kind, params", [
        ("reorder", {"rate": 0.5, "max_displacement_s": 0.002,
                     "start": 0.1, "end": None}),
        ("delay_spike", {"spike_s": 0.003, "rate": 1.0,
                         "start": 0.1, "end": None}),
    ], ids=["reorder", "delay_spike"])
    def test_every_wire_spares_only_start_and_stop(self, kind, params):
        """One rule on every wire, whichever monitor's data or return
        wire it is: a displacement fault may move every packet kind but
        the FANCY_START / FANCY_STOP delimiters of a counting window."""
        net = FabricNetwork(Simulator(), ring(4))
        schedule = [FaultSpec(kind, "link:" + link_id, params, index=i)
                    for i, link_id in enumerate(sorted(net.links))]
        m = materialize(schedule, 0, net, {})
        movable = set(PacketKind) - {PacketKind.FANCY_START,
                                     PacketKind.FANCY_STOP}
        assert sorted(m.chaos) == sorted(net.links)
        for model in m.chaos.values():
            (perturbation,) = model.perturbations
            assert perturbation.kinds == movable
