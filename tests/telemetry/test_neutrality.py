"""The observer is neutral: telemetry on runs the pipeline's code, no more.

The north star says turning telemetry on must not change which code path
runs.  Each case below simulates once without and once with a
:class:`Telemetry` session, and counts the Python calls made beneath
``Simulator.run`` per function (``tests/frames.py``): everything the
simulation executes, but not the set-up that builds and binds the
observer.  Frames of ``repro.telemetry`` and ``repro.obs`` — the
registry, timeline and trace collector — and everything they call are
the observer's own; every other function must run equally often.

What a counter would re-count is read when the registry is read
(``MetricsRegistry.read``), so no pipeline frame does it; a gauge's
running max and a histogram are fed from an inline check; a trace
episode's spans are ``repro.obs`` frames.  Two differences an earlier
measurement found are gone or outside the loop:

* the hash tree's ``now_fn`` lambda ran 12 → 50 times in a tree trial:
  each zoom record asked the clock again, where the strategy now keeps
  the session end's time;
* ``HashTree.hash_path`` ran 99 → 100 times: the experiment runner asks
  the tree where a failed entry hashes to label its own
  ``failure_injected`` record, once per failed entry, between the two
  ``run`` calls of an observed trial — the harness recording the
  injection, not the pipeline.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Any, Callable, Optional

import pytest

from repro.chaos.schedule import FaultSpec, link_target
from repro.core.detector import FancyConfig
from repro.core.hashtree import HashTreeParams
from repro.experiments.runner import ExperimentSpec, run_entry_failure
from repro.fabric.builders import line, ring
from repro.fabric.chaos import materialize_on_fabric
from repro.fabric.deployment import FabricDeployment
from repro.fabric.graph import FabricNetwork
from repro.service.ladder import attach_ladder
from repro.service.supervision import InvariantSupervisor
from repro.simulator.engine import Simulator
from repro.simulator.failures import EntryLossFailure
from repro.simulator.fluid import FluidFlow, FluidTraffic
from repro.telemetry import Telemetry
from repro.traffic.synthetic import EntrySize
from tests.frames import calls_by_function

OBSERVER = ("repro.telemetry", "repro.obs")


def _trial(mode: str) -> Callable[[Optional[Telemetry]], Any]:
    """A two-switch entry-failure trial: 50 entries at 1 Mbps, half the
    failed entry's packets lost from t ≈ 0.5 s (the detection opens a
    trace episode on the observed run)."""
    spec = ExperimentSpec(entry_size=EntrySize(1e6, 50), loss_rate=0.5,
                          mode=mode, duration_s=3.0, n_background=5,
                          max_pps_per_entry=300, seed=1)
    return lambda telemetry: run_entry_failure(spec, telemetry=telemetry)


def _fluid_line(telemetry: Optional[Telemetry]) -> None:
    """``line(3)`` with both links monitored, fluid flows ``s0 → s2`` and
    an entry loss on ``s1->s2``."""
    sim = Simulator()
    net = FabricNetwork(sim, line(3), telemetry=telemetry)
    entries = [f"e{i}" for i in range(4)]
    for entry in entries:
        net.add_entry(entry, "s0", "s2")
    net.link("s1", "s2").loss_model = EntryLossFailure(
        {"e0"}, 0.5, start_time=1.0, seed=3)
    deployment = FabricDeployment(
        net, config=FancyConfig(
            high_priority=entries[:2],
            tree_params=HashTreeParams(width=8, depth=2, split=2, pipelined=True)),
        telemetry=telemetry)
    engine = FluidTraffic(sim)
    for i, entry in enumerate(entries):
        engine.add_flow(FluidFlow(entry=entry, flow_id=i, rate_bps=400_000,
                                  packet_size=500, jitter=0.1, seed=i,
                                  start_s=0.001 * (i + 1)))
    deployment.bind_fluid(engine, {"s0->s1": 1, "s1->s2": 2})
    deployment.start(stagger_s=0.005)
    sim.run(until=4.0)


def _serve_probe(telemetry: Optional[Telemetry]) -> None:
    """The serve probe's parts on one link, at the quick serve's scaled
    timers: a ring, one monitor with its degradation ladder and I1–I6
    observer, control-plane grey on the monitored link's return wire,
    fluid flows, an entry-set rotation and a trace episode over the grey."""
    sim = Simulator()
    net = FabricNetwork(sim, ring(4))
    dedicated = [f"p/{i}" for i in range(0, 8, 2)]
    best_effort = [f"p/{i}" for i in range(1, 8, 2)]
    for entry in dedicated + best_effort:
        net.add_entry(entry, "s1", "s3")
    deployment = FabricDeployment(
        net, config=FancyConfig(
            high_priority=dedicated,
            tree_params=HashTreeParams(width=8, depth=2, split=2, pipelined=True),
            dedicated_session_s=10.0, tree_session_s=12.0, rtx_timeout_s=2.0,
            twait_s=1.0, seed=5),
        links=["s1->s2"], telemetry=telemetry)
    monitor = deployment.monitors["s1->s2"]
    schedule = [FaultSpec("control_loss", link_target("s2", "s1"),
                          {"rate": 0.2, "start": 300.0, "end": None}, index=0)]
    materialized = materialize_on_fabric(schedule, 0, net, deployment)
    ladder = attach_ladder(monitor, link_id="s1->s2", declare_grace_s=20.0,
                           max_absorbed_cycles=3)
    supervisor = InvariantSupervisor(sim, telemetry=telemetry, interval_s=60.0)
    supervisor.watch("s1->s2", monitor, schedule, dedicated, best_effort,
                     links=[net.links[lid] for lid in sorted(net.links)],
                     chaos_models=materialized.chaos_models())
    supervisor.start()
    engine = FluidTraffic(sim)
    for i, entry in enumerate(dedicated + best_effort):
        engine.add_flow(FluidFlow(entry=entry, flow_id=i, rate_bps=40_000,
                                  packet_size=400, jitter=0.1, seed=i,
                                  start_s=0.0005 * (i + 1)))
    deployment.bind_fluid(engine, {"s1->s2": 7})
    sim.schedule_at(600.0, monitor.update_entries, best_effort)
    monitor.start()
    sim.run(until=300.0)
    if telemetry is not None:
        # As the serve roots one: between runs, outside what is counted.
        monitor.telemetry.traces.begin_episode(sim.now, cause="fault")
    sim.run(until=900.0)
    assert ladder.transitions and not supervisor.breach_counts()


CASES = {
    "dedicated_trial": _trial("dedicated"),
    "tree_trial": _trial("tree"),
    "fluid_line3": _fluid_line,
    "serve_probe": _serve_probe,
}


def pipeline_calls(case: Callable[[Optional[Telemetry]], Any],
                   telemetry: Optional[Telemetry]) -> Counter:
    """With the cyclic collector off: its callbacks (``gc.callbacks``,
    finalizers) run wherever an allocation happens to trigger it."""
    gc.collect()
    gc.disable()
    try:
        return calls_by_function(case, telemetry, within=Simulator.run.__code__,
                                 exclude=OBSERVER)
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(CASES))
def test_telemetry_runs_no_pipeline_code(name):
    case = CASES[name]
    # Once unprofiled first: process-wide memos (hash paths, ``isinstance``
    # caches) then start warm for both runs that are compared.
    case(None)
    plain = pipeline_calls(case, None)
    telemetry = Telemetry()
    observed = pipeline_calls(case, telemetry)
    differ = {fn: (plain[fn], observed[fn]) for fn in plain.keys() | observed.keys()
              if plain[fn] != observed[fn]}
    assert differ == {}
    # The observer was there, and read what the pipeline counted.
    assert telemetry.metrics.total("fancy_control_messages_total") > 0
    assert sum(plain.values()) > 10_000
