"""Benchmark: regenerate the §5.3 overhead analysis."""

from __future__ import annotations

import pytest

from repro.experiments import overhead


def test_overhead_analysis(benchmark, save_artifact):
    result = benchmark.pedantic(overhead.run, rounds=1, iterations=1)
    save_artifact("overhead_analysis", overhead.render(result))

    # Paper anchors (§5.3).
    assert result["dedicated_control"] == pytest.approx(0.00014, rel=0.2)
    assert result["tree_control"] < 1e-5
    assert result["tag"] == pytest.approx(0.0013, rel=0.05)

    # Total control overhead is negligible on a 100 Gbps link.
    assert result["dedicated_control"] + result["tree_control"] < 0.001


def test_overhead_measured_in_simulation(benchmark, save_artifact):
    """Cross-check the closed form against bytes actually injected by the
    FSMs in a short simulated run."""
    from repro.core.detector import FancyConfig, FancyLinkMonitor
    from repro.experiments.metrics import control_overhead
    from repro.simulator.engine import Simulator
    from repro.simulator.topology import TwoSwitchTopology
    from repro.telemetry import Telemetry

    def run():
        telemetry = Telemetry()
        sim = Simulator(telemetry=telemetry)
        topo = TwoSwitchTopology(sim, telemetry=telemetry)
        monitor = FancyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            FancyConfig(high_priority=["e"], tree_params=None,
                        dedicated_session_s=0.050),
            telemetry=telemetry,
        )
        monitor.start()
        sim.run(until=10.0)
        # Both FSMs of the pair count into one registry.
        return control_overhead(telemetry.metrics)["messages"] / 10.0

    rate = benchmark.pedantic(run, rounds=1, iterations=1)
    # One session ≈ 90 ms (50 ms + 2 RTTs) → ~11 sessions/s × 4 messages.
    assert 30 < rate < 60
    save_artifact("overhead_simulated",
                  f"measured control packets/s for one FSM pair: {rate:.1f} "
                  "(expected ~44: 4 messages per ~90 ms session cycle)")
