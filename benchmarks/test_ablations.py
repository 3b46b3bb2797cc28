"""Ablation benchmarks for the design choices called out in DESIGN.md.

These do not correspond to one specific paper artifact; they isolate the
effect of individual design decisions: pipelined vs staged zooming,
known-failure suppression, counter-exchange frequency (§5.1.1), and the
tree-vs-alternatives memory/accuracy trade-off (Appendix A).
"""

from __future__ import annotations

from repro.core.analysis import expected_collisions, tree_total_memory_bits
from repro.core.hashtree import HashTreeParams
from repro.experiments.metrics import aggregate
from repro.experiments.runner import ExperimentSpec, run_cell, run_entry_failure
from repro.traffic.synthetic import EntrySize


def test_ablation_exchange_frequency(benchmark, save_artifact):
    """§5.1.1: the exchange frequency moves detection time, not accuracy."""

    def run():
        out = {}
        for session_s in (0.050, 0.200):
            spec = ExperimentSpec(
                entry_size=EntrySize(1e6, 20), loss_rate=1.0, mode="dedicated",
                dedicated_session_s=session_s, duration_s=6.0,
                n_background=3, max_pps_per_entry=150,
            )
            out[session_s] = run_cell(spec, repetitions=3)
        return out

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    fast, slow = cells[0.050], cells[0.200]
    assert fast.avg_tpr == slow.avg_tpr == 1.0
    assert fast.avg_detection_time < slow.avg_detection_time
    save_artifact(
        "ablation_exchange_frequency",
        "exchange frequency ablation (dedicated counters, blackhole):\n"
        f"  50 ms sessions: TPR {fast.avg_tpr:.2f}, detection {fast.avg_detection_time:.3f}s\n"
        f"  200 ms sessions: TPR {slow.avg_tpr:.2f}, detection {slow.avg_detection_time:.3f}s",
    )


def test_ablation_pipelined_vs_staged(benchmark, save_artifact):
    """Pipelining explores k^(d-1) paths at once; the staged wave (the
    Tofino mode) drains multi-entry bursts more slowly."""

    def run():
        out = {}
        for pipelined in (True, False):
            spec = ExperimentSpec(
                entry_size=EntrySize(300e3, 5), loss_rate=1.0, mode="tree",
                n_failed=6,
                tree_params=HashTreeParams(width=24, depth=3, split=2,
                                           pipelined=pipelined),
                duration_s=14.0, n_background=3, max_pps_per_entry=40,
            )
            out[pipelined] = aggregate([run_entry_failure(spec, rep=r)
                                        for r in range(2)])
        return out

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    pipe, staged = cells[True], cells[False]
    assert pipe.avg_tpr >= staged.avg_tpr - 0.2
    assert pipe.avg_detection_time <= staged.avg_detection_time
    save_artifact(
        "ablation_pipelined_vs_staged",
        "zooming mode ablation (6-entry blackhole burst):\n"
        f"  pipelined: TPR {pipe.avg_tpr:.2f}, detection {pipe.avg_detection_time:.2f}s\n"
        f"  staged:    TPR {staged.avg_tpr:.2f}, detection {staged.avg_detection_time:.2f}s",
    )


def test_ablation_suppress_known(benchmark, save_artifact):
    """Deprioritizing already-reported paths keeps multi-entry bursts
    draining instead of re-walking known failures."""

    def run():
        out = {}
        for suppress in (True, False):
            spec = ExperimentSpec(
                entry_size=EntrySize(300e3, 5), loss_rate=0.5, mode="tree",
                n_failed=8, suppress_known=suppress,
                tree_params=HashTreeParams(width=24, depth=3, split=2),
                duration_s=14.0, n_background=3, max_pps_per_entry=40,
            )
            out[suppress] = aggregate([run_entry_failure(spec, rep=r)
                                       for r in range(2)])
        return out

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    on, off = cells[True], cells[False]
    assert on.avg_tpr >= off.avg_tpr - 0.05
    save_artifact(
        "ablation_suppress_known",
        "known-failure suppression ablation (8-entry burst @ 50% loss):\n"
        f"  suppression on:  TPR {on.avg_tpr:.2f}, detection {on.avg_detection_time:.2f}s\n"
        f"  suppression off: TPR {off.avg_tpr:.2f}, detection {off.avg_detection_time:.2f}s",
    )


def test_ablation_tree_geometry_tradeoff(benchmark, save_artifact):
    """Appendix A: width/depth trade memory against collision rate."""

    def run():
        rows = []
        for width, depth in ((64, 2), (190, 3), (380, 3), (190, 4)):
            params = HashTreeParams(width=width, depth=depth, split=2)
            rows.append({
                "params": f"w={width} d={depth}",
                "memory_kb": tree_total_memory_bits(params) / 8 / 1024,
                "expected_fps": expected_collisions(params, 100, 250_000),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_label = {r["params"]: r for r in rows}
    # More hash paths (wider or deeper) → fewer expected collisions.
    assert by_label["w=380 d=3"]["expected_fps"] < by_label["w=190 d=3"]["expected_fps"]
    assert by_label["w=190 d=4"]["expected_fps"] < by_label["w=190 d=3"]["expected_fps"]
    # ... at a memory cost.
    assert by_label["w=380 d=3"]["memory_kb"] > by_label["w=190 d=3"]["memory_kb"]
    lines = ["tree geometry ablation (100 faulty of 250K entries):"]
    for r in rows:
        lines.append(f"  {r['params']:<12} memory {r['memory_kb']:7.1f} KB  "
                     f"expected FPs {r['expected_fps']:.2f}")
    save_artifact("ablation_tree_geometry", "\n".join(lines))


def test_ablation_strawman_memory(benchmark, save_artifact):
    """§4.1 strawman: continuous counting with in-packet session IDs needs
    k× the memory for k-session reliability; FANcY's stop-and-wait keeps
    a single counter set."""

    def run():
        n_entries = 500
        fancy_bits = n_entries * 80
        return {
            "fancy": fancy_bits,
            "strawman": {k: k * fancy_bits for k in (2, 4, 8)},
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["strawman"][2] == 2 * result["fancy"]
    assert result["strawman"][8] == 8 * result["fancy"]
    save_artifact(
        "ablation_strawman_memory",
        "counting-protocol memory (500 entries):\n"
        f"  FANcY stop-and-wait: {result['fancy'] / 8 / 1024:.1f} KB\n"
        + "\n".join(
            f"  strawman, {k}-session history: {bits / 8 / 1024:.1f} KB"
            for k, bits in result["strawman"].items()
        ),
    )


def test_ablation_strawman_reliability(benchmark, save_artifact):
    """§4.1's motivating comparison, executed: on a reverse-lossy link the
    strawman silently loses sessions while FANcY's stop-and-wait keeps
    detecting."""
    from repro.core.detector import FancyConfig, FancyLinkMonitor
    from repro.core.strawman import StrawmanLinkMonitor
    from repro.simulator.apps import FlowGenerator
    from repro.simulator.engine import Simulator
    from repro.simulator.failures import ControlPlaneFailure, EntryLossFailure
    from repro.simulator.packet import PacketKind
    from repro.simulator.topology import TwoSwitchTopology

    def run():
        out = {}
        for protocol in ("fancy", "strawman"):
            sim = Simulator()
            data_failure = EntryLossFailure({"e"}, 0.5, start_time=1.0, seed=1)
            reverse = ControlPlaneFailure(0.6, kinds={PacketKind.FANCY_REPORT},
                                          seed=2)
            topo = TwoSwitchTopology(sim, loss_model=data_failure,
                                     reverse_loss_model=reverse)
            detections = []
            if protocol == "fancy":
                monitor = FancyLinkMonitor(
                    sim, topo.upstream, 1, topo.downstream, 1,
                    FancyConfig(high_priority=["e"], tree_params=None),
                )
            else:
                monitor = StrawmanLinkMonitor(
                    sim, topo.upstream, 1, topo.downstream, 1, ["e"],
                    on_detection=lambda e, lost, sid: detections.append(e),
                )
            FlowGenerator(sim, topo.source, "e", rate_bps=1e6,
                          flows_per_second=10, seed=1, destination=topo.sink).start()
            monitor.start()
            sim.run(until=6.0)
            if protocol == "fancy":
                out[protocol] = {
                    "detected": monitor.entry_is_flagged("e"),
                    "sessions_lost": 0,
                    "memory_sets": 1,
                }
            else:
                out[protocol] = {
                    "detected": bool(monitor.sender.flagged_entries),
                    "sessions_lost": monitor.sender.sessions_lost,
                    "memory_sets": monitor.sender.memory_counter_sets,
                }
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["fancy"]["detected"] is True
    assert result["strawman"]["sessions_lost"] > 0
    save_artifact(
        "ablation_strawman_reliability",
        "protocol reliability under 60% Report loss (50% data gray failure):\n"
        f"  FANcY stop-and-wait: detected={result['fancy']['detected']}, "
        "sessions lost=0, 1x counter memory\n"
        f"  strawman (k=2):      detected={result['strawman']['detected']}, "
        f"sessions lost={result['strawman']['sessions_lost']}, "
        f"{result['strawman']['memory_sets']}x counter memory",
    )
