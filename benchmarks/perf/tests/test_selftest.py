"""Self-tests of the benchmark's own machinery.

Plain functions, no fixtures: ``run.py --selftest`` calls them directly
and ``pytest benchmarks/perf/tests`` collects them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))

import compare  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
import trace  # noqa: E402  (benchmarks/perf/trace.py, not the stdlib module)
from trace import LAYERS, ROOT, BoundaryTracer, layer_of, self_times  # noqa: E402

# -- tracer -----------------------------------------------------------------------------

_FAKE_SOURCES = {
    "/fake/engine.py": "def f(g, h):\n    g(h)\n    g(h)\n",
    "/fake/protocol.py": "def g(h):\n    h()\n",
    "/fake/engine_leaf.py": "def h():\n    pass\n",
}
_FAKE_LAYERS = {
    "/fake/engine.py": "simulator.engine",
    "/fake/protocol.py": "core.protocol",
    "/fake/engine_leaf.py": "simulator.engine",
}


def _fake_functions() -> dict:
    namespace: dict = {}
    for filename, source in _FAKE_SOURCES.items():
        exec(compile(source, filename, "exec"), namespace)
    return namespace


class _TickClock:
    """Advances by one second every time it is read."""

    def __init__(self) -> None:
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_span_self_time_arithmetic():
    """engine.f -> protocol.g -> engine.h, twice, one clock tick per
    boundary event: self time is span time minus child spans."""
    fns = _fake_functions()
    tracer = BoundaryTracer(layer_of_file=_FAKE_LAYERS.get, clock=_TickClock())
    with tracer:
        fns["f"](fns["g"], fns["h"])

    # Events, one tick each: start, f in, g in, h in, h out, g out,
    # g in, h in, h out, g out, f out, finish.
    assert tracer.wall_s == 11.0
    assert tracer.span_count == 5
    assert tracer.self_s[ROOT] == 2.0
    assert tracer.self_s["simulator.engine"] == 5.0
    assert tracer.self_s["core.protocol"] == 4.0
    assert sum(tracer.self_s.values()) == tracer.wall_s
    assert tracer.coverage() == 9.0 / 11.0
    assert tracer.edges == {
        (ROOT, "simulator.engine"): (1, 9.0),
        ("simulator.engine", "core.protocol"): (2, 6.0),
        ("core.protocol", "simulator.engine"): (2, 2.0),
    }
    assert tracer.calls_in()["simulator.engine"] == 3
    assert tracer.calls_in()["core.protocol"] == 2
    # The incremental bookkeeping agrees with the plain definition
    # applied to the raw spans.
    by_definition = self_times(tracer.raw)
    assert by_definition == {"simulator.engine": 5.0, "core.protocol": 4.0}
    # Raw spans carry name, start, end and the span that caused them.
    assert [(s[1], s[3]) for s in tracer.raw] == [
        ("simulator.engine", None), ("core.protocol", 0), ("simulator.engine", 1),
        ("core.protocol", 0), ("simulator.engine", 3)]


def test_raw_sample_is_bounded_but_aggregates_are_not():
    fns = _fake_functions()
    tracer = BoundaryTracer(layer_of_file=_FAKE_LAYERS.get, max_raw=2,
                            clock=_TickClock())
    with tracer:
        fns["f"](fns["g"], fns["h"])
    assert len(tracer.raw) == 2
    assert tracer.span_count == 5
    assert tracer.self_s["core.protocol"] == 4.0


def test_tracer_leaves_the_profile_hook_as_it_found_it():
    def previous(frame, event, arg):
        return None

    for hook in (None, previous):
        sys.setprofile(hook)
        try:
            with BoundaryTracer():
                pass
            assert sys.getprofile() is hook
        finally:
            sys.setprofile(None)


def test_generator_frames_open_and_close_spans_per_resume():
    namespace: dict = {}
    exec(compile("def gen():\n    yield 1\n    yield 2\n", "/fake/protocol.py", "exec"),
         namespace)
    tracer = BoundaryTracer(layer_of_file=_FAKE_LAYERS.get, clock=_TickClock())
    with tracer:
        assert list(namespace["gen"]()) == [1, 2]
    # Two yields and the final return: three resumes, three spans.
    assert tracer.span_count == 3
    assert tracer.self_s["core.protocol"] == 3.0


# -- layer map ---------------------------------------------------------------------------

_LAYERED_PACKAGES = ("simulator", "core", "fabric", "runtime", "service",
                     "telemetry", "obs", "experiments", "traffic", "chaos")


def test_layer_map_covers_every_source_file():
    assert trace.REPRO_DIR.is_dir(), trace.REPRO_DIR
    unmapped = []
    seen = set()
    for package in _LAYERED_PACKAGES:
        files = sorted((trace.REPRO_DIR / package).rglob("*.py"))
        assert files, package
        for path in files:
            layer = layer_of(str(path))
            if layer not in LAYERS:
                unmapped.append(str(path))
            seen.add(layer)
    assert not unmapped, unmapped
    assert seen == set(LAYERS)          # and no layer is empty
    assert layer_of("/usr/lib/python3/heapq.py") is None
    assert layer_of(str(trace.REPRO_DIR / "cli.py")) is None


# -- statistics ---------------------------------------------------------------------------


def test_quartiles_and_high_percentile():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q = harness.quartiles(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert (q["q1"], q["median"], q["q3"], q["n"]) == (q1, q2, q3, 10)
    assert q["median"] == statistics.median(values)
    assert harness.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}

    assert harness.high_percentile(list(range(9))) is None
    assert harness.high_percentile([float(i) for i in range(48)])[0] == 75.0
    p, value = harness.high_percentile([float(i) for i in range(1000)])
    assert (p, value) == (99.0, 990.0)
    assert harness.high_percentile([float(i) for i in range(20000)])[0] == 99.9


# -- judge ----------------------------------------------------------------------------------


def _run(digest: str, failed_checks=(), traced=False) -> dict:
    return {"digest": digest, "traced": traced,
            "summary": {"checks": 2, "failed_checks": list(failed_checks)}}


def test_judge_counts_one_operation_per_run_and_check():
    # Seed 12345 has no golden: 2 shape checks + 1 digest agreement per run.
    attempted, failed, reasons = harness.judge(
        [_run("aa"), _run("aa"), _run("aa", traced=True)], "fabric_fluid", 12345)
    assert (attempted, failed, reasons) == (9, 0, [])

    attempted, failed, reasons = harness.judge(
        [_run("aa"), _run("bb", failed_checks=["loop_closes"])], "fabric_fluid", 12345)
    assert (attempted, failed) == (6, 2)
    assert "loop_closes" in reasons[0] and "differs from run 0" in reasons[1]


def test_golden_digests_are_pinned_for_seed_zero_only():
    from workloads import WORKLOADS

    golden = json.loads(harness.GOLDEN.read_text())
    assert set(golden) == set(WORKLOADS)
    assert all(set(seeds) == {"0"} for seeds in golden.values())
    assert harness.golden_digest("fabric_fluid", 1) is None


# -- compare --------------------------------------------------------------------------------


def _sample(metric: str, values: list) -> dict:
    unit, better, _ = metrics.END_TO_END[metric]
    return {"unit": unit, "better": better, "values": values,
            **harness.quartiles(values)}


def _exact(metric: str, value) -> dict:
    unit, better, _ = metrics.END_TO_END[metric]
    return {"unit": unit, "better": better, "value": value}


def test_compare_verdicts_on_hand_made_inputs():
    speed = "sim_s_per_wall_s"
    tight = [100.0, 100.5, 99.5, 100.2, 99.8]
    verdict = compare.verdict

    # Within the 10 % bound, tight runs.
    assert verdict(speed, "fabric_fluid", _sample(speed, tight),
                   _sample(speed, [v * 0.95 for v in tight]))[0] == "ok"
    # 20 % slower: regressed.
    assert verdict(speed, "fabric_fluid", _sample(speed, tight),
                   _sample(speed, [v * 0.80 for v in tight]))[0] == "regressed"
    # ... but 12 % slower is inside fabric_sharded's 15 %.
    slower = _sample(speed, [v * 0.88 for v in tight])
    assert verdict(speed, "fabric_fluid", _sample(speed, tight), slower)[0] == "regressed"
    assert verdict(speed, "fabric_sharded", _sample(speed, tight), slower)[0] == "ok"
    # Spread wider than the bound and the sets overlap: cannot tell.
    wide = [80.0, 120.0, 95.0, 105.0, 100.0]
    assert verdict(speed, "fabric_fluid", _sample(speed, wide),
                   _sample(speed, [v * 0.97 for v in wide]))[0] == "unresolved"
    # Spread wider than the bound but every B run beats every A run.
    result, note = verdict(speed, "fabric_fluid", _sample(speed, wide),
                           _sample(speed, [v * 2 for v in wide]))
    assert result == "ok" and note.startswith("gain (5/5 pairs)")
    # A gain needs nine pairs in ten and more than A's own quartile distance.
    result, note = verdict(speed, "fabric_fluid", _sample(speed, tight),
                           _sample(speed, [v * 1.05 for v in tight]))
    assert result == "ok" and note.startswith("gain")
    result, note = verdict(speed, "fabric_fluid", _sample(speed, tight),
                           _sample(speed, [v + 0.1 for v in tight]))
    assert result == "ok" and not note.startswith("gain")

    # Lower-is-better with an absolute floor: 0.04 s on a 0.30 s set-up.
    setup = [0.30, 0.31, 0.29, 0.30, 0.30]
    assert verdict("setup_s", "serve_soak", _sample("setup_s", setup),
                   _sample("setup_s", [v + 0.04 for v in setup]))[0] == "ok"
    assert verdict("setup_s", "serve_soak", _sample("setup_s", setup),
                   _sample("setup_s", [v + 0.08 for v in setup]))[0] == "regressed"

    # Exact metrics: identical, worse, better.
    lat = "detection_latency_sim_ms"
    assert verdict(lat, "fabric_fluid", _exact(lat, 109.0), _exact(lat, 109.0)) == \
        ("ok", "identical")
    assert verdict(lat, "fabric_fluid", _exact(lat, 109.0), _exact(lat, 110.0))[0] == \
        "regressed"
    assert verdict(lat, "fabric_fluid", _exact(lat, 109.0),
                   _exact(lat, 100.0))[1].startswith("gain")
    frac = "detected_fraction"
    assert verdict(frac, "paper_fig9a", _exact(frac, 0.7), _exact(frac, 0.6))[0] == \
        "regressed"


def test_compare_flags_a_changed_digest():
    def side(digest: str) -> dict:
        return {"workloads": {"fabric_fluid": {
            "digest": digest,
            "end_to_end": {"false_flag_count": _exact("false_flag_count", 0)}}}}

    same = compare.compare(side("aa"), side("aa"))
    assert [row[2] for row in same] == ["ok", "ok"]
    moved = compare.compare(side("aa"), side("bb"))
    assert moved[-1][1:3] == ("sim_statistics_digest", "regressed")


# -- the contract file agrees with the harness ------------------------------------------------


def test_benchmark_json_lists_what_the_harness_prints():
    import probes
    from workloads import WORKLOADS

    spec = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.HOST_TIME)
    for m in spec["end_to_end"]:
        unit, better, _bound = metrics.END_TO_END[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
    probe_units = {p.name: p.unit for p in probes.PROBES}
    expected = metrics.per_layer_names(list(probe_units))
    assert [m["name"] for m in spec["per_layer"]] == expected
    assert len(expected) == len(set(expected)) <= 128
    for m in spec["per_layer"]:
        assert m["better"] == metrics.layer_better(m["name"]), m
    assert spec["paths"] == ["benchmarks/perf"]
