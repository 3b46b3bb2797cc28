"""``run_serve``: determinism, sharding, churn, and the grey contracts.

The serve acceptance criteria (docs/ROBUSTNESS.md):

* same-seed runs are byte-identical (health JSON, trace JSONL,
  Prometheus text), including under ``--shards 2``;
* under control-plane-grey at 20% loss the degradation ladder keeps the
  healthy data link out of DECLARE;
* a genuinely dead reverse channel still reaches DECLARE within the
  paper's ≤1.2 s bound at paper-default timers;
* entry churn rotates the dedicated top-N without breaching I1–I6.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import tracemalloc

import pytest

from repro.fabric import sharding
from repro.obs.trace import spans_to_jsonl
from repro.service import soak
from repro.service.soak import (
    ServeConfig,
    churn_rotations,
    default_serve_schedule,
    run_serve,
)

#: A short scaled serve (one simulated hour) — timers keep the quick
#: profile's ladder-sound ratios, only the horizon shrinks.
SHORT = dataclasses.replace(
    ServeConfig.quick(seed=3), duration_s=3600.0, health_every_s=1800.0,
    churn_every_s=1200.0, supervise_every_s=300.0, grey_start_s=600.0)

#: Paper-default timers on a small ring: 50 ms dedicated sessions,
#: 1.0 s declare grace under the 1.15 s dead-channel floor.
PAPER = ServeConfig(
    seed=1, ring_size=4, duration_s=30.0, health_every_s=15.0,
    supervise_every_s=0.5, churn_every_s=1e9, universe_size=60, top_n=20,
    n_flows=6, total_rate_bps=2_000_000.0, dedicated_session_s=0.05,
    tree_session_s=0.2, twait_s=0.015, rtx_timeout_s=0.05,
    declare_grace_s=1.0, grey_start_s=0.5, trace_window_s=2.0)


class TestPlanning:
    def test_rotations_are_pure_and_distinct(self):
        a = churn_rotations(SHORT)
        b = churn_rotations(SHORT)
        assert a == b
        assert len(a) == 3  # t=0, 1200, 2400
        for t, entries in a:
            assert len(entries) == SHORT.top_n
            assert len(set(entries)) == SHORT.top_n
        # consecutive rotations genuinely move the set
        assert set(a[0][1]) != set(a[1][1])

    def test_default_schedule_targets_reverse_channel(self):
        schedule = default_serve_schedule(SHORT)
        assert len(schedule) == 1
        spec = schedule[0]
        assert spec.kind == "control_loss"
        # grey_link s1->s2: the fault lands on the s2->s1 wire
        assert spec.target == "link:s2->s1"
        assert spec.params["rate"] == SHORT.grey_rate

    def test_no_grey_link_means_empty_schedule(self):
        config = dataclasses.replace(SHORT, grey_link=None)
        assert default_serve_schedule(config) == []


@pytest.mark.parametrize("argv, field", [
    (["--shards", "0"], "shards"),
    (["--grey-link", "bogus"], "grey_link"),
    (["--grey-link", "s9->s1"], "grey_link"),
    (["--grey-rate", "1.5"], "grey_rate"),
    (["--duration", "-5"], "duration_s"),
], ids=["no-shards", "malformed-link", "off-ring-link", "rate-above-1",
        "negative-duration"])
def test_bad_input_is_a_usage_error(argv, field, capsys):
    """Rejected before any probe runs: exit 2 naming the field, no traceback."""
    from repro.service.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["--quick", *argv])
    assert exc.value.code == 2
    assert field in capsys.readouterr().err


@pytest.fixture(scope="module")
def short_result():
    return run_serve(SHORT)


class TestDeterminismAndSharding:
    def test_same_seed_runs_are_byte_identical(self, short_result):
        again = run_serve(SHORT)
        assert again.health_json == short_result.health_json
        assert again.trace_jsonl == short_result.trace_jsonl
        assert again.prometheus == short_result.prometheus

    def test_shards_do_not_change_a_byte(self, short_result):
        sharded = run_serve(SHORT, shards=2)
        assert sharded.shards == 2
        assert sharded.health_json == short_result.health_json
        assert sharded.trace_jsonl == short_result.trace_jsonl
        assert sharded.prometheus == short_result.prometheus
        assert sharded.detections == short_result.detections

    def test_exports_pinned_across_the_control_exchange_rewrite(
            self, short_result):
        """Recorded before CRC-32 checksums and lazily bound control
        counters replaced SHA-256 and per-message ``metrics.counter()``:
        same series in the same order with the same values, and the
        ladder absorbed the same exhaustions."""
        def sha(text):
            return hashlib.sha256(text.encode()).hexdigest()

        assert short_result.absorbed_exhaustions == 1
        assert sha(short_result.prometheus) == (
            "e3ecfdf10f2f2a0d0b9a15fcc8888cf1076af3416b4bf2810376b0764e4ca59f")
        assert sha(short_result.health_json) == (
            "1cbaa001b16e088278e4fc1ab22a972252fb1b1b5455cd707d5f01098692a47f")
        assert sha(short_result.trace_jsonl) == (
            "a4bd7af2bc4a6feeb701b9cdde5937ff7d9645592087bbb5316f660fd814d365")

    def test_trace_jsonl_is_one_sorted_dump_per_span(self, short_result):
        """``spans_to_jsonl`` shares one encoder across the list; the text
        is what a ``json.dumps(..., sort_keys=True)`` per span produced."""
        spans = [json.loads(line)
                 for line in short_result.trace_jsonl.splitlines()]
        assert len(spans) > 100
        per_span = "".join(json.dumps(d, sort_keys=True) + "\n" for d in spans)
        assert spans_to_jsonl(spans) == per_span == short_result.trace_jsonl

    def test_different_seed_changes_the_run(self, short_result):
        other = run_serve(dataclasses.replace(SHORT, seed=SHORT.seed + 1))
        assert other.prometheus != short_result.prometheus


class TestProbeBoundary:
    """What a finished probe leaves behind is its payload, the trace in
    it the compressed ``bytes`` its collector held (docs/PERFORMANCE.md,
    "Footprint and cold start")."""

    def test_traced_memory_fence(self, monkeypatch, short_result):
        """Live bytes, no wall clock, in the style of the frame budgets.

        Peak ``tracemalloc`` bytes of ``run_serve(SHORT)`` while probing
        and inside the merge, with nothing collected but what the product
        collects itself.  Before probes were reclaimed at their boundary
        and shipped their trace in chunks, the probe phase peaked at
        ≈ 16.5 MB: the garbage of finished probes waited for the
        collector's schedule, and the busy probe held its trace as line
        strings plus their joined copy.  Reclaimed and chunked it peaks
        at ≈ 5.5 MB, at ≈ 3.6 MB once closed spans are text (the
        collector holds only open spans and one chunk as objects), at
        ≈ 2.4 MB once timeline events are pickled chunks, and at ≈ 1.9 MB
        once a sealed trace chunk is compressed.  The merge was 8 029 752
        when probes still returned span dicts; text payloads measured
        ≈ 3.1 MB (the links' text plus its join), compressed payloads
        appended to one text a chunk at a time 2 193 661, and ≈ 0.47 MB
        once the merge hands the packed chunks on undecoded.
        """
        phases = {}

        def merge(per_link, _merge=sharding.merge_link_results):
            phases["probes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            merged = _merge(per_link)
            phases["merge"] = tracemalloc.get_traced_memory()[1]
            return merged

        monkeypatch.setattr(sharding, "merge_link_results", merge)
        gc.collect()
        tracemalloc.start()
        try:
            result = run_serve(SHORT)
        finally:
            tracemalloc.stop()
        assert result.trace_jsonl == short_result.trace_jsonl
        assert phases["probes"] <= 2_300_000
        assert phases["merge"] <= 560_000

    def test_result_holds_no_trace_text(self, short_result):
        """The result keeps the probes' packed chunks: no ``str`` or
        ``bytes`` it reaches is a tenth as long as the trace it decodes
        to (the longest is one compressed chunk)."""
        seen, stack, longest = set(), [short_result], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, (str, bytes)):
                longest = max(longest, len(obj))
            elif isinstance(obj, dict):
                stack.extend(obj)
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple, set)):
                stack.extend(obj)
            elif dataclasses.is_dataclass(obj):
                stack.append(vars(obj))
        assert longest * 10 < len(short_result.trace_jsonl)
        assert "".join(short_result.trace_chunks()) == short_result.trace_jsonl

    def test_a_long_probe_holds_its_timeline_compressed(self):
        """Peak ``tracemalloc`` bytes of one paper-timer probe of 200
        simulated seconds: 19 156 timeline events, 18 sealed chunks.
        With each chunk pickled but not compressed (657 097 bytes of
        them against 201 252) and the trace shipped as a base64 copy
        of its chunks, the same probe peaked at 1 602 329 bytes; here
        it peaks at 1 149 020."""
        config = dataclasses.replace(PAPER, duration_s=200.0,
                                     health_every_s=100.0)
        args = (config, default_serve_schedule(config), "s1->s2", 7)
        soak._serve_probe(dataclasses.replace(config, duration_s=5.0),
                          *args[1:])  # warm: imports and first-call caches
        gc.collect()
        tracemalloc.start()
        try:
            payload = soak._serve_probe(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload["sessions_completed"] > 2_000
        assert peak <= 1_200_000

    def test_a_batch_leaves_one_payload_behind(self):
        """A shard runs its probes back to back: four identical light
        probes (one payload, the same link each time) leave no more live
        memory behind than one.  Unreclaimed, each earlier probe's
        simulator stays resident until the collector happens to run."""
        light = dataclasses.replace(SHORT, duration_s=1200.0, grey_link=None)
        args = (light, default_serve_schedule(light))

        def left_behind(n):
            gc.collect()
            tracemalloc.start()
            try:
                payloads = sharding._probe_batch(
                    (soak._serve_probe, args, ("s0->s1",) * n, (7,) * n))
                assert list(payloads) == ["s0->s1"]
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        left_behind(1)  # warm: imports and first-call caches
        one, four = left_behind(1), left_behind(4)
        # A few hundred bytes of interpreter bookkeeping; one unreclaimed
        # probe of this size is ≈ 0.6 MB.
        assert four <= one + 4096


class TestDegradedModeContracts:
    def test_scaled_grey_run_is_clean(self, short_result):
        """20% control grey at scaled timers: no breach, no DECLARE."""
        assert short_result.ok
        assert short_result.breaches == {}
        assert all(state != "declared"
                   for state in short_result.ladder_states.values())
        assert short_result.snapshots[-1]["status"] == {"healthy": 8}

    def test_entry_churn_applied_everywhere(self, short_result):
        """Every link's monitor rotated its entry set (2 swaps/hour)."""
        assert ("fancy_entry_updates_total"
                in short_result.prometheus)
        for line in short_result.prometheus.splitlines():
            if line.startswith("fancy_entry_updates_total"):
                assert line.rsplit(" ", 1)[1] != "0"

    def test_paper_scale_grey_never_declares(self):
        """Paper timers, 20% grey: data link stays out of DECLARE."""
        result = run_serve(PAPER)
        assert result.ok
        assert all(state != "declared"
                   for state in result.ladder_states.values())
        assert not any(d[1] == "link_down" for d in result.detections)

    def test_paper_scale_dead_channel_declares_within_bound(self):
        """Dead reverse channel: LINK_DOWN within 1.2 s, zero breaches.

        The grey link's monitor loses every control response from
        t=2.0; the ladder must refuse absorption (stale last report)
        and let the exhaustion declare at the 0.05 s window +
        23 x 0.05 s backoff floor.
        """
        dead = dataclasses.replace(PAPER, duration_s=8.0,
                                   health_every_s=4.0, grey_rate=1.0,
                                   grey_start_s=2.0)
        result = run_serve(dead)
        assert result.ok  # the declaration is attributable (I3)
        assert result.ladder_states["s1->s2"] == "declared"
        downs = [d for d in result.detections
                 if d[0] == "s1->s2" and d[1] == "link_down"]
        assert downs, "dead reverse channel must declare LINK_DOWN"
        assert downs[0][3] - 2.0 <= 1.201
        # the final health snapshot surfaces the declaration
        final = {row["link"]: row for row in result.snapshots[-1]["links"]}
        assert final["s1->s2"]["status"] == "declared"
        assert final["s1->s2"]["ladder_state"] == "declared"


class TestHealthMerge:
    @staticmethod
    def _probe(link_id, times):
        return {"snapshots": [
            {"t": t, "label": f"t={t}",
             "link": {"link": link_id, "status": "healthy"}}
            for t in times]}

    def test_a_link_off_the_grid_raises_naming_it(self):
        """A short grid used to truncate every link to it, silently."""
        per_link = {lid: self._probe(lid, (1800.0, 3600.0))
                    for lid in ("s0->s1", "s1->s0", "s1->s2", "s2->s1")}
        per_link["s0->s1"] = self._probe("s0->s1", (1800.0,))
        per_link["s1->s2"] = self._probe("s1->s2", (1800.0, 3000.0))
        with pytest.raises(ValueError,
                           match=r"grids differ: s0->s1, s1->s2 off") as err:
            soak._merge_health(per_link)
        assert "s1->s0" not in str(err.value)
        assert "s2->s1" not in str(err.value)


class TestResultDocument:
    def test_health_json_has_snapshots_per_grid_point(self, short_result):
        import json

        doc = json.loads(short_result.health_json)
        assert [s["t"] for s in doc["snapshots"]] == [1800.0, 3600.0]
        assert set(doc["ladder_states"]) == set(short_result.links)
        assert doc["breaches"] == {}

    def test_to_dict_round_trips_config(self, short_result):
        doc = short_result.to_dict()
        assert ServeConfig.from_dict(doc["config"]) == SHORT
        assert doc["ok"] is True
        assert doc["sessions_completed"] == short_result.sessions_completed
