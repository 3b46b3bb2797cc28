"""Sharded fabric runs: planning, seeding, and merge determinism.

The contract under test (docs/PERFORMANCE.md): the unit of determinism
is the *link*, not the shard.  Per-link seeds derive only from the base
seed and the link id, and the merge folds payloads in sorted link order,
so ``--shards 1``, ``2`` and ``4`` produce identical detection records
and byte-identical Prometheus text and trace JSONL.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.experiments import fabric
from repro.fabric import sharding
from repro.fabric.sharding import (
    ShardSpec,
    merge_link_results,
    plan_shards,
    probe_payload,
    trace_text,
    trace_text_chunks,
)
from repro.obs.trace import _CHUNK_SPANS, TraceCollector, spans_to_jsonl
from repro.runtime import RuntimeContext, stable_seed

LINKS = ["a->b", "b->a", "b->c", "c->b", "a->c", "c->a"]


class TestPlanShards:
    def test_round_robin_partition(self):
        specs = plan_shards(LINKS, 2)
        assert [s.links for s in specs] == [
            ("a->b", "b->c", "a->c"),
            ("b->a", "c->b", "c->a"),
        ]
        assert [s.index for s in specs] == [0, 1]

    def test_single_shard_keeps_order(self):
        (spec,) = plan_shards(LINKS, 1)
        assert spec.links == tuple(LINKS)

    def test_empty_shards_dropped(self):
        specs = plan_shards(LINKS[:3], 8)
        assert len(specs) == 3
        assert all(len(s.links) == 1 for s in specs)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            plan_shards(LINKS, 0)
        with pytest.raises(ValueError):
            plan_shards(["x->y", "x->y"], 2)

    def test_seeds_are_grouping_invariant(self):
        """A link's seed never depends on the shard count or its batch."""
        by_count = {}
        for n in (1, 2, 3, 6):
            for spec in plan_shards(LINKS, n, seed=11):
                for link, seed in zip(spec.links, spec.link_seeds):
                    by_count.setdefault(link, set()).add(seed)
        assert all(len(seeds) == 1 for seeds in by_count.values())
        # ... and it matches the documented derivation exactly.
        assert by_count["a->b"] == {
            stable_seed(11, "fabric-shard", "a->b", bits=31)}

    def test_specs_are_hashable_records(self):
        spec = plan_shards(LINKS, 3, seed=2)[0]
        assert isinstance(spec, ShardSpec)
        assert hash(spec)


class TestMergeLinkResults:
    def test_merges_in_sorted_link_order(self):
        merged = merge_link_results({
            "b->a": {"detections": [("b->a", "e1", 0.5)], "metrics": None,
                     "spans": [], "sessions_completed": 3,
                     "events_processed": 10, "fluid_absorbed": 2},
            "a->b": {"detections": [("a->b", "e0", 0.4)], "metrics": None,
                     "spans": [], "sessions_completed": 4,
                     "events_processed": 20, "fluid_absorbed": 5},
        })
        assert merged["links"] == ["a->b", "b->a"]
        assert merged["detections"] == [("a->b", "e0", 0.4),
                                        ("b->a", "e1", 0.5)]
        assert merged["sessions_completed"] == {"a->b": 4, "b->a": 3}
        assert merged["events_processed"] == 30
        assert merged["fluid_absorbed"] == 7

    def test_normalizes_json_round_tripped_records(self):
        """run_sweep's result cache round-trips through JSON, turning
        detection tuples into lists; the merge must normalize them so a
        cached shard merges identically to a fresh one."""
        fresh = merge_link_results({
            "a->b": {"detections": [("a->b", "e0", 0.4)], "metrics": None},
        })
        cached = merge_link_results({
            "a->b": {"detections": [["a->b", "e0", 0.4]], "metrics": None},
        })
        assert fresh["detections"] == cached["detections"]
        assert isinstance(cached["detections"][0], tuple)


def _collector(link_id, n_spans, max_spans=100_000):
    tc = TraceCollector(scope=link_id, max_spans=max_spans)
    if n_spans:
        tc.begin_episode(1.0, cause="fault", link=link_id)
        for i in range(n_spans - 1):
            tc.emit("report", 1.0 + i * 0.01, category="control",
                    fsm=f"{link_id}/dedicated", path=(i, i + 1))
        tc.finalize(max(9.0, 1.0 + n_spans * 0.01))
    return tc


class TestMergedTraceBytes:
    """Probes hand the merge packed chunks, and in-memory callers may
    still hand span dicts.  Either shape gives the bytes one
    ``spans_to_jsonl`` over every link's spans gives."""

    #: busy, empty and busy again, deliberately not in sorted order.
    COLLECTORS = {"b->c": _collector("b->c", 40), "a->b": _collector("a->b", 0),
                  "a->c": _collector("a->c", 7)}

    def _merged(self, payload_of):
        return trace_text(merge_link_results({
            link_id: {"metrics": None, **payload_of(tc)}
            for link_id, tc in self.COLLECTORS.items()})["trace_parts"])

    @staticmethod
    def _packed(tc):
        return {"trace_packed": tc.zlib_chunks()}

    @staticmethod
    def _dicts(tc):
        return {"spans": tc.span_dicts()}

    def test_text_dict_and_single_dump_agree(self):
        as_packed = self._merged(self._packed)
        as_dicts = self._merged(self._dicts)
        concat = [d for link_id in sorted(self.COLLECTORS)
                  for d in self.COLLECTORS[link_id].span_dicts()]
        assert as_packed == as_dicts == spans_to_jsonl(concat)
        assert as_packed.count("\n") == 47

    def test_chunk_lists_merge_to_the_same_bytes(self):
        """A link packed into several chunks decodes, in order, to the
        text its spans render to."""
        busy = _collector("b->c", 3 * _CHUNK_SPANS + 5)
        packed = busy.zlib_chunks()
        assert len(packed) > 1
        merged = trace_text(merge_link_results(
            {"b->c": {"metrics": None, "trace_packed": packed}})["trace_parts"])
        assert merged == busy.to_jsonl() == spans_to_jsonl(busy.span_dicts())

    def test_mixed_payload_shapes_merge(self):
        mixed = self._merged(
            lambda tc: self._dicts(tc) if tc.scope == "a->b" else self._packed(tc))
        assert mixed == self._merged(self._dicts)
        assert mixed == self._merged(
            lambda tc: self._dicts(tc) if tc.scope == "a->c" else self._packed(tc))

    def test_truncated_link_keeps_its_marker_in_place(self):
        """The marker travels with its link's text: it lands after that
        link's spans and before the next link's."""
        cut = _collector("a->b", 10, max_spans=4)
        assert cut.suppressed == 6
        merged = trace_text(merge_link_results({
            "b->c": {"metrics": None,
                     "trace_packed": self.COLLECTORS["b->c"].zlib_chunks()},
            "a->b": {"metrics": None, "trace_packed": cut.zlib_chunks()},
        })["trace_parts"])
        assert merged == cut.to_jsonl() + self.COLLECTORS["b->c"].to_jsonl()
        assert merged.splitlines()[4].startswith('{"event": "trace_truncated"')

    def test_payload_without_either_key_merges_as_empty(self):
        assert trace_text(merge_link_results(
            {"a->b": {"metrics": None}})["trace_parts"]) == ""


class _OneLinkDeployment:
    """What :func:`probe_payload` reads of a one-link deployment."""

    def __init__(self, traces: TraceCollector) -> None:
        telemetry = SimpleNamespace(
            traces=traces, metrics=SimpleNamespace(snapshot=lambda: None))
        self.telemetry = telemetry
        self.monitors = {traces.scope: SimpleNamespace(telemetry=telemetry)}
        self.net = SimpleNamespace(
            sim=SimpleNamespace(now=1e6, events_processed=0))

    def detection_records(self) -> list:
        return []

    def sessions_completed(self) -> dict[str, int]:
        return dict.fromkeys(self.monitors, 0)


class TestMergeFootprint:
    """The merge decodes no trace; its readers decode it a piece at a
    time (docs/PERFORMANCE.md, "Footprint and cold start")."""

    def test_payloads_and_merge_hold_the_text_about_once(self):
        """Three links, 20 full chunks each, their payloads unpickled as
        the parent process receives them from a worker.  The merge's peak
        increment under ``tracemalloc`` is below the size of one decoded
        chunk: it hands the packed chunks on.  It was ≈ 1.14 × the text
        when the merge appended each decoded chunk to one text, and ≈ 2 ×
        with a ``"".join`` over them.  Decoded a piece at a time, the
        parts give the links' text in sorted link order."""
        collectors = [_collector(link_id, 20 * _CHUNK_SPANS + 100)
                      for link_id in ("c->a", "a->b", "b->c")]
        assert all(len(tc.jsonl_chunks()) == 21 for tc in collectors)
        blob = pickle.dumps({
            tc.scope: probe_payload(_OneLinkDeployment(tc), None)
            for tc in collectors})
        gc.collect()
        tracemalloc.start()
        try:
            payloads = pickle.loads(blob)
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            parts = merge_link_results(payloads)["trace_parts"]
            increment = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        pieces = list(trace_text_chunks(parts))
        assert "".join(pieces) == "".join(
            tc.to_jsonl() for tc in sorted(collectors, key=lambda tc: tc.scope))
        assert len(pieces) == 63
        assert increment < min(len(piece) for piece in pieces)


@pytest.fixture(scope="module")
def shard_runs():
    """One fluid ring case at shard counts 1, 2 and 4 (serial workers)."""
    config = replace(fabric.FabricExpConfig(), duration_s=1.5, fluid=True,
                     tree=True, background_entries=4)
    runtime = RuntimeContext(cache_dir=None, progress=False)
    return {
        n: fabric.run_sharded(config, case="ring", shards=n,
                              runtime=runtime, quick=False)
        for n in (1, 2, 4)
    }


class TestShardCountInvariance:
    def test_detection_records_identical(self, shard_runs):
        r1, r2, r4 = (shard_runs[n] for n in (1, 2, 4))
        assert r1["detections"], "probe must detect the planned failure"
        assert r1["detections"] == r2["detections"] == r4["detections"]

    def test_prometheus_text_byte_identical(self, shard_runs):
        r1, r2, r4 = (shard_runs[n] for n in (1, 2, 4))
        assert r1["prometheus"] == r2["prometheus"] == r4["prometheus"]
        assert "fancy_" in r1["prometheus"]

    def test_trace_jsonl_byte_identical(self, shard_runs):
        r1, r2, r4 = (shard_runs[n] for n in (1, 2, 4))
        assert r1["trace_jsonl"] == r2["trace_jsonl"] == r4["trace_jsonl"]
        assert r1["trace_jsonl"].strip()

    def test_result_keeps_the_trace_packed(self, shard_runs):
        """``run_sharded`` stores no trace text: ``"trace_jsonl"`` is
        decoded from the packed parts on each access."""
        result = shard_runs[2]
        text = result["trace_jsonl"]
        assert "trace_jsonl" not in result
        assert all(value != text for value in result.values())
        assert "".join(trace_text_chunks(result["trace_parts"])) == text

    def test_exports_pinned_across_the_text_boundary(self, shard_runs):
        """Recorded while per-link payloads still carried span dicts and
        the merge serialised their concatenation once."""
        def sha(text):
            return hashlib.sha256(text.encode()).hexdigest()

        for result in shard_runs.values():
            assert sha(result["trace_jsonl"]) == (
                "c162e1e4b93208c2416d50fce1d0a42ec064eccb1a0782bcae0e4958d9d97812")
            assert sha(result["prometheus"]) == (
                "ae1e9229a645f4a821496af7e53afc582b87b1ecb995843e1a472bb597c16441")

    def test_every_link_probed_once(self, shard_runs):
        for n, result in shard_runs.items():
            assert len(result["links"]) == 12  # 6-node ring, directed
            assert result["shards"] == min(n, 12)
            assert all(s > 0
                       for s in result["sessions_completed"].values())

    def test_fluid_background_absorbed(self, shard_runs):
        assert shard_runs[1]["fluid_absorbed"] > 0
        assert (shard_runs[1]["fluid_absorbed"]
                == shard_runs[2]["fluid_absorbed"]
                == shard_runs[4]["fluid_absorbed"])

    def test_cached_run_merges_to_the_same_bytes(self, shard_runs,
                                                 monkeypatch, tmp_path):
        """The result cache stores payloads as JSON, encoding the trace
        chunks' ``bytes`` itself: a run served from it merges to the
        fresh run's bytes.  A payload it could not encode would not be
        cached, and the second run would re-probe every shard."""
        sweeps = []

        def recorded(*args, _run_sweep=sharding.run_sweep, **kwargs):
            sweeps.append(_run_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(sharding, "run_sweep", recorded)
        config = replace(fabric.FabricExpConfig(), duration_s=1.5,
                         fluid=True, tree=True, background_entries=4)
        runtime = RuntimeContext(cache_dir=tmp_path, progress=False)
        fresh, cached = (
            fabric.run_sharded(config, case="ring", shards=2,
                               runtime=runtime, quick=False)
            for _ in range(2))
        assert [sweep.cache_hits for sweep in sweeps] == [0, 2]
        assert cached["trace_jsonl"] == fresh["trace_jsonl"] == (
            shard_runs[1]["trace_jsonl"])
        assert cached["prometheus"] == fresh["prometheus"] == (
            shard_runs[1]["prometheus"])

    def test_parallel_workers_match_serial(self, shard_runs):
        """Worker processes are an execution knob too: a 2-worker run
        merges to the same bytes as the serial one."""
        config = replace(fabric.FabricExpConfig(), duration_s=1.5,
                         fluid=True, tree=True, background_entries=4)
        runtime = RuntimeContext(workers=2, cache_dir=None, progress=False)
        result = fabric.run_sharded(config, case="ring", shards=2,
                                    runtime=runtime, quick=False)
        assert result["detections"] == shard_runs[1]["detections"]
        assert result["prometheus"] == shard_runs[1]["prometheus"]
        assert result["trace_jsonl"] == shard_runs[1]["trace_jsonl"]
