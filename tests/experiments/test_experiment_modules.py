"""Micro-scale runs of every simulation-backed experiment module.

The benchmark harness runs these at quick scale; here they run at *micro*
scale so `pytest tests/` alone exercises every experiment code path
(config plumbing, aggregation, rendering) in seconds.

The single-link runs also pin the SHA-256 of their result rows: a
refactor of how the two-switch trial is built or scored must not move a
simulated event, an RNG draw or a reported number.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.hashtree import HashTreeParams
from repro.experiments import (
    baselines52,
    fig8,
    fig10,
    fig11,
    table1,
    table3,
    uniform,
)
from repro.traffic.synthetic import EntrySize


def rows_sha(rows) -> str:
    """SHA-256 of ``rows`` serialized as key-sorted JSON."""
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestFig8Module:
    def test_micro_run_and_render(self):
        config = fig8.Fig8Config(
            zooming_speeds=(0.050, 0.200),
            loss_rates=(1.0,),
            sizes=(EntrySize(100e3, 5), EntrySize(1e6, 20)),
            repetitions=1,
            duration_s=5.0,
            max_pps_per_entry=100,
            n_background=2,
        )
        result = fig8.run(config=config)
        text = fig8.render(result)
        assert "zooming speed" in text
        for speed in config.zooming_speeds:
            assert (speed, 1.0) in result["ranks"]


class TestUniformModule:
    def test_micro_run_and_render(self):
        config = uniform.UniformConfig(
            loss_rates=(0.5,),
            n_entries=150,
            total_rate_bps=15e6,
            tree=HashTreeParams(width=24, depth=3, split=2),
            duration_s=3.0,
            repetitions=1,
        )
        result = uniform.run(config=config)
        assert result["rows"][0.5]["detection_rate"] == 1.0
        assert rows_sha(result["rows"]) == (
            "00532ef53d5b817d23df71acd254b4de674749eb5f74b95432bb1c779adbfb95")
        assert "uniform" in uniform.render(result)


class TestTable3Module:
    @pytest.fixture(scope="class")
    def micro_result(self):
        config = table3.Table3Config(
            trace_indices=(0,),
            loss_rates=(0.5,),
            n_dedicated=10,
            slice_prefixes=60,
            rate_scale=0.004,
            n_failures=4,
            failure_pool=20,
            duration_s=6.0,
        )
        return table3.run(config=config)

    def test_aggregates_present(self, micro_result):
        agg = micro_result["rows"][0.5]
        assert agg["n"] == 4
        assert agg["tpr_dedicated"] is not None
        assert agg["tpr_tree"] is not None

    def test_rows_pinned(self, micro_result):
        assert rows_sha(micro_result["rows"]) == (
            "b9a8372b519c8164c0b7b570533474405d547f5e546bb2718818e01d62f289c7")

    def test_render(self, micro_result):
        text = table3.render(micro_result)
        assert "CAIDA" in text and "TPR bytes" in text


class TestFig10Module:
    def test_micro_run_and_render(self):
        config = fig10.Fig10Config(
            loss_rates=(1.0,),
            tcp_rate_bps=4e6,
            udp_rate_bps=0.2e6,
            flows_per_second=10,
            duration_s=4.0,
        )
        result = fig10.run(config=config, quick=True)
        for case in result["cases"].values():
            assert case["recovery_delay"] is not None
        text = fig10.render(result)
        assert "recovery delay" in text


class TestFig11Module:
    def test_micro_run_and_render(self):
        config = fig11.Fig11Config(
            designs=fig11.TREE_DESIGNS[1:2],
            burst_sizes=(5,),
            n_prefixes=60,
            total_rate_bps=6e6,
            duration_s=8.0,
            repetitions=1,
        )
        result = fig11.run(config=config)
        (label, burst), data = next(iter(result["results"].items()))
        assert burst == 5
        assert data["tpr"] > 0
        rows = {f"{label}|{burst}": data
                for (label, burst), data in result["results"].items()}
        assert rows_sha(rows) == (
            "c916d25b90ca7e7e03c66b11346ab5cec9be64959467b9967abc6b6fff5ec777")
        assert "sensitivity" in fig11.render(result)


class TestTable1Module:
    def test_catalog_only_run(self):
        result = table1.run(live=False)
        assert result["n_bugs"] >= 12
        assert result["coverage"] == {}
        text = table1.render(result)
        assert "Table 1" in text
        assert "coverage" not in text.lower() or "Live coverage" not in text

    def test_live_bug_pinned(self):
        bug = table1.bugs_in_class(table1.EntryScope.SOME_PREFIXES,
                                   table1.PacketScope.SOME_PACKETS)[0]
        row = {"bug": bug.bug_id, "detected": table1._detect_one(bug)}
        assert row["detected"]
        assert rows_sha(row) == (
            "c09f5862592ac6fef93d4eac38bb7cc4ba233fdb9e0199ca00a502923a26a4f5")


class TestBaselines52Module:
    def test_micro_run_and_render(self):
        config = baselines52.BaselineComparisonConfig(
            table3=table3.Table3Config(
                trace_indices=(0,),
                loss_rates=(0.5,),
                n_dedicated=10,
                slice_prefixes=40,
                rate_scale=0.004,
                n_failures=2,
                failure_pool=15,
                duration_s=5.0,
            ),
            loss_rate=0.5,
            n_failures=2,
        )
        result = baselines52.run(config=config)
        for design in baselines52.DESIGNS:
            assert result[design]["n"] == 2
        assert rows_sha(result) == (
            "4ef0576584952c41cadbc4c895c9d31a56ba8c8806f9eb12154587b587645e40")
        text = baselines52.render(result)
        assert "single counter per link" in text
