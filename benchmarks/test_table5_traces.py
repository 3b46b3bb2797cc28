"""Benchmark: regenerate Table 5 (CAIDA trace characteristics)."""

from __future__ import annotations

import pytest

from repro.experiments import table5


def test_table5_trace_characteristics(benchmark, save_artifact):
    result = benchmark.pedantic(table5.run, rounds=1, iterations=1)
    save_artifact("table5_traces", table5.render(result))

    rows = {r["trace_id"]: r for r in result["rows"]}
    assert len(rows) == 4

    # Published statistics reproduced verbatim.
    assert rows[1]["bit_rate_gbps"] == pytest.approx(6.25)
    assert rows[3]["packet_rate_pps"] == pytest.approx(2.03e6)
    assert rows[4]["flow_rate_fps"] == pytest.approx(90.7e3)
    assert all(3700 < r["duration_s"] < 3730 for r in rows.values())

    # Calibration anchors of the synthetic heavy tail (§5.2): top-500
    # carries well over half the bytes, top-10k nearly all.
    for r in rows.values():
        assert 0.5 < r["top500_byte_share"] < 0.8
        assert r["top10000_byte_share"] > 0.9
