"""Tests for the metrics registry primitives."""

from __future__ import annotations

import pytest

from repro.simulator.link import LinkStats
from repro.telemetry import MetricsRegistry, merge_snapshots
from repro.telemetry.export import to_prometheus


class TestCounter:
    def test_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.value("events_total") == 5

    def test_label_sets_are_distinct_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("tx_total", link="A->B")
        b = reg.counter("tx_total", link="B->A")
        assert a is not b
        a.inc(3)
        b.inc(1)
        assert reg.value("tx_total", link="A->B") == 3
        assert reg.total("tx_total") == 4

    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("tx_total", link="A->B", port="1")
        # label order must not matter
        b = reg.counter("tx_total", port="1", link="A->B")
        assert a is b


class TestGauge:
    def test_set_tracks_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth")
        g.set(3)
        g.set(10)
        g.set(2)
        assert g.value == 2
        assert g.max_value == 10

    def test_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.inc()
        g.inc()
        g.dec()
        assert g.value == 1
        assert g.max_value == 2


class TestHistogram:
    def test_log_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", start=1e-6, base=10.0, n_buckets=4)
        # ladder: 1e-6, 1e-5, 1e-4, 1e-3, +Inf
        h.observe(5e-7)   # <= start -> bucket 0
        h.observe(5e-6)   # bucket 1
        h.observe(5e-4)   # bucket 3
        h.observe(1.0)    # overflow
        assert h.counts == [1, 1, 0, 1, 1]
        assert h.count == 4
        assert h.min == 5e-7 and h.max == 1.0

    def test_bucket_boundary_is_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", start=1.0, base=10.0, n_buckets=3)
        h.observe(1.0)
        h.observe(10.0)
        h.observe(100.0)
        # Prometheus semantics: value <= upper bound.
        assert h.counts == [1, 1, 1, 0]

    def test_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        assert h.mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == pytest.approx(3.0)

    def test_invalid_params(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", start=0.0)


class TestRegistry:
    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_help_is_kept(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "how many xs")
        assert reg.help_of("x_total") == "how many xs"
        assert reg.kind_of("x_total") == "counter"

    def test_value_of_absent_metric_is_zero(self):
        reg = MetricsRegistry()
        assert reg.value("nope") == 0
        assert reg.total("nope") == 0
        assert reg.get("nope") is None

    def test_families_groups_by_name(self):
        reg = MetricsRegistry()
        reg.counter("a_total", x="1")
        reg.counter("a_total", x="2")
        reg.gauge("b")
        fams = reg.families()
        assert len(fams["a_total"]) == 2
        assert len(fams["b"]) == 1

    def test_snapshot_roundtrips_json(self):
        import json

        reg = MetricsRegistry()
        reg.counter("a_total", x="1").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(1e-3)
        snap = reg.snapshot()
        again = json.loads(json.dumps(snap))
        assert again == snap
        names = [m["name"] for m in snap["metrics"]]
        assert names == sorted(names)


class TestReadCounter:
    def test_reads_its_holders_when_read(self):
        reg = MetricsRegistry()
        a, b = LinkStats(), LinkStats()
        reg.read("tx_total", "Packets", a, "tx_packets", link="x")
        reg.read("tx_total", "Packets", b, "tx_packets", link="x")
        a.tx_packets, b.tx_packets = 3, 4
        assert reg.value("tx_total", link="x") == 7
        assert reg.total("tx_total") == 7
        b.tx_packets = 5
        assert reg.snapshot()["metrics"][0]["value"] == 8

    def test_exports_as_a_counter_would(self):
        """Same snapshot and Prometheus bytes as a counter incremented
        along with the holder."""
        read, counted = MetricsRegistry(), MetricsRegistry()
        stats = LinkStats()
        read.read("link_tx_bytes_total", "Bytes", stats, "tx_bytes", link="a")
        counter = counted.counter("link_tx_bytes_total", "Bytes", link="a")
        for size in (64, 1500):
            stats.tx_bytes += size
            counter.inc(size)
        assert read.snapshot() == counted.snapshot()
        assert to_prometheus(read) == to_prometheus(counted)

    def test_sparse_series_exists_once_non_zero(self):
        reg = MetricsRegistry()
        stats = LinkStats()
        reg.read("drops_total", "Drops", stats, "dropped_chaos", sparse=True,
                 link="a")
        assert reg.snapshot() == {"metrics": []}
        assert reg.get("drops_total", link="a") is None and len(reg) == 0
        assert to_prometheus(reg) == ""
        stats.dropped_chaos = 2
        assert [m["value"] for m in reg.snapshot()["metrics"]] == [2]
        assert reg.families()["drops_total"][0].value == 2

    def test_a_read_series_is_not_incremented(self):
        reg = MetricsRegistry()
        reg.read("tx_total", "Packets", LinkStats(), "tx_packets")
        with pytest.raises(ValueError, match="ReadCounter"):
            reg.counter("tx_total")


class TestMergeSnapshots:
    def _snap(self, inc: int, gauge: float, obs: float) -> dict:
        reg = MetricsRegistry()
        reg.counter("c_total", k="v").inc(inc)
        reg.gauge("g").set(gauge)
        reg.histogram("h", start=1.0, base=10.0, n_buckets=3).observe(obs)
        return reg.snapshot()

    def test_counters_add(self):
        merged = merge_snapshots(self._snap(2, 1, 1), self._snap(3, 9, 10))
        by_name = {m["name"]: m for m in merged["metrics"]}
        assert by_name["c_total"]["value"] == 5
        assert by_name["g"]["value"] == 9
        assert by_name["g"]["max"] == 9
        assert by_name["h"]["count"] == 2
        assert by_name["h"]["counts"] == [1, 1, 0, 0]

    def test_histogram_ladder_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("h", start=1.0, base=10.0, n_buckets=3).observe(1)
        b = MetricsRegistry()
        b.histogram("h", start=2.0, base=10.0, n_buckets=3).observe(1)
        with pytest.raises(ValueError):
            merge_snapshots(a.snapshot(), b.snapshot())

    def test_merge_preserves_labels(self):
        merged = merge_snapshots(self._snap(1, 0, 1))
        c = [m for m in merged["metrics"] if m["name"] == "c_total"][0]
        assert c["labels"] == {"k": "v"}
