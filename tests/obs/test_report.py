"""HTML dashboard: offline self-containment, escaping, waterfall layout."""

from __future__ import annotations

import re

import pytest

from repro.obs.report import html_pieces, render_html
from repro.obs.trace import JsonlSpans, TraceCollector


def _section():
    tc = TraceCollector(scope="s1->s2")
    tc.begin_episode(1.0, cause="fault", link="s1->s2")
    tc.open_span("session 1", 1.1, category="protocol")
    tc.emit("flag", 1.5, category="detect", entry="victim")
    tc.finalize(2.0)
    health = {
        "summary": {
            "sim_time": 2.0, "links": 1,
            "status": {"healthy": 0, "degraded": 0, "flagged": 1,
                       "rerouted": 0},
            "detections": 1, "sessions_completed": 4,
            "unattributed_detections": 0,
            "detection_latency": {"count": 1, "min": 0.5, "mean": 0.5,
                                  "max": 0.5},
        },
        "links": [{
            "link": "s1->s2", "status": "flagged",
            "flagged_entries": ["'victim'"], "flagged_leaf_paths": 0,
            "link_down": False, "detections": {"dedicated_entry": 1},
            "sessions_completed": 4, "rejected_corrupt": 0,
            "rejected_stale": 0, "restarts": 0, "timeline_truncated": 0,
            "rerouted_entries": [], "detection_latencies": [0.5],
            "unattributed_detections": 0, "traces": 1, "spans": 3,
        }],
        "topology": [{"node": "s1", "degree": 2,
                      "neighbors": ["s0", "s2"], "monitored_out": 1}],
    }
    return {"name": "ring", "health": health, "spans": tc.span_dicts()}


class TestOfflineSelfContainment:
    def test_no_external_assets(self):
        page = render_html([_section()])
        assert "http://" not in page and "https://" not in page
        assert "<script" not in page
        assert "@import" not in page and "url(" not in page

    def test_single_document(self):
        page = render_html([_section()])
        assert page.startswith("<!DOCTYPE html>")
        assert page.count("<html>") == 1 and page.count("</html>") == 1
        assert "<style>" in page  # inline CSS only


class TestContent:
    def test_sections_and_tables_render(self):
        page = render_html([_section()])
        assert "<h2>ring</h2>" in page
        assert "s1-&gt;s2" in page  # escaped link id
        assert "flagged" in page
        assert "500 ms" in page  # mean detection latency tile

    def test_waterfall_bars_per_span(self):
        page = render_html([_section()])
        assert page.count('class="bar"') == 3
        assert "s1-&gt;s2#001" in page

    def test_attr_values_escaped(self):
        section = _section()
        section["spans"][0]["attrs"]["evil"] = '<script>"x"</script>'
        page = render_html([section])
        assert "<script>" not in page

    def test_empty_sections_tolerated(self):
        page = render_html([{"name": "empty"}])
        assert "<h2>empty</h2>" in page

    def test_waterfall_truncation_note(self):
        tc = TraceCollector(scope="l")
        for i in range(15):
            tc.begin_episode(float(i), cause="fault")
            tc.end_episode(float(i) + 0.5)
        page = render_html([{"name": "many", "spans": tc.span_dicts()}])
        assert re.search(r"3\s*more trace", page)

    def test_bar_positions_are_percentages(self):
        page = render_html([_section()])
        for left in re.findall(r"left:([\d.]+)%", page):
            assert 0.0 <= float(left) <= 100.0


class TestTwoWalkSource:
    """``spans`` is walked twice, never grouped: a source that decodes a
    JSONL on each walk renders the page a list of the same dicts does."""

    def test_jsonl_source_renders_the_list_page(self):
        tc = TraceCollector(scope="l")
        for i in range(15):
            tc.begin_episode(float(i), cause="fault")
            tc.emit("flag", float(i) + 0.25, category="detect")
            tc.end_episode(float(i) + 0.5)
        listed = [{"name": "many", "spans": tc.span_dicts()}]
        walked = [{"name": "many", "spans": JsonlSpans(tc.jsonl_chunks)}]
        page = render_html(listed)
        assert render_html(walked) == page
        assert "".join(html_pieces(walked)) == page

    def test_interleaved_traces_render_grouped(self):
        """Rows of a trace whose turn has not come wait for it: the page
        is the one the trace-by-trace order of the same spans gives."""
        spans = _section()["spans"]
        other = [dict(d, trace="s1->s2#002", start=d["start"] + 0.1,
                      end=None if d["end"] is None else d["end"] + 0.1)
                 for d in spans]
        interleaved = [d for pair in zip(spans, other) for d in pair]
        page = render_html([{"name": "x", "spans": interleaved}])
        assert page == render_html([{"name": "x", "spans": spans + other}])
        assert page.index("s1-&gt;s2#001") < page.index("s1-&gt;s2#002")

    def test_a_one_shot_iterator_is_refused(self):
        """A generator is spent by the first walk: the page would lose
        every row, so rendering refuses it."""
        spans = _section()["spans"]
        with pytest.raises(ValueError, match="re-iterable"):
            render_html([{"name": "x", "spans": iter(spans)}])


class TestRowCap:
    """A waterfall draws at most ``_MAX_ROWS`` spans and says how many it
    left out; a trace waiting for its turn holds no more rows than that."""

    @staticmethod
    def _trace(name, n):
        return [{"trace": name, "name": f"s{i}", "cat": "protocol",
                 "start": 1.0 + i * 1e-3, "end": 1.0 + i * 1e-3 + 5e-4,
                 "attrs": {}, "scope": "l"} for i in range(n)]

    def test_long_trace_ends_with_a_note_row(self):
        from repro.obs.report import _MAX_ROWS

        spans = self._trace("l#001", _MAX_ROWS + 250)
        page = render_html([{"name": "x", "spans": spans}])
        assert page.count('class="bar"') == _MAX_ROWS
        assert "… 250 more spans in the JSONL export" in page
        assert f"{_MAX_ROWS + 250} spans)" in page  # the axis keeps the count
        short = render_html([{"name": "x", "spans": spans[:_MAX_ROWS]}])
        assert "more spans" not in short
        assert short.count('class="bar"') == _MAX_ROWS

    def test_waiting_rows_are_capped(self, monkeypatch):
        from repro.obs import report

        first = self._trace("l#001", 3)
        second = self._trace("l#002", report._MAX_ROWS + 50)
        # The second trace's spans all arrive before the first completes.
        spans = first[:2] + second + first[2:]
        held = []
        original = report._waterfall_row

        def counting_row(span, t0, t1):
            held.append(span["trace"])
            return original(span, t0, t1)

        monkeypatch.setattr(report, "_waterfall_row", counting_row)
        page = render_html([{"name": "x", "spans": spans}])
        assert held.count("l#002") == report._MAX_ROWS
        assert page.count('class="bar"') == 3 + report._MAX_ROWS
        assert "… 50 more spans" in page
