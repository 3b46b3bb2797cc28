"""The frozen benchmark harness's ``repro`` surface still resolves.

``tests/frozen_surface.json`` records what ``benchmarks/perf/*.py``
imports, calls with which keywords, and reads on what it builds
(``tests/frozen_surface.py`` walks it with ``ast``).  A refactor that
renames or drops any of it fails here, in tier-1, instead of only in
the separate ``perf --selftest`` job.
"""

from __future__ import annotations

import copy
import json

from tests.frozen_surface import MANIFEST, check, walk

RECORDED = json.loads(MANIFEST.read_text())


def test_manifest_matches_the_frozen_files():
    """Regenerate with ``PYTHONPATH=src python tests/frozen_surface.py
    --write`` (the harness is frozen, so this should never move)."""
    assert walk() == RECORDED


def test_every_recorded_name_resolves_against_src():
    assert check(RECORDED) == []


def test_the_merged_trace_readers_are_recorded():
    """The three reads of merged trace output the serve and sharded
    workloads make, which the packed-trace merge has to keep."""
    reads = RECORDED["reads"]
    assert "trace_jsonl" in reads["repro.service.soak:run_serve"]["attrs"]
    assert "links" in reads["repro.fabric.sharding:merge_link_results"]["keys"]
    assert "trace_jsonl" in reads["repro.experiments.fabric:run_sharded"]["keys"]
    assert {"link_delay_s", "tm_queue_packets"} <= set(
        RECORDED["calls"]["repro.simulator.topology:TwoSwitchTopology"])


def test_a_missing_name_is_reported():
    broken = copy.deepcopy(RECORDED)
    broken["imports"].append("repro.service.soak:NoSuchThing")
    broken["calls"]["repro.service.soak:ServeConfig"].append("no_such_knob")
    broken["reads"]["repro.service.soak:run_serve"]["attrs"].append(
        "no_such_field")
    broken["reads"]["repro.fabric.sharding:merge_link_results"][
        "keys"].append("no_such_key")
    misses = check(broken)
    assert len(misses) == 4
    for name in ("NoSuchThing", "no_such_knob", "no_such_field",
                 "no_such_key"):
        assert any(name in miss for miss in misses)
