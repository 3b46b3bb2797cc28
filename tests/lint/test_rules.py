"""Fixture-driven tests: one violating / clean pair per FCY rule."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_file, lint_source
from repro.lint.engine import package_relative

FIXTURES = Path(__file__).parent / "fixtures"

#: rule -> (bad fixture finding count, expected code)
EXPECTED_BAD = {
    "FCY001": 6,
    "FCY002": 2,
    "FCY003": 3,
    "FCY004": 3,
    "FCY006": 2,
    "FCY007": 3,
    "FCY008": 3,
    "FCY009": 4,
    "FCY013": 3,
}


@pytest.mark.parametrize("code", sorted(EXPECTED_BAD))
def test_bad_fixture_flags(code):
    findings = lint_file(FIXTURES / f"{code.lower()}_bad.py")
    matching = [d for d in findings if d.code == code]
    assert len(matching) == EXPECTED_BAD[code], [d.render() for d in findings]
    for diag in matching:
        assert diag.line > 0 and diag.col > 0
        assert diag.hint  # every rule ships a fix hint


@pytest.mark.parametrize("code", sorted(EXPECTED_BAD))
def test_good_fixture_clean(code):
    findings = lint_file(FIXTURES / f"{code.lower()}_good.py")
    # clean fixtures are clean under *every* rule, not just their own
    assert findings == [], [d.render() for d in findings]


def test_diagnostic_rendering_is_ruff_style():
    findings = lint_file(FIXTURES / "fcy002_bad.py")
    rendered = findings[0].render()
    path, line, col, rest = rendered.split(":", 3)
    assert path.endswith("fcy002_bad.py")
    assert int(line) > 0 and int(col) > 0
    assert rest.strip().startswith("FCY002 ")
    assert "(hint:" in rest


class TestAliasResolution:
    def test_renamed_module_import(self):
        source = "import random as rnd\nx = rnd.randint(0, 7)\n"
        assert [d.code for d in lint_source(source)] == ["FCY001"]

    def test_from_import_function(self):
        source = "from numpy.random import rand\nx = rand()\n"
        assert [d.code for d in lint_source(source)] == ["FCY001"]

    def test_unrelated_attribute_chains_ignored(self):
        source = "def f(rng):\n    return rng.random() + rng.choice([1])\n"
        assert lint_source(source) == []


class TestScoping:
    """Rules only apply to their package-relative scope."""

    def test_package_relative(self):
        assert package_relative("src/repro/core/zooming.py") == "core/zooming.py"
        assert package_relative("/a/b/src/repro/simulator/link.py") == "simulator/link.py"
        assert package_relative("tests/lint/fixtures/fcy001_bad.py") is None

    def test_blocking_rule_scoped_to_event_driven_packages(self):
        source = "def load(path):\n    return open(path).read()\n"
        assert [d.code for d in lint_source(source, rel_path="simulator/io.py")] == ["FCY004"]
        # experiment drivers may do file I/O
        assert lint_source(source, rel_path="experiments/io.py") == []

    def test_wall_clock_scoped_to_fingerprint_paths(self):
        source = "import time\nSTAMP = time.time()\n"
        assert [d.code for d in lint_source(source, rel_path="runtime/jobs.py")] == ["FCY002"]
        assert lint_source(source, rel_path="runtime/progress.py") == []

    def test_unscoped_files_get_every_rule(self):
        source = "import time\nSTAMP = time.time()\n"
        assert [d.code for d in lint_source(source, rel_path=None)] == ["FCY002"]

    def test_chaos_rng_rule_scoped_to_fault_code(self):
        source = "import random\nR = random.Random()\n"
        assert [d.code for d in lint_source(source, rel_path="chaos/perturbations.py")] == ["FCY007"]
        assert [d.code for d in lint_source(source, rel_path="simulator/failures.py")] == ["FCY007"]
        # runtime code may take an OS-entropy Random (nothing replays it)
        assert lint_source(source, rel_path="runtime/jobs.py") == []

    def test_global_rng_rule_covers_chaos_scope(self):
        source = "import random\nx = random.random()\n"
        codes = [d.code for d in lint_source(source, rel_path="chaos/harness.py")]
        assert codes == ["FCY001"]

    def test_sim_rules_cover_fabric_scope(self):
        rng = "import random\nx = random.random()\n"
        assert [d.code for d in lint_source(rng, rel_path="fabric/graph.py")] == ["FCY001"]
        escape = "def f(s):\n    return list({x for x in s})\n"
        assert [d.code for d in lint_source(escape, rel_path="fabric/graph.py")] == ["FCY003"]

    def test_adjacency_rule_scoped_out_of_runtime(self):
        source = "adjacency = set()\n"
        assert [d.code for d in lint_source(source, rel_path="fabric/graph.py")] == ["FCY008"]
        assert lint_source(source, rel_path="runtime/jobs.py") == []


class TestUnorderedAdjacency:
    """FCY008: topology state must iterate in insertion order."""

    def test_attribute_and_subscript_targets_flagged(self):
        source = (
            "class G:\n"
            "    def __init__(self, peers):\n"
            "        self._adj = {}\n"
            "        self._adj['a'] = set(peers)\n"
        )
        assert [d.code for d in lint_source(source, rel_path="fabric/g.py")] == ["FCY008"]

    def test_setdefault_seeding_flagged(self):
        source = "def add(adj, a, b):\n    adj.setdefault(a, set()).add(b)\n"
        assert [d.code for d in lint_source(source, rel_path="fabric/g.py")] == ["FCY008"]

    def test_annotated_assignment_flagged(self):
        source = "next_hops: set = {1, 2}\n"
        assert [d.code for d in lint_source(source, rel_path="fabric/g.py")] == ["FCY008"]

    def test_ordered_set_idiom_allowed(self):
        source = (
            "def add(adj, a, b):\n"
            "    adj.setdefault(a, {})[b] = None\n"
        )
        assert lint_source(source, rel_path="fabric/g.py") == []

    def test_sorted_neighbors_allowed(self):
        source = "def f(raw):\n    neighbors = sorted(set(raw))\n    return neighbors\n"
        assert lint_source(source, rel_path="fabric/g.py") == []

    def test_non_topology_names_ignored(self):
        source = "def f(raw):\n    pending = set(raw)\n    return len(pending)\n"
        assert lint_source(source, rel_path="fabric/g.py") == []


class TestChaosRngStreams:
    """FCY007: per-fault seeded streams; no borrowing, no entropy."""

    def test_own_stream_draw_allowed(self):
        source = (
            "class F:\n"
            "    def fire(self):\n"
            "        return self.rng.random()\n"
        )
        assert lint_source(source, rel_path="chaos/x.py") == []

    def test_local_name_draw_allowed(self):
        source = "def f(rng):\n    return rng.uniform(0.0, 1.0)\n"
        assert lint_source(source, rel_path="chaos/x.py") == []

    def test_sibling_stream_draw_flagged(self):
        source = "def f(other):\n    return other.rng.randrange(7)\n"
        assert [d.code for d in lint_source(source, rel_path="chaos/x.py")] == ["FCY007"]

    def test_non_draw_attribute_access_allowed(self):
        source = "def f(other):\n    return other.rng.getstate()\n"
        assert lint_source(source, rel_path="chaos/x.py") == []


class TestHotPathInstruments:
    """FCY009: instrument factories stay off per-packet/per-event paths."""

    def test_factory_in_packet_function_flagged(self):
        source = (
            "def on_packet(self, packet):\n"
            "    self.metrics.counter('x_total', 'x').inc()\n"
        )
        assert [d.code for d in lint_source(source, rel_path="simulator/x.py")] == ["FCY009"]

    def test_factory_by_hot_name_flagged(self):
        source = (
            "def tick(self):\n"
            "    self.registry.gauge('depth', 'd').set(1)\n"
        )
        assert [d.code for d in lint_source(source, rel_path="fabric/x.py")] == ["FCY009"]

    def test_prebound_instrument_allowed(self):
        source = (
            "def on_packet(self, packet):\n"
            "    self._m_pkts.inc()\n"
        )
        assert lint_source(source, rel_path="simulator/x.py") == []

    def test_factory_in_cold_function_allowed(self):
        source = (
            "def bind_telemetry(self, telemetry):\n"
            "    self._m = telemetry.metrics.counter('x_total', 'x')\n"
        )
        assert lint_source(source, rel_path="simulator/x.py") == []

    def test_scoped_out_of_experiments(self):
        source = (
            "def on_packet(self, packet):\n"
            "    self.metrics.counter('x_total', 'x').inc()\n"
        )
        assert lint_source(source, rel_path="experiments/x.py") == []

    @pytest.mark.parametrize("handler", [
        "on_control", "_emit", "_send", "_count_control", "_count_rejected"])
    def test_core_per_message_handlers_flagged(self, handler):
        source = (
            f"def {handler}(self, kind):\n"
            "    self.telemetry.metrics.counter('x_total', 'x').inc()\n"
        )
        assert [d.code for d in lint_source(source, rel_path="core/x.py")] == ["FCY009"]

    def test_lazily_memoised_factory_allowed(self):
        source = (
            "def _count_rejected(self, reason):\n"
            "    counter = self._rejected.get(reason)\n"
            "    if counter is None:\n"
            "        counter = self._rejected[reason] = self.metrics.counter(\n"
            "            'x_total', 'x', reason=reason)\n"
            "    counter.inc()\n"
        )
        assert lint_source(source, rel_path="core/x.py") == []

    def test_none_guard_without_memo_assignment_still_flagged(self):
        source = (
            "def on_control(self, kind, payload):\n"
            "    if payload is None:\n"
            "        self.metrics.counter('empty_total', 'x').inc()\n"
        )
        assert [d.code for d in lint_source(source, rel_path="core/x.py")] == ["FCY009"]


class TestSimTimeEquality:
    def test_sentinel_compare_allowed(self):
        assert lint_source("armed = timer.deadline != -1.0\n") == []
        assert lint_source("armed = timer.deadline is not None\n") == []

    def test_now_vs_anything_flagged(self):
        assert [d.code for d in lint_source("fire = sim.now == 1.5\n")] == ["FCY006"]

    def test_ordering_comparison_allowed(self):
        assert lint_source("fire = sim.now >= deadline\n") == []


def test_syntax_error_reported_not_raised():
    findings = lint_source("def broken(:\n", path="broken.py")
    assert [d.code for d in findings] == ["FCY000"]
    assert "does not parse" in findings[0].message


class TestFluidGranularity:
    """FCY010: bulk-only fluid code, stable_seed-only shard seeding."""

    def test_fluid_bad_fixture(self):
        findings = lint_file(FIXTURES / "fcy010_fluid_bad.py")
        matching = [d for d in findings if d.code == "FCY010"]
        assert len(matching) == 2, [d.render() for d in findings]
        messages = " ".join(d.message for d in matching)
        assert "per-packet object construction" in messages
        assert "per-packet RNG draw" in messages
        for diag in matching:
            assert diag.hint

    def test_fluid_good_fixture(self):
        findings = lint_file(FIXTURES / "fcy010_fluid_good.py")
        assert findings == [], [d.render() for d in findings]

    def test_shard_bad_fixture(self):
        findings = lint_file(FIXTURES / "fcy010_shard_bad.py")
        matching = [d for d in findings if d.code == "FCY010"]
        assert len(matching) == 3, [d.render() for d in findings]
        messages = " ".join(d.message for d in matching)
        assert "stable_seed" in messages
        assert "hash()" in messages

    def test_shard_good_fixture(self):
        findings = lint_file(FIXTURES / "fcy010_shard_good.py")
        assert findings == [], [d.render() for d in findings]

    def test_scoped_off_outside_fluid_and_shard_files(self):
        # The same per-packet pattern in an unrelated file is not FCY010's
        # business (other rules own their own scopes there).
        source = (
            "def emit(rng, n):\n"
            "    for _ in range(n):\n"
            "        rng.random()\n"
        )
        findings = lint_source(source, path="neutral.py")
        assert [d.code for d in findings if d.code == "FCY010"] == []

    def test_shipped_fluid_module_is_clean(self):
        # The in-repo fluid engine carries two sanctioned per-packet
        # draws behind trailing suppression comments; the module must
        # lint clean with them honoured.
        import repro.simulator.fluid as fluid_mod

        findings = lint_file(fluid_mod.__file__)
        assert findings == [], [d.render() for d in findings]

    def test_shipped_sharding_module_is_clean(self):
        import repro.fabric.sharding as sharding_mod

        findings = lint_file(sharding_mod.__file__)
        assert findings == [], [d.render() for d in findings]
