"""Tests for the Table 1 bug catalog and its failure-model factory."""

from __future__ import annotations

import pytest

from repro.catalog import (
    TABLE1_BUGS,
    EntryScope,
    PacketScope,
    bugs_in_class,
    failure_for,
    render_table1,
)
from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.simulator.apps import FlowGenerator
from repro.simulator.failures import (
    EntryLossFailure,
    PacketPropertyFailure,
    UniformLossFailure,
)
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.topology import TwoSwitchTopology


class TestCatalog:
    def test_every_table1_cell_populated(self):
        """§2.1: operators observed at least one failure of each class."""
        for entry_scope in EntryScope:
            for packet_scope in PacketScope:
                assert bugs_in_class(entry_scope, packet_scope), (
                    entry_scope, packet_scope)

    def test_both_vendors_represented(self):
        vendors = {b.vendor for b in TABLE1_BUGS}
        assert vendors == {"Cisco", "Juniper"}

    def test_bug_ids_unique(self):
        ids = [b.bug_id for b in TABLE1_BUGS]
        assert len(ids) == len(set(ids))

    def test_render_contains_known_bugs(self):
        text = render_table1()
        assert "CSCuv31196" in text
        assert "PR1434567" in text
        assert "Table 1" in text


class TestFailureFactory:
    def test_prefix_scoped_bug_yields_entry_failure(self):
        bug = bugs_in_class(EntryScope.SOME_PREFIXES, PacketScope.ALL_PACKETS)[0]
        failure = failure_for(bug, entries=["p1", "p2"])
        assert isinstance(failure, EntryLossFailure)
        assert failure.loss_rate == 1.0

    def test_prefix_scoped_bug_requires_entries(self):
        bug = bugs_in_class(EntryScope.SOME_PREFIXES, PacketScope.ALL_PACKETS)[0]
        with pytest.raises(ValueError):
            failure_for(bug)

    def test_all_prefix_blackhole_yields_uniform(self):
        bug = bugs_in_class(EntryScope.ALL_PREFIXES, PacketScope.ALL_PACKETS)[0]
        failure = failure_for(bug)
        assert isinstance(failure, UniformLossFailure)
        assert failure.loss_rate == 1.0

    def test_partial_packet_default_loss_rate(self):
        bug = bugs_in_class(EntryScope.SOME_PREFIXES, PacketScope.SOME_PACKETS)[0]
        failure = failure_for(bug, entries=["p"])
        assert failure.loss_rate == 0.3

    def test_size_selector_bug(self):
        size_bugs = [b for b in TABLE1_BUGS if b.packet_selector == "size"]
        assert size_bugs
        failure = failure_for(size_bugs[0], seed=3)
        assert isinstance(failure, PacketPropertyFailure)
        # The predicate selects a contiguous size band.
        sizes = [s for s in range(64, 2048, 16)
                 if failure.matches(Packet(PacketKind.DATA, "e", s))]
        assert sizes
        assert sizes == list(range(min(sizes), max(sizes) + 1, 16))

    def test_field_selector_bug_matches_0xe000(self):
        field_bugs = [b for b in TABLE1_BUGS if b.packet_selector == "field"]
        failure = failure_for(field_bugs[0])
        assert failure.matches(Packet(PacketKind.DATA, "e", 1500, seq=0xE000))
        assert not failure.matches(Packet(PacketKind.DATA, "e", 1500, seq=1))

    def test_every_catalogued_bug_is_instantiable(self):
        for bug in TABLE1_BUGS:
            failure = failure_for(bug, entries=["p"], seed=1)
            assert callable(failure)


class TestCatalogEndToEnd:
    @pytest.mark.parametrize("bug", [
        b for b in TABLE1_BUGS if b.entry_scope is EntryScope.SOME_PREFIXES
    ], ids=lambda b: b.bug_id)
    def test_prefix_scoped_bugs_detected_by_fancy(self, sim, bug):
        """Every prefix-scoped catalog bug, instantiated live, is caught."""
        failure = failure_for(bug, entries=["victim"], start_time=1.0, seed=1)
        topo = TwoSwitchTopology(sim, loss_model=failure)
        monitor = FancyLinkMonitor(
            sim, topo.upstream, 1, topo.downstream, 1,
            FancyConfig(high_priority=["victim"], tree_params=None),
        )
        FlowGenerator(sim, topo.source, "victim", rate_bps=1e6,
                      flows_per_second=10, seed=1, destination=topo.sink).start()
        monitor.start()
        sim.run(until=5.0)
        assert monitor.entry_is_flagged("victim"), bug.bug_id


class TestSurvey:
    def test_survey_findings_present(self):
        from repro.catalog import SURVEY_FINDINGS, render_survey
        assert "74%" in SURVEY_FINDINGS["no_detector"]
        text = render_survey()
        assert "NANOG" in text
        assert "46 operators" in text
