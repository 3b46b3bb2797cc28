"""Smoke tests: every example script must run cleanly end to end."""

from __future__ import annotations

import pathlib
import runpy


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "victim flagged:       True" in out
        assert "false positives:      none" in out

    def test_partial_deployment(self, capsys):
        out = run_example("partial_deployment.py", capsys)
        assert "victim flagged: True" in out

    def test_full_deployment(self, capsys):
        out = run_example("full_deployment.py", capsys)
        assert "['s2->s3']" in out

    def test_capacity_planning(self, capsys):
        out = run_example("capacity_planning.py", capsys)
        assert "dedicated counters: 500" in out
        assert "not operational" in out

    def test_selective_fast_rerouting(self, capsys):
        out = run_example("selective_fast_rerouting.py", capsys)
        assert "rerouted to backup" in out
        assert "innocent rerouted = False" in out

    def test_root_cause_analysis(self, capsys):
        out = run_example("root_cause_analysis.py", capsys)
        assert "size<=128   flagged = True" in out
        assert "signature-sync flags:        True" in out

    def test_isp_backbone_monitoring(self, capsys):
        out = run_example("isp_backbone_monitoring.py", capsys)
        assert "FLAGGED" in out
        assert "uniform reports:" in out
