"""CLI behaviour: exit codes, formats, JSON ordering, self-cleanliness."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as fancy_repro_main
from repro.lint import lint_paths
from repro.lint.cli import main as lint_main

REPO = Path(__file__).parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def test_exit_one_on_findings(capsys):
    rc = lint_main([str(FIXTURES / "fcy001_bad.py")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FCY001" in out


def test_exit_zero_on_clean(capsys):
    rc = lint_main([str(FIXTURES / "fcy001_good.py")])
    assert rc == 0
    assert "FCY" not in capsys.readouterr().out


def test_select_restricts_rules(capsys):
    rc = lint_main([str(FIXTURES), "--select", "FCY004"])
    assert rc == 1
    codes = {line.split(" ")[1] for line in capsys.readouterr().out.splitlines() if line}
    assert codes == {"FCY004"}


def test_unknown_select_code_rejected():
    with pytest.raises(SystemExit, match="FCY999"):
        lint_main([str(FIXTURES), "--select", "FCY999"])


def test_json_format(capsys):
    rc = lint_main([str(FIXTURES / "fcy006_bad.py"), "--format", "json"])
    assert rc == 1
    findings = json.loads(capsys.readouterr().out)
    assert all(f["code"] == "FCY006" for f in findings)
    assert {"path", "line", "col", "message", "hint"} <= set(findings[0])


class TestJsonOutputOrdering:
    BAD = "import random\nx = random.random()\n"

    def findings(self, tmp_path, capsys) -> list[dict]:
        # two files, multiple findings each, written in non-sorted order
        (tmp_path / "zz.py").write_text(self.BAD, encoding="utf-8")
        (tmp_path / "aa.py").write_text(
            "import random\ny = random.random()\nz = random.choice([1])\n",
            encoding="utf-8")
        rc = lint_main([str(tmp_path), "--quiet", "--format", "json"])
        assert rc == 1
        return json.loads(capsys.readouterr().out)

    def test_sorted_by_path_then_line(self, tmp_path, capsys):
        found = self.findings(tmp_path, capsys)
        keys = [(f["path"], f["line"], f["col"], f["code"]) for f in found]
        assert keys == sorted(keys)
        assert [Path(f["path"]).name for f in found] == ["aa.py", "aa.py", "zz.py"]

    def test_json_runs_are_byte_stable(self, tmp_path, capsys):
        first = self.findings(tmp_path, capsys)
        rc = lint_main([str(tmp_path), "--quiet", "--format", "json"])
        assert rc == 1
        second = json.loads(capsys.readouterr().out)
        assert first == second


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("FCY001", "FCY002", "FCY003", "FCY004", "FCY006"):
        assert code in out


def test_fancy_repro_lint_subcommand(capsys):
    rc = fancy_repro_main(["lint", str(FIXTURES / "fcy003_bad.py")])
    assert rc == 1
    assert "FCY003" in capsys.readouterr().out


def test_repo_source_tree_is_lint_clean():
    """`python -m repro.lint src` is clean: no findings, no suppressions
    hiding real ones."""
    result = lint_paths([REPO / "src"])
    assert result.ok, "\n".join(d.render() for d in result.diagnostics)
    # The fluid engine (simulator/fluid.py) carries exactly two sanctioned
    # per-packet draws behind justified FCY010 suppressions: the jitter
    # replay that keeps sent counts bit-identical to UdpSource, and the
    # small-n exact binomial.  Anything beyond those two is a new
    # suppression hiding a real finding — bump this count only with a
    # written justification on the suppressed line.
    assert result.suppressed == 2
    assert result.files_checked > 80
