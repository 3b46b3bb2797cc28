"""CLI behaviour of the whole-program layer: --deep, --fsm-out, gating."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main

REPO = Path(__file__).parents[2]


def write_tainted_project(tmp_path: Path) -> Path:
    root = tmp_path / "src" / "repro"
    (root / "runtime").mkdir(parents=True)
    (root / "experiments").mkdir(parents=True)
    (root / "runtime" / "helper.py").write_text(
        "import time\n\n\ndef run_sweep():\n    return time.time()\n",
        encoding="utf-8")
    (root / "experiments" / "fig.py").write_text(
        "from repro.runtime.helper import run_sweep\n\n\n"
        "def main():\n    return run_sweep()\n",
        encoding="utf-8")
    (root / "__init__.py").write_text("", encoding="utf-8")
    (root / "runtime" / "__init__.py").write_text("", encoding="utf-8")
    (root / "experiments" / "__init__.py").write_text("", encoding="utf-8")
    return tmp_path / "src"


def test_fsm_out_requires_deep(tmp_path):
    with pytest.raises(SystemExit, match="--fsm-out requires --deep"):
        lint_main([str(tmp_path), "--fsm-out", str(tmp_path / "out")])


def test_deep_select_codes_accepted():
    for code in ("FCY011", "FCY012", "FCY014"):
        # unknown codes raise SystemExit; these must not
        assert lint_main(["--select", code, "--list-rules"]) == 0


def test_list_rules_includes_deep_catalog(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("FCY011", "FCY012", "FCY013", "FCY014"):
        assert code in out


def test_shallow_run_misses_interprocedural_taint(tmp_path, capsys):
    src = write_tainted_project(tmp_path)
    assert lint_main([str(src), "--quiet"]) == 0


def test_deep_run_catches_interprocedural_taint(tmp_path, capsys):
    src = write_tainted_project(tmp_path)
    rc = lint_main([str(src), "--deep", "--quiet"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FCY011" in out
    assert "run_sweep" in out


def test_deep_select_restricts_output(tmp_path, capsys):
    src = write_tainted_project(tmp_path)
    rc = lint_main([str(src), "--deep", "--quiet",
                    "--select", "FCY012"])
    assert rc == 0  # the taint finding is FCY011; FSM pass is clean here
    assert "FCY011" not in capsys.readouterr().out


def test_fsm_artifacts_written(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    protocol = REPO / "src" / "repro" / "core" / "protocol.py"
    rc = lint_main([str(protocol), "--deep", "--quiet",
                    "--fsm-out", str(out_dir)])
    assert rc == 0
    payload = json.loads((out_dir / "fsm.json").read_text(encoding="utf-8"))
    roles = [fsm["role"] for fsm in payload["fsms"]]
    assert roles == ["receiver", "sender"]
    assert all(fsm["clean"] for fsm in payload["fsms"])
    assert (out_dir / "fsm-sender.dot").exists()
    assert (out_dir / "fsm-receiver.dot").exists()


def test_repo_source_tree_is_deep_clean():
    """Acceptance: `fancy-repro lint --deep src` comes back clean — the
    taint and FSM passes hold on the real code."""
    from repro.lint import lint_paths

    result = lint_paths([REPO / "src"], deep=True)
    assert result.ok, "\n".join(d.render() for d in result.diagnostics)
    # 2 sanctioned FCY010 suppressions (fluid engine) + 5 FCY011 taint
    # barriers (run-log + cache timestamps).  Bump only with a written
    # justification on the primitive line.
    assert result.suppressed == 7
    # sender + receiver (core/protocol.py) + degradation ladder
    # (service/ladder.py, docs/ROBUSTNESS.md §6)
    assert len(result.fsm_models) == 3
    assert sorted(m.spec.role for m in result.fsm_models) == [
        "ladder", "receiver", "sender"]
