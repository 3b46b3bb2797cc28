"""``fancy-repro report`` CLI: validate mode and argument surface."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import _build_parser, main
from repro.obs.trace import TraceCollector


def _good_jsonl():
    tc = TraceCollector(scope="s1->s2")
    tc.begin_episode(1.0, cause="fault", link="s1->s2")
    tc.open_span("session 1", 1.1, category="protocol")
    tc.emit("flag", 1.5, category="detect")
    tc.finalize(2.0)
    return tc.to_jsonl()


class TestValidateMode:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "traces.jsonl"
        path.write_text(_good_jsonl())
        assert main(["--validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok (3 span(s))" in out

    def test_truncated_file_is_valid_and_says_so(self, tmp_path, capsys):
        tc = TraceCollector(scope="s1->s2", max_spans=2)
        tc.begin_episode(1.0, cause="fault")
        for i in range(3):
            tc.emit(f"e{i}", 1.0 + i, category="chaos")
        path = tmp_path / "truncated.jsonl"
        path.write_text(tc.to_jsonl())
        assert main(["--validate", str(path)]) == 0
        assert "ok (2 span(s), truncated)" in capsys.readouterr().out

    def test_invalid_span_exits_nonzero(self, tmp_path, capsys):
        line = json.loads(_good_jsonl().splitlines()[0])
        line["cat"] = "not-a-category"
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(line) + "\n")
        assert main(["--validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out

    def test_malformed_json_exits_nonzero(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("{not json\n")
        assert main(["--validate", str(path)]) == 1

    def test_multiple_files_all_reported(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        good.write_text(_good_jsonl())
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert main(["--validate", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "good.jsonl: ok" in out
        assert "bad.jsonl: INVALID" in out

    def test_validate_does_not_import_experiment_stack(self, tmp_path):
        # The CI gate runs --validate in tight loops; it must not pay for
        # (or depend on) the runtime/fabric experiment chain.
        import subprocess
        import sys

        path = tmp_path / "traces.jsonl"
        path.write_text(_good_jsonl())
        code = (
            "import sys\n"
            "from repro.obs.cli import main\n"
            f"assert main(['--validate', {str(path)!r}]) == 0\n"
            "assert 'repro.experiments.fabric' not in sys.modules\n"
            "assert 'repro.runtime' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestParserSurface:
    def test_options_are_help_and_validate_only(self):
        options = {flag for action in _build_parser()._actions
                   for flag in action.option_strings}
        assert options == {"-h", "--help", "--validate"}

    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "--validate" in capsys.readouterr().err
