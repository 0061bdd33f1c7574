"""The lint CLI and the verify driver's --stats-json satellite."""

import json

from repro.tools.lint import main as lint_main
from repro.tools.verify import main as verify_main


class TestLintCli:
    def test_clean_case_exits_zero(self, capsys):
        assert lint_main(["rbit"]) == 0
        out = capsys.readouterr().out
        assert "rbit: 0 error(s)" in out

    def test_json_payload_shape(self, tmp_path):
        report = tmp_path / "report.json"
        assert lint_main(["rbit", "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["schema"] == "repro.lint/2"
        assert payload["mode"] == "cases"
        assert payload["ok"] is True
        case = payload["targets"]["rbit"]
        assert case["errors"] == 0
        for finding in case["findings"]:
            assert {"code", "severity", "message"} <= set(finding)
        assert set(payload["totals"]) == {"errors", "warnings", "infos"}

    def test_json_to_stdout(self, capsys):
        assert lint_main(["rbit", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "rbit" in payload["targets"]

    def test_requires_a_case_or_all(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc:
            lint_main([])
        assert exc.value.code == 2  # documented usage-error exit

    def test_isa_mode_runs_clean(self, capsys):
        assert lint_main(["--isa"]) == 0
        out = capsys.readouterr().out
        assert "arm: 0 error(s)" in out
        assert "riscv: 0 error(s)" in out

    def test_isa_json_schema(self, capsys):
        assert lint_main(["--isa", "--arch", "riscv", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/2"
        assert payload["mode"] == "isa"
        assert payload["ok"] is True
        assert set(payload["targets"]) == {"riscv"}

    def test_isa_rejects_case_and_bad_arch(self):
        import pytest

        with pytest.raises(SystemExit) as exc:
            lint_main(["--isa", "rbit"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            lint_main(["--isa", "--arch", "mips"])
        assert exc.value.code == 2

    def test_cache_makes_lint_reuse_traces(self, tmp_path, capsys):
        assert lint_main(["rbit", "--cache-dir", str(tmp_path)]) == 0
        from repro.cache import DiskCache

        warm = DiskCache(tmp_path)
        assert lint_main(["rbit", "--cache-dir", str(tmp_path)]) == 0
        # (A fresh handle was used inside main; just assert records exist.)
        assert warm._index


class TestVerifyStatsJson:
    def test_stats_payload(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        assert verify_main(["rbit", "--stats-json", str(stats)]) == 0
        payload = json.loads(stats.read_text())
        assert payload["ok"] is True
        case = payload["cases"]["rbit"]
        assert case["outcome"] == "verified"
        assert case["blocks"] == 1
        for group in ("solver", "cache", "executor"):
            assert isinstance(case[group], dict)
            assert case[group].keys() <= payload["totals"][group].keys()
        assert case["executor"]["paths"] >= 1

    def test_stats_to_stdout(self, capsys):
        assert verify_main(["rbit", "--stats-json", "-"]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        payload = json.loads(out[start:])
        assert "totals" in payload and "cases" in payload
