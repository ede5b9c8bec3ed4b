"""`repro-p2p lint` end-to-end through the CLI entry point."""

import json
from pathlib import Path

from repro.cli import build_parser, main
from repro.lint import format_text

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src"]
        assert args.output_format == "text"
        assert not args.write_baseline

    def test_flags(self):
        args = build_parser().parse_args(
            ["lint", "src", "tests", "--format", "json",
             "--select", "det101,DET301", "--ignore", "PAR401"]
        )
        assert args.paths == ["src", "tests"]
        assert args.output_format == "json"
        assert args.select == "det101,DET301"


class TestLintCommand:
    def test_repo_lints_clean(self, repo_lint_report):
        # Clean against the committed (empty) baseline; a stale baseline
        # entry still fails, so a budget cannot silently outlive its debt.
        # `repro-p2p lint src tests` prints format_text of this report and
        # exits with its exit code.
        out = format_text(repo_lint_report)
        assert repo_lint_report.exit_code == 0, out
        assert "0 finding(s)" in out

    def test_repo_lint_debt_is_exactly_the_baseline(self, repo_lint_report):
        # The baseline is empty, so the no-baseline run must be clean
        # too: there is no budgeted debt left for new findings to hide
        # behind (the last entry, workload_io's eager read, now states
        # mmap_mode=None explicitly).  `--no-baseline` reports exactly
        # the findings the baseline suppressed on top of these.
        out = format_text(repo_lint_report)
        assert repo_lint_report.suppressed_by_baseline == 0, out
        assert "0 finding(s)" in out

    def test_violation_fails_with_clickable_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        code = main(["lint", str(bad), "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "bad.py:2:" in out and "DET101" in out

    def test_select_limits_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        code = main(["lint", str(bad), "--root", str(tmp_path),
                     "--select", "DET301"])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_format_records_ruleset(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = main(["lint", str(tmp_path / "ok.py"), "--root", str(tmp_path),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ruleset_version"]
        assert payload["findings"] == []

    def test_sarif_format_emits_valid_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        code = main(["lint", str(bad), "--root", str(tmp_path),
                     "--format", "sarif"])
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "DET101"

    def test_prefix_select_runs_new_rule_families(self, capsys):
        # The acceptance command: family prefixes select every RNG7xx,
        # DTY8xx and NOQ9xx rule, and the repo is clean under them.
        code = main(["lint", "src", "--root", str(REPO_ROOT),
                     "--select", "RNG7,DTY8,NOQ9", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0, out
        payload = json.loads(out)
        assert payload["findings"] == []
        for family in ("RNG701", "RNG702", "RNG703",
                       "DTY801", "DTY802", "DTY803", "NOQ901"):
            assert family in payload["rules"]

    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nnow = time.time()\n")
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\nbaseline = "baseline.json"\n'
        )
        assert main(["lint", str(bad), "--root", str(tmp_path),
                     "--write-baseline"]) == 0
        assert (tmp_path / "baseline.json").is_file()
        # The baselined debt no longer fails the gate...
        assert main(["lint", str(bad), "--root", str(tmp_path)]) == 0
        # ...but a strict run still sees it.
        capsys.readouterr()
        assert main(["lint", str(bad), "--root", str(tmp_path),
                     "--no-baseline"]) == 1
