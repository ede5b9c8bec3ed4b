"""SARIF output: valid structure, deterministic bytes, faithful results."""

import json

from repro.lint import (
    RULESET_VERSION,
    all_rules,
    format_json,
    format_sarif,
    format_text,
    run_lint,
)

FLAGGED = "import numpy as np\nrng = np.random.default_rng()\n"


def report_for(tmp_path):
    (tmp_path / "pkg").mkdir(exist_ok=True)
    (tmp_path / "pkg" / "dirty.py").write_text(FLAGGED)
    return run_lint(["pkg"], tmp_path, baseline={})


class TestSarifStructure:
    def test_schema_and_version(self, tmp_path):
        log = json.loads(format_sarif(report_for(tmp_path)))
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(log["runs"]) == 1

    def test_driver_carries_ruleset_version_and_all_rules(self, tmp_path):
        driver = json.loads(format_sarif(report_for(tmp_path)))[
            "runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert driver["version"] == RULESET_VERSION
        ids = {rule["id"] for rule in driver["rules"]}
        assert ids == {cls.code for cls in all_rules()}

    def test_rule_descriptors_have_rationale_and_level(self, tmp_path):
        driver = json.loads(format_sarif(report_for(tmp_path)))[
            "runs"][0]["tool"]["driver"]
        for rule in driver["rules"]:
            assert rule["fullDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in ("error",
                                                             "warning")

    def test_results_mirror_findings(self, tmp_path):
        report = report_for(tmp_path)
        results = json.loads(format_sarif(report))["runs"][0]["results"]
        assert len(results) == len(report.findings) == 1
        (result,) = results
        (finding,) = report.findings
        assert result["ruleId"] == finding.code == "DET101"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == finding.path
        assert location["region"]["startLine"] == finding.line
        assert location["region"]["startColumn"] == finding.col

    def test_rule_index_points_into_rules_array(self, tmp_path):
        log = json.loads(format_sarif(report_for(tmp_path)))
        driver = log["runs"][0]["tool"]["driver"]
        for result in log["runs"][0]["results"]:
            idx = result["ruleIndex"]
            assert driver["rules"][idx]["id"] == result["ruleId"]


class TestSarifStability:
    def test_byte_identical_across_reruns(self, tmp_path):
        first = format_sarif(report_for(tmp_path))
        second = format_sarif(report_for(tmp_path))
        assert first == second

    def test_text_and_json_formats_unchanged_by_sarif(self, tmp_path):
        # The SARIF serializer must not leak into the stable formats:
        # the JSON report's key set is exactly the pre-SARIF contract.
        report = report_for(tmp_path)
        payload = json.loads(format_json(report))
        assert set(payload) == {"ruleset_version", "rules", "files_scanned",
                                "findings", "suppressed", "stale_baseline"}
        assert "sarif" not in format_text(report).lower()

    def test_repo_sarif_run_is_clean(self, repo_lint_report):
        log = json.loads(format_sarif(repo_lint_report))
        assert log["runs"][0]["results"] == []
