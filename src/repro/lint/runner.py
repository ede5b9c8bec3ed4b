"""Lint runner: file discovery, policy application, report output.

The pipeline per run is: discover files -> build the cross-file
:class:`~.project.ProjectIndex` (layer 1, mtime-cached) -> per file,
registered rules with the index threaded through -> inline ``noqa``
filter (in :func:`~repro.lint.framework.check_source`) ->
select/ignore -> per-path allowances -> baseline budget.  Everything
downstream of the rules is pure policy, so a finding's journey from
AST node to CI failure is auditable.

Output ordering is deterministic end to end: path arguments resolve
against the *invocation directory* and deduplicate on the resolved
file (``lint src src/repro`` reports each finding once), files are
discovered in sorted order, findings sort by (path, line, col, code),
and the JSON/SARIF reports serialize with sorted keys and record
``ruleset_version`` so archived CI artifacts state exactly which rule
battery they enforced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .config import BaselineBudget, LintConfig, load_baseline
from .findings import Finding, Severity
from .framework import all_rules, check_file
from .project import ProjectIndex
from .sarif import format_sarif as _format_sarif

__all__ = [
    "RULESET_VERSION",
    "LintReport",
    "iter_python_files",
    "run_lint",
    "format_text",
    "format_json",
    "format_sarif",
    "write_baseline_file",
]

#: Bump when rules are added/removed or their semantics change; recorded
#: in every JSON and SARIF report so an archived run states what was
#: enforced at the time.  2.0: the dataflow analyzer -- RNG7xx
#: stream provenance, DTY8xx dtype/reduction-order contracts, NOQ901
#: suppression audit, project call graph.
RULESET_VERSION = "2.1"


@dataclass
class LintReport:
    """Outcome of one lint run, after all suppression layers."""

    findings: List[Finding]
    files_scanned: int
    suppressed_by_allow: int = 0
    suppressed_by_baseline: int = 0
    stale_baseline: List[Tuple[str, str]] = field(default_factory=list)
    #: Stale entries whose path no longer exists under the project root
    #: -- the file was deleted or renamed with its debt left behind.
    stale_missing_files: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


def iter_python_files(
    paths: Sequence[Union[str, Path]],
    root: Path,
    config: LintConfig,
    cwd: Union[str, Path, None] = None,
) -> List[Tuple[Path, str]]:
    """(absolute path, display relpath) for every lintable file.

    Relative path arguments resolve against ``cwd`` (the invocation
    directory, defaulting to the process cwd) when they exist there,
    falling back to ``root`` -- so ``lint repro`` works from ``src/``
    and ``lint src`` keeps working from the repo root.  Directories
    are walked recursively; overlapping arguments (``src src/repro``)
    deduplicate on the *resolved* file, so each file is linted once
    under one deterministic root-relative display path.  Config
    ``exclude`` patterns apply to the display path.
    """
    base = Path(cwd).resolve() if cwd is not None else Path.cwd()
    selected: Dict[str, Path] = {}
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            in_cwd = (base / path)
            path = in_cwd if in_cwd.exists() else (root / path)
        path = path.resolve()
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            rel = _display_path(candidate, root)
            if not config.excluded(rel):
                selected[rel] = candidate
    return [(selected[rel], rel) for rel in sorted(selected)]


def run_lint(
    paths: Sequence[Union[str, Path]],
    root: Union[str, Path],
    config: Optional[LintConfig] = None,
    baseline: Optional[BaselineBudget] = None,
    cwd: Union[str, Path, None] = None,
) -> LintReport:
    """Lint ``paths`` under project ``root`` with full policy applied.

    ``baseline=None`` loads the config's baseline file; pass ``{}`` to
    force a strict run.  ``cwd`` is the invocation directory relative
    path arguments resolve against (defaults to the process cwd).
    """
    root = Path(root).resolve()
    config = config or LintConfig()
    if baseline is None:
        baseline = load_baseline(root / config.baseline) if config.baseline else {}
    budget = dict(baseline)

    rules = [cls for cls in all_rules() if config.enabled(cls.code)]
    findings: List[Finding] = []
    allowed = 0
    baselined = 0
    files = iter_python_files(paths, root, config, cwd=cwd)
    project = ProjectIndex.build(files)
    for path, rel in files:
        for finding in check_file(path, display_path=rel, rules=rules,
                                  project=project):
            if finding.code in config.allowed_codes(rel):
                allowed += 1
                continue
            key = (rel, finding.code)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                baselined += 1
                continue
            findings.append(finding)
    stale = sorted(key for key, remaining in budget.items() if remaining > 0)
    missing = [(path_, code) for path_, code in stale
               if not (root / path_).exists()]
    return LintReport(
        findings=sorted(findings),
        files_scanned=len(files),
        suppressed_by_allow=allowed,
        suppressed_by_baseline=baselined,
        stale_baseline=stale,
        stale_missing_files=missing,
    )


def format_text(report: LintReport) -> str:
    """Human-readable findings plus a one-line summary."""
    lines = [finding.render() for finding in report.findings]
    summary = (f"{len(report.findings)} finding(s) in "
               f"{report.files_scanned} file(s)")
    extras = []
    if report.suppressed_by_allow:
        extras.append(f"{report.suppressed_by_allow} allowed by per-path config")
    if report.suppressed_by_baseline:
        extras.append(f"{report.suppressed_by_baseline} baselined")
    if extras:
        summary += f" ({', '.join(extras)})"
    lines.append(summary)
    missing = set(report.stale_missing_files)
    for path, code in report.stale_baseline:
        if (path, code) in missing:
            lines.append(f"note: stale baseline entry {path}: {code} "
                         "(file no longer exists; remove the entry)")
        else:
            lines.append(f"note: stale baseline entry {path}: {code} "
                         "(no longer triggered; remove it)")
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """Machine-readable report; stable ordering for CI diffs."""
    payload = {
        "ruleset_version": RULESET_VERSION,
        "rules": {cls.code: cls.name for cls in all_rules()},
        "files_scanned": report.files_scanned,
        "findings": [f.to_json() for f in report.findings],
        "suppressed": {
            "per_path_allow": report.suppressed_by_allow,
            "baseline": report.suppressed_by_baseline,
        },
        "stale_baseline": [
            {"path": path, "code": code,
             "file_exists": (path, code) not in set(report.stale_missing_files)}
            for path, code in report.stale_baseline
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def format_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 log for code-scanning upload; see :mod:`.sarif`."""
    return _format_sarif(report, RULESET_VERSION)


def write_baseline_file(report: LintReport, path: Union[str, Path]) -> Path:
    """Persist the report's findings as a (path, code, count) baseline.

    Entries are aggregated and sorted so regenerating the baseline on
    an unchanged tree is a no-op diff.
    """
    counts: Dict[Tuple[str, str], int] = {}
    for finding in report.findings:
        key = (finding.path, finding.code)
        counts[key] = counts.get(key, 0) + 1
    payload = {
        "version": 1,
        "ruleset_version": RULESET_VERSION,
        "entries": [
            {"path": path_, "code": code, "count": count}
            for (path_, code), count in sorted(counts.items())
        ],
    }
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out


def _display_path(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root)
    except ValueError:
        rel = path
    return rel.as_posix()
