"""Shared fixtures for the linter tests."""

from pathlib import Path

import pytest

from repro.lint import load_config, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_lint_report():
    """One lint of the whole repository, shared by every repo-is-clean test.

    The same run ``repro-p2p lint src tests`` makes: the committed
    pyproject config and the committed baseline.  Linting the repository
    takes seconds, so it runs once per test session.
    """
    return run_lint(["src", "tests"], REPO_ROOT, config=load_config(REPO_ROOT))
