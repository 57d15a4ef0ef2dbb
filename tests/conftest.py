from __future__ import annotations

from pathlib import Path

import pytest

from cookietrail.psl import load_psl

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def psl_fixture_text() -> str:
    return (DATA_DIR / "psl_fixture.dat").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def psl_rules(psl_fixture_text):
    return load_psl(psl_fixture_text)


@pytest.fixture(scope="session")
def basic_rules():
    return load_psl("com\nnet\norg\nexample\nuk\nco.uk\n")


@pytest.fixture
def tracker_set():
    return frozenset({"tracker.net", "ads.example", "sync.example"})


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion."""
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" in nodeid and getattr(report, "when", "call") == "call":
                name = nodeid.split("::")[-1]
                outcomes[name] = "PASS" if status == "passed" else "FAIL"
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(outcomes):
            terminalreporter.write_line(f"{name}: {outcomes[name]}")
