import json
import time
from pathlib import Path

import pytest

from payoffopt import optimize, parse_chain, select_series
from payoffopt.cli import load_run_config

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_results: dict[str, bool] = {}
_order: list[str] = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(label): map a test to one acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    label = marker.args[0]
    if label not in _results:
        _results[label] = True
        _order.append(label)
    if report.failed:
        _results[label] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _order:
        return
    terminalreporter.section("acceptance criteria")
    for label in _order:
        verdict = "PASS" if _results[label] else "FAIL"
        terminalreporter.write_line(f"{verdict}  {label}")


@pytest.fixture(scope="session")
def fixture_chain():
    return parse_chain((FIXTURES / "chain.csv").read_text())


@pytest.fixture(scope="session")
def fixture_series(fixture_chain):
    return select_series(fixture_chain, 6, 8050, 7850)


@pytest.fixture(scope="session")
def fixture_run_config():
    return load_run_config(json.loads((FIXTURES / "spec.json").read_text()))


@pytest.fixture(scope="session")
def full_run(fixture_series, fixture_run_config):
    """One timed full-scale optimization, shared by the acceptance tests."""
    start = time.perf_counter()
    solution = optimize(fixture_run_config.strategy, fixture_series)
    elapsed = time.perf_counter() - start
    return solution, elapsed
