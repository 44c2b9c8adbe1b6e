"""What each case costs in HiGHS is exactly ``golden/work.json`` (README,
Testing). A change meant to alter that work rewrites it with ``PYTHONPATH=src
python tests/test_work.py`` and commits it. Its ``versions`` name the one
supported build: the scipy floor in ``pyproject.toml`` must be that scipy.
"""

import json
import sys
import tomllib
import types
from collections import Counter
from pathlib import Path

import pytest
import scipy
from packaging.requirements import Requirement
from scipy.optimize._highspy._core import _Highs

from payoffopt import Infeasible, optimize
from support import CASES, FIXTURE_CHAIN, FIXTURE_SPEC, STAGES, record_work, strategy

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "tests" / "golden" / "work.json"
VERSIONS = {"scipy": scipy.__version__, "highs": _Highs().version()}
LAYERS = (
    "lattice_check", "root_lp_infeasible", "root_lp_integral",
    "first_milp_feasible", "first_milp_infeasible",
)
FIELDS = ("lp", "milp", "recheck", "nodes", "iterations", "fixed")


def settled_by(work, result) -> str:
    """The layer that settled one ``optimize``, the row check by its row."""
    if work.proofs["unreachable_row"] is not None:
        return f"row_check:{work.proofs['unreachable_row']}"
    if work.proofs["off_lattice_rows"] is not None:
        return "lattice_check"
    verdict = "infeasible" if isinstance(result, Infeasible) else "feasible"
    if work.kinds(STAGES[0])["milp"]:
        return f"first_milp_{verdict}"
    return "root_lp_infeasible" if verdict == "infeasible" else "root_lp_integral"


def case_work(strategies) -> dict:
    """One case's entry in the table: its strategies' work, summed."""
    settled, loads = Counter(dict.fromkeys(LAYERS, 0)), 0
    stages = {stage: dict.fromkeys(FIELDS, 0) for stage in STAGES}
    for spec, series in strategies:
        with pytest.MonkeyPatch.context() as monkeypatch:
            work = record_work(monkeypatch)
            settled[settled_by(work, optimize(spec, series))] += 1
        loads += len(work.loads)
        for run in work.runs:
            counts = stages[run.stage]
            counts[run.kind] += 1
            counts["nodes"] += run.nodes
            counts["iterations"] += run.iterations
        for stage, fixed in work.fixed.items():
            stages[stage]["fixed"] += fixed
    return {"settled": dict(sorted(settled.items())), "loads": loads, **stages}


@pytest.mark.parametrize("name", CASES)
def test_highs_work_is_the_golden_table(name):
    golden = json.loads(WORK.read_text())
    assert list(golden["cases"]) == list(CASES)
    assert case_work(CASES[name]()) == golden["cases"][name], (
        f"table made with {golden['versions']}, installed {VERSIONS}"
    )


def test_pyproject_requires_the_tables_scipy():
    # a table made with another scipy fails here until pyproject.toml's
    # floor moves with it
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = [Requirement(text) for text in project["dependencies"]]
    [scipy_requirement] = [r for r in requirements if r.name == "scipy"]
    floors = [s.version for s in scipy_requirement.specifier if s.operator == ">="]
    assert floors == [json.loads(WORK.read_text())["versions"]["scipy"]]


def test_cases_are_the_benchmarks_traffic(monkeypatch, tmp_path):
    # the files benchmark/workloads.py writes for corpus-small, and reads
    # for fixture-optimize, give the corpus and the fixture case field by
    # field: strikes, quotes and strategy; the benchmark is executed from
    # its source text, so nothing is written beside it
    for name in ("reference", "workloads"):
        path = ROOT / "benchmark" / f"{name}.py"
        module = types.ModuleType(name)
        monkeypatch.setitem(sys.modules, name, module)
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    workloads = module
    commands = workloads.corpus_commands(ROOT, tmp_path)
    commands += workloads.fixture_commands(ROOT, tmp_path)
    files = [(Path(c.argv[2]), Path(c.argv[4])) for c in commands]
    assert files[-1] == (FIXTURE_CHAIN, FIXTURE_SPEC)
    assert [strategy(*f) for f in files] == CASES["corpus"]() + CASES["fixture"]()


if __name__ == "__main__":
    cases = {name: case_work(make()) for name, make in CASES.items()}
    WORK.write_text(json.dumps({"versions": VERSIONS, "cases": cases}, indent=2) + "\n")
