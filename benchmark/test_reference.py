"""Tests of the benchmark's reference answers and checker.

Run from the root of the checkout: ``python3 -m pytest benchmark/test_reference.py``.
Nothing here imports payoffopt.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from reference import FAILED, OK, WRONG, check_optimize, enumerate_optimum, milp_optimum, money_text, mutations
from workloads import CORPUS_SEED, FIXTURE_CHAIN, FIXTURE_SPEC, WARM_UP, corpus_instance, read_fixture

ROOT = Path(__file__).resolve().parent.parent
HIGHS_LINE = b"HighsMipSolverData::transformNewIntegerFeasibleSolution tmpSolver.run();\n"


def document(inst, answer) -> bytes:
    """The ``optimize --format json`` output for a reference answer."""
    x = answer.x
    prices = inst.prices(answer.index)
    doc = {
        "combination": format(answer.index, f"0{inst.slots}b"),
        "combos_infeasible": (1 << inst.slots) - answer.solved,
        "combos_solved": answer.solved,
        "initial_cost": money_text(sum(int(p) * v for p, v in zip(prices, x))),
        "objective": money_text(answer.objective),
        "quantities": {
            "call": {str(k): v for k, v in zip(inst.call_strikes, x[: inst.n])},
            "put": {str(k): v for k, v in zip(inst.put_strikes, x[inst.n :])},
        },
        "total_contracts": sum(abs(v) for v in x),
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def test_accepts_the_reference_document_and_rejects_each_mutation():
    answer = enumerate_optimum(WARM_UP)
    stdout = document(WARM_UP, answer)
    assert check_optimize(WARM_UP, answer, 0, stdout, b"") == (OK, "")
    verdicts = {label: check_optimize(WARM_UP, answer, 0, changed, b"")[0] for label, changed in mutations(stdout)}
    assert verdicts == {
        "stray stdout bytes": FAILED,
        "quantity off by one": WRONG,
        "combination bit flipped": WRONG,
    }


def test_stray_lines_before_the_document_fail_but_keep_the_values_checked():
    answer = enumerate_optimum(WARM_UP)
    stdout = document(WARM_UP, answer)
    verdict, reason = check_optimize(WARM_UP, answer, 0, HIGHS_LINE * 2 + stdout, b"")
    assert verdict == FAILED and "transformNewIntegerFeasibleSolution" in reason
    bumped = mutations(stdout)[1][1]
    assert check_optimize(WARM_UP, answer, 0, HIGHS_LINE + bumped, b"")[0] == WRONG


def test_infeasible_verdict():
    inst = next(i for i in _corpus(40) if enumerate_optimum(i).objective is None)
    answer = enumerate_optimum(inst)
    stderr = b"error:infeasible:no feasible portfolio\n"
    assert check_optimize(inst, answer, 1, b"", stderr) == (OK, "")
    assert check_optimize(inst, answer, 1, HIGHS_LINE * 4, stderr)[0] == FAILED
    assert check_optimize(inst, answer, 0, b"", b"")[0] == WRONG
    assert check_optimize(inst, answer, 1, b"", stderr * 2)[0] == WRONG


def _corpus(count: int):
    rng = random.Random(CORPUS_SEED)
    return [corpus_instance(rng) for _ in range(count)]


@pytest.mark.parametrize("inst", _corpus(40))
def test_milp_route_agrees_with_enumeration(inst):
    expected = enumerate_optimum(inst)
    got = milp_optimum(inst)
    assert (got.objective, got.index) == (expected.objective, expected.index)


def test_fixture_optimum():
    inst = read_fixture((ROOT / FIXTURE_CHAIN).read_text(), json.loads((ROOT / FIXTURE_SPEC).read_text()))
    answer = milp_optimum(inst)
    assert (answer.objective, format(answer.index, "012b")) == (40000, "010011000010")
