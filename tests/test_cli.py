import codecs
import importlib
import json
import os
import re
import subprocess
import sys
import types
import warnings
from collections import Counter
from pathlib import Path

import pytest
from scipy.optimize._highspy._core import HighsModelStatus

import payoffopt
import payoffopt.ilp_solver
from conftest import FIXTURES
from payoffopt import SpecError, parse_chain
from payoffopt.cli import (
    CliError,
    _parse_args,
    _parsers,
    load_run_config,
    run,
)
from payoffopt.model_builder import Relation, TailLossMode
from support import (
    GOLDEN,
    chain_to_json,
    fake_milp_runs,
    golden_argv,
    marking,
    record_work,
    seeded_strategies,
    write_strategy,
)

CHAIN_CSV = (
    "underlying=99.50\n"
    "valuation=2026-08-20\n"
    "expiry=2026-09-16\n"
    "100,call,4.00,4.20,120\n"
    "110,call,1.00,1.10,80\n"
    "90,put,0.80,0.90,60\n"
    "100,put,3.80,4.00,95\n"
)

SPEC = {
    "expected_price": "105.00",
    "inflection": 100,
    "max_loss": "-5.00",
    "lower": -3,
    "upper": 3,
    "balance_left_tail": False,
    "balance_right_tail": False,
    "call_anchor": 100,
    "put_anchor": 90,
    "n": 2,
}

EXPECTED_TABLE = (
    "Strike                      Call  Put\n"
    "90                                  3\n"
    "100                            3   -3\n"
    "110                           -3\n"
    "max F                            14.1\n"
    "Total number of contracts          12\n"
)

EXPECTED_CURVE = (
    "price,value\n"
    "80,-30.00\n"
    "90,-30.00\n"
    "100,0.00\n"
    "110,30.00\n"
    "120,30.00\n"
)


@pytest.fixture
def chain_path(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text(CHAIN_CSV)
    return path


@pytest.fixture
def make_spec(tmp_path):
    def write(**overrides):
        data = {**SPEC, **overrides}
        data = {k: v for k, v in data.items() if v is not ...}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return path

    return write


def invoke(*args):
    return run([str(a) for a in args])


INFEASIBLE = "error:infeasible:no feasible portfolio; constraints attempted: "


class TestInfeasibleLine:
    """An infeasible run's line names the rows of the exact proof that
    settled it, or, when HiGHS did, every row of a combination's
    subproblem, all taken from the run's result."""

    # the rows of corpus strategy 0's subproblems, which HiGHS's root LP
    # settles after both exact checks pass
    STRATEGY_0_ROWS = (
        "tail_calls,tail_puts,slope[125,135],slope[135,145],slope[145,165],"
        "positivity,cost"
    )

    def run_corpus_strategy(self, index, tmp_path, monkeypatch, capsys):
        """Exit code, stdout, stderr, HiGHS calls and loads of ``optimize``
        on strategy ``index`` of the seeded corpus."""
        spec, series = list(seeded_strategies(20260823, index + 1))[index]
        chain, strategy = write_strategy(spec, series, tmp_path)
        work = record_work(monkeypatch)
        code = invoke("optimize", "--chain", chain, "--spec", strategy)
        return (code, *capsys.readouterr(), work.kinds(), work.loads)

    def test_row_check_names_its_row(self, tmp_path, monkeypatch, capsys):
        got = self.run_corpus_strategy(54, tmp_path, monkeypatch, capsys)
        assert got == (1, "", INFEASIBLE + "balance_left\n", {}, [])

    @pytest.mark.parametrize("cost", ["0.01", "50.00"])
    def test_lattice_check_names_its_rows(self, cost, tmp_path, monkeypatch, capsys):
        # every fixture row is too wide for the row check; the lattice check
        # fails on the cost row, the last equality row
        data = json.loads((FIXTURES / "spec.json").read_text())
        data["cost_target"] = {"cmp": "=", "value": cost}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        work = record_work(monkeypatch)
        code = invoke("optimize", "--chain", FIXTURES / "chain.csv", "--spec", spec)
        rows = "tail_calls,tail_puts,balance_left,balance_right,cost"
        assert (code, *capsys.readouterr()) == (1, "", INFEASIBLE + rows + "\n")
        assert (work.runs, work.loads) == ([], [])

    @pytest.mark.parametrize("case", ["strategy-54", "fixture-cost-50.00"])
    def test_proofs_build_no_program(self, case, tmp_path, monkeypatch, capsys):
        # both exact proofs read the strategy's equality rows: a run they
        # settle builds no combined program and loads no HiGHS instance
        def refuse(*args):
            raise AssertionError("a proof-settled run builds no program")

        if case == "strategy-54":
            spec, series = list(seeded_strategies(20260823, 55))[54]
            chain, strategy = write_strategy(spec, series, tmp_path)
            rows = "balance_left"
        else:
            data = json.loads((FIXTURES / "spec.json").read_text())
            data["cost_target"] = {"cmp": "=", "value": "50.00"}
            chain, strategy = FIXTURES / "chain.csv", tmp_path / "spec.json"
            strategy.write_text(json.dumps(data))
            rows = "tail_calls,tail_puts,balance_left,balance_right,cost"
        monkeypatch.setattr("payoffopt.optimizer.build_combined", refuse)
        monkeypatch.setattr("payoffopt.ilp_solver._load", refuse)
        code = invoke("optimize", "--chain", chain, "--spec", strategy)
        assert (code, *capsys.readouterr()) == (1, "", INFEASIBLE + rows + "\n")

    def test_highs_verdict_lists_every_subproblem_row(
        self, tmp_path, monkeypatch, capsys
    ):
        # one load of the 18-column combined program and its root LP
        got = self.run_corpus_strategy(0, tmp_path, monkeypatch, capsys)
        line = INFEASIBLE + self.STRATEGY_0_ROWS + "\n"
        assert got == (1, "", line, {"lp": 1}, [18])

    def test_line_builds_no_subproblem(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the infeasible line builds no subproblem")

        monkeypatch.setattr("payoffopt.cli.build_subproblem", refuse)
        got = self.run_corpus_strategy(0, tmp_path, monkeypatch, capsys)
        assert got[:3] == (1, "", INFEASIBLE + self.STRATEGY_0_ROWS + "\n")


class TestOptimizeCommand:
    def test_table_output(self, chain_path, make_spec, capsys):
        assert invoke("optimize", "--chain", chain_path, "--spec", make_spec()) == 0
        captured = capsys.readouterr()
        assert captured.out == EXPECTED_TABLE
        assert captured.err == ""

    def test_json_output(self, chain_path, make_spec, capsys):
        code = invoke(
            "optimize", "--chain", chain_path, "--spec", make_spec(),
            "--format", "json",
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["objective"] == "14.10"
        assert data["initial_cost"] == "0.90"
        assert data["combination"] == "1010"
        assert data["quantities"]["call"] == {"100": 3, "110": -3}
        assert data["quantities"]["put"] == {"90": 3, "100": -3}

    def test_csv_output(self, chain_path, make_spec, capsys):
        code = invoke(
            "optimize", "--chain", chain_path, "--spec", make_spec(),
            "--format", "csv",
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "strike,call,put\n"
            "90,,3\n"
            "100,3,-3\n"
            "110,-3,\n"
            "max_F,14.1\n"
            "total_contracts,12\n"
        )

    def test_output_file(self, chain_path, make_spec, tmp_path, capsys):
        out = tmp_path / "result.txt"
        code = invoke(
            "optimize", "--chain", chain_path, "--spec", make_spec(), "-o", out
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == EXPECTED_TABLE

    def test_unwritable_output_is_an_args_error(
        self, chain_path, make_spec, tmp_path, capsys
    ):
        out = tmp_path / "missing" / "result.txt"
        code = invoke(
            "optimize", "--chain", chain_path, "--spec", make_spec(), "-o", out
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error:args:cannot write {out}")
        assert len(captured.err.splitlines()) == 1

    def test_repeat_runs_byte_identical(self, chain_path, make_spec, tmp_path):
        spec = make_spec()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            code = invoke(
                "optimize", "--chain", chain_path, "--spec", spec,
                "--format", "json", "-o", out,
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_infeasible_exit_lists_constraints(self, chain_path, make_spec, capsys):
        # the row check proves the left tail's balance out of reach, and the
        # line names that row alone
        spec = make_spec(balance_left_tail=True, balance_right_tail=True)
        assert invoke("optimize", "--chain", chain_path, "--spec", spec) == 1
        assert capsys.readouterr() == ("", INFEASIBLE + "balance_left\n")

    def fail_every_milp(self, monkeypatch, status):
        """Make every MILP run end with this HiGHS model status (every LP
        runs for real, and settles no point); returns each such run's kind
        and node limit."""
        return fake_milp_runs(
            monkeypatch,
            status,
            record=lambda highs, kind: (kind, highs.getOptionValue("mip_max_nodes")[1]),
        )

    def check_solver_failure(self, chain_path, make_spec, capsys, code, message):
        assert invoke("optimize", "--chain", chain_path, "--spec", make_spec()) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error:solver:{message}")

    def test_numerical_failure_exit(self, chain_path, make_spec, monkeypatch, capsys):
        seen = self.fail_every_milp(monkeypatch, HighsModelStatus.kSolveError)
        self.check_solver_failure(
            chain_path, make_spec, capsys, 4, "MILP backend failed (status 4)"
        )
        # a "Solve error" is retried once with presolve off
        assert [kind for kind, _ in seen] == ["milp", "recheck"]

    def test_node_limit_exit(self, chain_path, make_spec, monkeypatch, capsys):
        # HiGHS reports reaching its node limit as the solution limit
        seen = self.fail_every_milp(monkeypatch, HighsModelStatus.kSolutionLimit)
        self.check_solver_failure(
            chain_path, make_spec, capsys, 3, "node budget of 10000000 exhausted"
        )
        # a limit is not retried
        assert seen == [("milp", payoffopt.ilp_solver.NODE_BUDGET)]

    @pytest.mark.parametrize(
        "bound, detail",
        [
            # HiGHS rejects the ask/bid link rows' coefficient as a model error
            (10**15, "MILP backend failed (status 2): Model error"),
            (10**400, "program exceeds floating point: int too large to convert to float"),
        ],
        ids=["1e15", "1e400"],
    )
    @pytest.mark.parametrize("command", ["optimize", "payoff"])
    def test_unrepresentable_bound_is_a_solver_error(
        self, tmp_path, command, bound, detail, capsys
    ):
        spec = json.loads((FIXTURES / "spec.json").read_text())
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**spec, "lower": -bound, "upper": bound}))
        chain = FIXTURES / "chain.csv"
        assert invoke(command, "--chain", chain, "--spec", path) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error:solver:{detail}\n"

    def test_unexpected_exception_is_an_internal_error(
        self, chain_path, make_spec, monkeypatch, capsys
    ):
        # a defect must not read as exit 1, "no feasible portfolio"
        def broken(spec, series):
            raise AssertionError("pnl identity\nbroken")

        monkeypatch.setattr("payoffopt.cli.optimize", broken)
        assert invoke("optimize", "--chain", chain_path, "--spec", make_spec()) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:internal:AssertionError: pnl identity broken\n"

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts-on", "asserts-off"])
    def test_broken_pnl_identity_is_an_internal_error(self, flags, chain_path, make_spec):
        # optimize checks its objective against the payoff engine's P&L with
        # python -O too, which strips assert statements
        script = (
            "import sys\n"
            "import payoffopt.optimizer as optimizer\n"
            "pnl = optimizer.pnl\n"
            "optimizer.pnl = lambda *args: pnl(*args) + 1\n"
            "from payoffopt.cli import run\n"
            "sys.exit(run(sys.argv[1:]))\n"
        )
        argv = ["optimize", "--chain", str(chain_path), "--spec", str(make_spec())]
        completed = subprocess.run(
            [sys.executable, *flags, "-c", script, *argv],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=120,
        )
        assert (completed.returncode, completed.stdout) == (5, "")
        assert completed.stderr == (
            "error:internal:RuntimeError: objective 1410 is not the P&L 1411\n"
        )


FIXTURE_OPTIMIZE = (
    "optimize", "--chain", FIXTURES / "chain.csv", "--spec", FIXTURES / "spec.json",
)


def subprocess_env(**overrides):
    """This environment with the package's source on ``PYTHONPATH``, for
    ``python -m payoffopt`` in a subprocess, plus ``overrides``."""
    src = str(Path(payoffopt.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **overrides}


class TestFixtureCommand:
    def test_feasible_run_writes_nothing_unasked(self, capfd):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert invoke(*FIXTURE_OPTIMIZE) == 0
        out, err = capfd.readouterr()
        assert "max F" in out
        assert err == ""
        assert caught == []

    @pytest.mark.parametrize(
        "name", ["optimize-csv-table", "payoff", "sweep-liquidity-table"]
    )
    def test_solver_output_stays_off_stdout(self, name, monkeypatch, capfd):
        # each HiGHS run writes a byte to fd 1 first, as HiGHS's diagnostics
        # do; stdout still holds exactly the golden text
        work = record_work(monkeypatch, marking)
        assert run(golden_argv(name)) == 0
        assert work.runs
        assert capfd.readouterr() == ((GOLDEN / f"{name}.out").read_text(), "")

    def test_node_budget_exhausted_by_highs(self, monkeypatch, capsys):
        # the real search, not a faked status: one node cannot settle the
        # fixture, and running out is a resource limit, not a backend failure
        monkeypatch.setattr(payoffopt.ilp_solver, "NODE_BUDGET", 1)
        assert invoke(*FIXTURE_OPTIMIZE) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:solver:node budget of 1 exhausted\n"

    def test_solves_its_root_lp_without_linprog(self, monkeypatch, capsys):
        # the root LP and each refine block's LP are runs of the loaded
        # model's relaxation; ilp_solver imports none of scipy's solver
        # wrappers
        for name in ("linprog", "milp", "LinearConstraint", "Bounds", "csc_array"):
            assert not hasattr(payoffopt.ilp_solver, name), name
        work = record_work(monkeypatch)
        assert invoke(*FIXTURE_OPTIMIZE, "--format", "json") == 0
        capsys.readouterr()
        lps = {run.stage for run in work.runs if run.kind == "lp"}
        assert lps == {"first", "stage_a", "stage_b"}

    @pytest.mark.parametrize("module", ["payoffopt", "payoffopt.cli"])
    def test_python_dash_m_matches_run(self, module, capsys):
        expected_code = invoke(*FIXTURE_OPTIMIZE, "--format", "json")
        expected_out = capsys.readouterr().out
        completed = subprocess.run(
            [sys.executable, "-m", module, *map(str, FIXTURE_OPTIMIZE), "--format", "json"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=120,
        )
        assert (completed.returncode, completed.stdout) == (expected_code, expected_out)
        assert expected_code == 0 and expected_out
        assert completed.stderr == ""

    def test_solution_file_is_utf8_in_any_locale(self, tmp_path):
        # under the C locale, without UTF-8 mode, the locale encoding is
        # ASCII; a stored solution with an extra non-ASCII key still reads
        stored = json.loads((GOLDEN / "optimize-csv-json.out").read_text())
        path = tmp_path / "solution.json"
        document = json.dumps({**stored, "note": "r\u00e9f"}, ensure_ascii=False)
        path.write_bytes(document.encode("utf-8"))
        env = subprocess_env(LC_ALL="C", PYTHONCOERCECLOCALE="0")
        env.pop("PYTHONUTF8", None)
        completed = subprocess.run(
            [
                sys.executable, "-X", "utf8=0", "-m", "payoffopt", "payoff",
                "--chain", FIXTURES / "chain.csv", "--spec", FIXTURES / "spec.json",
                "--solution", path,
            ],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert (completed.returncode, completed.stderr) == (0, b"")
        assert completed.stdout == (GOLDEN / "payoff.out").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_failed_stdout_write_is_an_args_error(self, unbuffered):
        # the write fails at once when stdout is unbuffered, else at the
        # flush; the interpreter's own flush at exit must not fail again
        with open("/dev/full", "wb") as full:
            completed = subprocess.run(
                [sys.executable, "-m", "payoffopt", *map(str, FIXTURE_OPTIMIZE)],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=subprocess_env(PYTHONUNBUFFERED=unbuffered),
                timeout=120,
            )
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:args:cannot write stdout: ")
        assert len(completed.stderr.splitlines()) == 1

    @staticmethod
    def run_with_stdout_closed(*argv):
        """``python -m payoffopt`` on ``argv`` with file descriptor 1 closed,
        as a shell's ``>&-`` leaves it; stderr is captured."""
        return subprocess.run(
            ["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m", "payoffopt"]
            + [str(a) for a in argv],
            stderr=subprocess.PIPE,
            text=True,
            env=subprocess_env(),
            timeout=120,
        )

    @pytest.mark.parametrize(
        "name", ["optimize-csv-table", "payoff", "sweep-liquidity-table"]
    )
    def test_closed_stdout_still_writes_the_output_file(self, name, tmp_path):
        # every solve runs with fd 1 closed, where HiGHS has no output to
        # corrupt, and --output gets the golden text
        path = tmp_path / "out.txt"
        completed = self.run_with_stdout_closed(*golden_argv(name), "--output", path)
        assert (completed.returncode, completed.stderr) == (0, "")
        assert path.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [("validate", "--chain", FIXTURES / "chain.csv"), FIXTURE_OPTIMIZE],
        ids=["validate", "optimize"],
    )
    def test_closed_stdout_is_an_args_error(self, argv):
        completed = self.run_with_stdout_closed(*argv)
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:args:cannot write stdout: ")
        assert len(completed.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "name, marked",
    [
        ("optimize-csv-table", "fixtures/chain.csv"),
        ("optimize-json-json", "fixtures/chain.json"),
        ("optimize-csv-table", "fixtures/spec.json"),
        ("payoff", "tests/golden/optimize-csv-json.out"),
    ],
    ids=["csv-chain", "json-chain", "strategy", "solution"],
)
def test_leading_byte_order_mark_is_skipped(name, marked, tmp_path, capsys):
    # golden command ``name`` reads the file ``marked`` from a copy that
    # starts with a UTF-8 byte-order mark; the stored solution is the golden
    # JSON of the fixture's optimize
    copy = tmp_path / Path(marked).name
    copy.write_bytes(codecs.BOM_UTF8 + (FIXTURES.parent / marked).read_bytes())
    argv = [copy if a == str(FIXTURES.parent / marked) else a for a in golden_argv(name)]
    if name == "payoff":
        argv += ["--solution", copy]
    assert invoke(*argv) == 0
    assert capsys.readouterr() == ((GOLDEN / f"{name}.out").read_text(), "")


class TestSpecErrors:
    def check(self, chain_path, spec_path, capsys, fragment):
        assert invoke("optimize", "--chain", chain_path, "--spec", spec_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:spec:")
        assert fragment in err

    def test_unknown_key(self, chain_path, make_spec, capsys):
        self.check(chain_path, make_spec(surprise=1), capsys, "unknown key 'surprise'")

    def test_missing_key(self, chain_path, make_spec, capsys):
        self.check(chain_path, make_spec(n=...), capsys, "missing key 'n'")

    def test_inflection_not_a_strike(self, chain_path, make_spec, capsys):
        self.check(chain_path, make_spec(inflection=105), capsys, "not among strikes")

    def test_inflection_not_a_strike_stops_before_the_proofs(
        self, chain_path, make_spec, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("a spec error runs no proof")

        monkeypatch.setattr("payoffopt.optimizer.unreachable_row", refuse)
        monkeypatch.setattr("payoffopt.optimizer.off_lattice_rows", refuse)
        spec = make_spec(inflection=105)
        assert invoke("optimize", "--chain", chain_path, "--spec", spec) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:spec:inflection-not-in-K: 105 ")

    def test_bad_cost_comparator(self, chain_path, make_spec, capsys):
        spec = make_spec(cost_target={"cmp": "!=", "value": "1.00"})
        self.check(chain_path, spec, capsys, "bad cost_target cmp")

    def test_bad_money_value(self, chain_path, make_spec, capsys):
        self.check(chain_path, make_spec(max_loss="5.001"), capsys, "bad max_loss")

    def test_series_length_not_positive(self, chain_path, make_spec, capsys):
        # a fault of the strategy, not of the chain it selects from
        assert invoke("optimize", "--chain", chain_path, "--spec", make_spec(n=0)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:spec:n must be positive: 0\n"

    def test_non_ascii_digit_in_money(self, chain_path, make_spec, capsys):
        spec = make_spec(epsilon="\u00b2")
        assert invoke("optimize", "--chain", chain_path, "--spec", spec) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:spec:bad epsilon")
        assert len(captured.err.splitlines()) == 1

    def test_invalid_json(self, chain_path, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        self.check(chain_path, path, capsys, "invalid strategy JSON")

    def test_missing_file(self, chain_path, tmp_path, capsys):
        self.check(
            chain_path, tmp_path / "absent.json", capsys, "cannot read strategy"
        )

    def test_integer_past_the_digit_limit(self, chain_path, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer longer than
        # Python's int-string limit (4300 digits), not a JSONDecodeError
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC).replace('"n": 2', '"n": ' + "9" * 5000))
        assert invoke("optimize", "--chain", chain_path, "--spec", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:spec:invalid strategy JSON")
        assert len(captured.err.splitlines()) == 1

    def test_repeated_key(self, chain_path, tmp_path, capsys):
        # json.loads alone would keep the last value and solve for ±1000
        path = tmp_path / "spec.json"
        text = json.dumps(SPEC).replace('"upper": 3', '"upper": 3, "upper": 1000')
        path.write_text(text)
        assert invoke("optimize", "--chain", chain_path, "--spec", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error:spec:invalid strategy JSON: repeated key 'upper'\n"
        )

    def test_undecodable_file(self, chain_path, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(b'{"tail_loss_mode": "pnl\xe9"}')
        assert invoke("optimize", "--chain", chain_path, "--spec", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:spec:")
        assert "not UTF-8" in captured.err
        assert len(captured.err.splitlines()) == 1


class TestLoadRunConfig:
    def test_happy_path(self):
        config = load_run_config(dict(SPEC))
        assert config.strategy.expected_price == 10500
        assert config.strategy.max_loss == -500
        assert config.strategy.epsilon == 1
        assert config.strategy.tail_loss_mode is TailLossMode.PNL
        assert config.strategy.cost_target is None
        assert (config.call_anchor, config.put_anchor, config.n) == (100, 90, 2)

    def test_cost_target_defaults(self):
        config = load_run_config({**SPEC, "cost_target": {"value": "2.00"}})
        target = config.strategy.cost_target
        assert target.comparator is Relation.EQ
        assert target.value == 200

    def test_credit_convention_negates(self):
        raw = {"cmp": "<=", "value": "2.00", "convention": "credit"}
        config = load_run_config({**SPEC, "cost_target": raw})
        assert config.strategy.cost_target.comparator is Relation.LE
        assert config.strategy.cost_target.value == -200

    def test_payoff_only_mode(self):
        config = load_run_config({**SPEC, "tail_loss_mode": "payoff_only"})
        assert config.strategy.tail_loss_mode is TailLossMode.PAYOFF_ONLY

    @pytest.mark.parametrize(
        "value, detail",
        [
            (0.1 + 0.2, "more than two decimal places: 0.30000000000000004"),
            (1e400, "not a money amount: inf"),
            ("-5.001", "more than two decimal places: '-5.001'"),
        ],
    )
    def test_money_errors_show_floats_bare(self, value, detail):
        # a JSON number reaches the reader as a float, 1e400 as inf
        with pytest.raises(SpecError) as err:
            load_run_config({**SPEC, "max_loss": value})
        assert str(err.value) == f"bad max_loss: {detail}"

    def test_not_an_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            load_run_config([1, 2])

    def test_bool_rejected_for_int_fields(self):
        with pytest.raises(SpecError, match="must be an integer"):
            load_run_config({**SPEC, "n": True})

    @pytest.mark.parametrize("key", ["balance_left_tail", "balance_right_tail"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1])
    def test_non_bool_tail_flag_rejected(self, key, value):
        with pytest.raises(SpecError, match=f"{key} must be a boolean"):
            load_run_config({**SPEC, key: value})

    @pytest.mark.parametrize("key", ["balance_left_tail", "balance_right_tail"])
    def test_false_tail_flag_accepted(self, key):
        config = load_run_config({**SPEC, key: False})
        assert getattr(config.strategy, key) is False

    def test_cost_target_extra_key(self):
        with pytest.raises(SpecError, match="unknown cost_target key"):
            load_run_config({**SPEC, "cost_target": {"value": "1.00", "x": 1}})

    def test_cost_target_needs_value(self):
        with pytest.raises(SpecError, match="needs a value"):
            load_run_config({**SPEC, "cost_target": {"cmp": "="}})

    def test_bad_convention(self):
        raw = {"value": "1.00", "convention": "net"}
        with pytest.raises(SpecError, match="bad cost_target convention"):
            load_run_config({**SPEC, "cost_target": raw})

    def test_bad_tail_mode(self):
        with pytest.raises(SpecError, match="bad tail_loss_mode"):
            load_run_config({**SPEC, "tail_loss_mode": "gross"})

    # each fault the loader reports first, then the repair that uncovers the
    # next one: (message, key, new value, or ... to drop the key)
    FAULT_ORDER = [
        ("unknown key 'extra'", "extra", ...),
        ("missing key 'expected_price'", "expected_price", "x"),
        ("missing key 'inflection'", "inflection", "100"),
        ("missing key 'max_loss'", "max_loss", "1.234"),
        ("missing key 'lower'", "lower", True),
        ("missing key 'upper'", "upper", 1.5),
        ("missing key 'n'", "n", "2"),
        ("missing key 'call_anchor'", "call_anchor", "100"),
        ("missing key 'put_anchor'", "put_anchor", None),
        ("bad cost_target cmp: '<'", "cost_target", {"value": "1.00", "x": 1}),
        ("unknown cost_target key 'x'", "cost_target", None),
        ("bad tail_loss_mode: 'gross'", "tail_loss_mode", "pnl"),
        ("bad expected_price: not a money amount: 'x'", "expected_price", "-1.00"),
        ("inflection must be an integer: '100'", "inflection", 0),
        ("bad max_loss: more than two decimal places: '1.234'", "max_loss", "-5.00"),
        ("lower must be an integer: True", "lower", -3),
        ("upper must be an integer: 1.5", "upper", -1),
        ("bad epsilon: not a money amount: 'x'", "epsilon", "0.00"),
        ("balance_left_tail must be a boolean: 'false'", "balance_left_tail", False),
        ("balance_right_tail must be a boolean: 0", "balance_right_tail", False),
        ("expected price must be positive: -100", "expected_price", "105.00"),
        ("inflection must be a positive strike: 0", "inflection", 100),
        ("bounds must straddle zero: lower -3, upper -1", "upper", 3),
        ("epsilon must be positive: 0", "epsilon", "0.01"),
        ("call_anchor must be an integer: '100'", "call_anchor", 100),
        ("put_anchor must be an integer: None", "put_anchor", 90),
        ("n must be an integer: '2'", "n", 0),
        ("n must be positive: 0", "n", 2),
    ]

    def test_faults_are_reported_in_a_fixed_order(self):
        data = {
            "extra": 1,
            "cost_target": {"cmp": "<", "value": "1.00"},
            "tail_loss_mode": "gross",
            "epsilon": "x",
            "balance_left_tail": "false",
            "balance_right_tail": 0,
        }
        reported = []
        for _, key, repair in self.FAULT_ORDER:
            with pytest.raises(SpecError) as info:
                load_run_config(data)
            reported.append(str(info.value))
            if repair is ...:
                del data[key]
            else:
                data[key] = repair
        assert reported == [message for message, _, _ in self.FAULT_ORDER]
        assert load_run_config(data) == load_run_config({**SPEC, "epsilon": "0.01"})


class TestChainErrors:
    def test_missing_chain_file(self, tmp_path, make_spec, capsys):
        code = invoke(
            "optimize", "--chain", tmp_path / "nope.csv", "--spec", make_spec()
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:chain:cannot read chain")

    def test_malformed_record(self, tmp_path, make_spec, capsys):
        path = tmp_path / "chain.csv"
        path.write_text(CHAIN_CSV.replace("100,call,4.00,4.20,120", "100,call,x"))
        assert invoke("optimize", "--chain", path, "--spec", make_spec()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:chain:")
        assert "row 4" in err

    @pytest.mark.parametrize(
        "content",
        [
            CHAIN_CSV.replace("underlying=99.50", "underlying=8067.6\u00b2").encode(),
            CHAIN_CSV.replace("call,4.00", "call,4.\u00e9").encode("latin-1"),
        ],
        ids=["non-ascii-digit", "not-utf8"],
    )
    def test_undecodable_chain_is_a_chain_error(self, tmp_path, content, capsys):
        path = tmp_path / "chain.csv"
        path.write_bytes(content)
        assert invoke("validate", "--chain", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:chain:")
        assert len(captured.err.splitlines()) == 1

    def test_json_integer_past_the_digit_limit(self, tmp_path, capsys):
        text = (FIXTURES / "chain.json").read_text()
        assert '"volume": 214' in text
        path = tmp_path / "chain.json"
        path.write_text(text.replace('"volume": 214', '"volume": ' + "9" * 5000))
        assert invoke("validate", "--chain", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:chain:invalid JSON")
        assert len(captured.err.splitlines()) == 1

    def test_repeated_csv_header(self, tmp_path, capsys):
        path = tmp_path / "chain.csv"
        path.write_text("underlying=101.00\n" + CHAIN_CSV)
        assert invoke("validate", "--chain", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:chain:row 2: repeated header 'underlying'\n"

    def test_repeated_json_key(self, tmp_path, capsys):
        text = (FIXTURES / "chain.json").read_text()
        assert '"volume": 214' in text
        path = tmp_path / "chain.json"
        path.write_text(text.replace('"volume": 214', '"volume": 214, "volume": 215'))
        assert invoke("validate", "--chain", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:chain:invalid JSON: repeated key 'volume'\n"

    def test_json_date_that_is_a_number(self, tmp_path, capsys):
        text = (FIXTURES / "chain.json").read_text()
        assert '"valuation_date": "2011-11-04"' in text
        path = tmp_path / "chain.json"
        path.write_text(text.replace('"2011-11-04"', "20111104"))
        assert invoke("validate", "--chain", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:chain:bad valuation date: 20111104\n"

    @pytest.mark.parametrize("command", ["validate", "optimize"])
    @pytest.mark.parametrize("name", ["chain.csv", "chain.json"])
    def test_underlying_price_not_positive(
        self, tmp_path, make_spec, name, command, capsys
    ):
        if name == "chain.csv":
            text = CHAIN_CSV.replace("underlying=99.50", "underlying=0.00")
        else:
            text = chain_to_json(parse_chain(CHAIN_CSV))
            text = text.replace('"underlying_price": "99.50"', '"underlying_price": "0"')
        path = tmp_path / name
        path.write_text(text)
        args = ["--spec", make_spec()] if command == "optimize" else []
        assert invoke(command, "--chain", path, *args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:chain:underlying price must be positive: 0.00\n"

    def test_unknown_anchor(self, chain_path, make_spec, capsys):
        spec = make_spec(call_anchor=105)
        assert invoke("optimize", "--chain", chain_path, "--spec", spec) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:chain:")
        assert "105" in err


class TestValidateCommand:
    def test_clean_chain(self, chain_path, capsys):
        assert invoke("validate", "--chain", chain_path) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_crossed_quote(self, tmp_path, capsys):
        path = tmp_path / "chain.csv"
        path.write_text(CHAIN_CSV.replace("90,put,0.80,0.90,60", "90,put,0.95,0.90,60"))
        assert invoke("validate", "--chain", path) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "error:validation:1 violations"
        assert "crossed" in captured.out

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "chain.csv"
        path.write_text(CHAIN_CSV.replace("90,put,0.80,0.90,60", "90,put,0.95,0.90,60"))
        out = tmp_path / "report.txt"
        assert invoke("validate", "--chain", path, "-o", out) == 2
        assert "crossed" in out.read_text()
        assert capsys.readouterr().out == ""

    def test_unwritable_output_is_an_args_error(self, chain_path, tmp_path, capsys):
        out = tmp_path / "missing" / "report.txt"
        assert invoke("validate", "--chain", chain_path, "-o", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error:args:cannot write {out}")
        assert len(captured.err.splitlines()) == 1


class TestPayoffCommand:
    def test_direct_curve(self, chain_path, make_spec, capsys):
        assert invoke("payoff", "--chain", chain_path, "--spec", make_spec()) == 0
        assert capsys.readouterr().out == EXPECTED_CURVE

    def test_direct_curve_is_the_one_optimize_attached(
        self, chain_path, make_spec, monkeypatch, capsys
    ):
        def again(portfolio):
            raise AssertionError("payoff curve evaluated twice")

        monkeypatch.setattr("payoffopt.cli.payoff_curve", again)
        assert invoke("payoff", "--chain", chain_path, "--spec", make_spec()) == 0
        assert capsys.readouterr().out == EXPECTED_CURVE

    def test_stored_solution_round_trip(self, chain_path, make_spec, tmp_path, capsys):
        spec = make_spec()
        stored = tmp_path / "solution.json"
        code = invoke(
            "optimize", "--chain", chain_path, "--spec", spec,
            "--format", "json", "-o", stored,
        )
        assert code == 0
        code = invoke(
            "payoff", "--chain", chain_path, "--spec", spec, "--solution", stored
        )
        assert code == 0
        assert capsys.readouterr().out == EXPECTED_CURVE

    def test_stored_solution_with_scan_counters(
        self, chain_path, make_spec, tmp_path, capsys
    ):
        # keys the reader does not use are ignored
        stored = tmp_path / "solution.json"
        stored.write_text(json.dumps({
            "combination": "1010",
            "combos_infeasible": 9,
            "combos_solved": 7,
            "initial_cost": "0.90",
            "objective": "14.10",
            "quantities": {
                "call": {"100": 3, "110": -3},
                "put": {"90": 3, "100": -3},
            },
            "total_contracts": 12,
        }))
        code = invoke(
            "payoff", "--chain", chain_path, "--spec", make_spec(),
            "--solution", stored,
        )
        assert code == 0
        assert capsys.readouterr().out == EXPECTED_CURVE

    def test_bad_solution_file(self, chain_path, make_spec, tmp_path, capsys):
        stored = tmp_path / "solution.json"
        stored.write_text("{]")
        code = invoke(
            "payoff", "--chain", chain_path, "--spec", make_spec(),
            "--solution", stored,
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:args:invalid solution JSON")

    def test_solution_integer_past_the_digit_limit(
        self, chain_path, make_spec, tmp_path, capsys
    ):
        stored = tmp_path / "solution.json"
        stored.write_text(
            '{"combination": "1010", "quantities": {"call": {"100": '
            + "9" * 5000
            + ', "110": -3}, "put": {"90": 3, "100": -3}}}'
        )
        code = invoke(
            "payoff", "--chain", chain_path, "--spec", make_spec(),
            "--solution", stored,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:args:invalid solution JSON")
        assert len(captured.err.splitlines()) == 1

    def test_repeated_solution_key(self, chain_path, make_spec, tmp_path, capsys):
        stored = tmp_path / "solution.json"
        stored.write_text(
            '{"combination": "1010", "quantities": {"call": {"100": 3, "110": -3},'
            ' "put": {"90": 3, "100": -3, "90": 0}}}'
        )
        code = invoke(
            "payoff", "--chain", chain_path, "--spec", make_spec(),
            "--solution", stored,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:args:invalid solution JSON: repeated key '90'\n"

    def test_undecodable_solution_file(
        self, chain_path, make_spec, tmp_path, capsys
    ):
        stored = tmp_path / "solution.json"
        stored.write_bytes(b'{"combination": "1\xe90"}')
        code = invoke(
            "payoff", "--chain", chain_path, "--spec", make_spec(),
            "--solution", stored,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error:args:solution {stored} ")
        assert "not UTF-8" in captured.err
        assert len(captured.err.splitlines()) == 1

    STORED = {
        "combination": "1010",
        "quantities": {
            "call": {"100": 3, "110": -3},
            "put": {"90": 3, "100": -3},
        },
    }

    @pytest.mark.parametrize(
        "document, fragment",
        [
            ([STORED], "must be a JSON object"),
            ("1010", "must be a JSON object"),
            ({"combination": "1010"}, "missing 'quantities'"),
            ({**STORED, "quantities": [3, -3]}, "call quantities must be an object"),
            (
                {**STORED, "quantities": {"call": [3, -3], "put": {}}},
                "call quantities must be an object",
            ),
            (
                {**STORED, "quantities": {**STORED["quantities"], "call": {"100": 3}}},
                "call strikes",
            ),
            (
                {
                    **STORED,
                    "quantities": {
                        **STORED["quantities"],
                        "put": {"90": 3, "100": -3, "110": 0},
                    },
                },
                "put strikes",
            ),
            (
                {
                    **STORED,
                    "quantities": {
                        **STORED["quantities"],
                        "call": {"100": 4.7, "110": -3},
                    },
                },
                "must be an integer: 4.7",
            ),
            (
                {
                    **STORED,
                    "quantities": {
                        **STORED["quantities"],
                        "put": {"90": True, "100": -3},
                    },
                },
                "must be an integer: True",
            ),
            (
                {
                    **STORED,
                    "quantities": {
                        **STORED["quantities"],
                        "call": {"100": "3", "110": -3},
                    },
                },
                "must be an integer: '3'",
            ),
            ({**STORED, "combination": 1010}, "does not fit"),
            ({**STORED, "combination": "1 10"}, "does not fit"),
        ],
        ids=[
            "top-level-array",
            "top-level-string",
            "no-quantities",
            "quantities-array",
            "leg-array",
            "missing-strike",
            "extra-strike",
            "fractional-quantity",
            "bool-quantity",
            "string-quantity",
            "numeric-combination",
            "non-binary-combination",
        ],
    )
    def test_malformed_solution_is_an_args_error(
        self, chain_path, make_spec, tmp_path, capsys, document, fragment
    ):
        stored = tmp_path / "solution.json"
        stored.write_text(json.dumps(document))
        code = invoke(
            "payoff", "--chain", chain_path, "--spec", make_spec(),
            "--solution", stored,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:args:")
        assert fragment in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_missing_solution_file(self, chain_path, make_spec, tmp_path, capsys):
        code = invoke(
            "payoff", "--chain", chain_path, "--spec", make_spec(),
            "--solution", tmp_path / "absent.json",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:args:cannot read solution")


class TestSweepCommand:
    def test_liquidity_csv(self, chain_path, make_spec, capsys):
        code = invoke(
            "sweep", "--chain", chain_path, "--spec", make_spec(),
            "--axis", "liquidity", "--values", "2,1", "--format", "csv",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("value,strike,call,put\n")
        assert "1,max_F,4.7,\n" in out
        assert "2,max_F,9.4,\n" in out

    def test_cost_json(self, chain_path, make_spec, capsys):
        code = invoke(
            "sweep", "--chain", chain_path, "--spec", make_spec(),
            "--axis", "cost", "--values", "0.60,1.20", "--format", "json",
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["axis"] == "cost"
        assert [p["value"] for p in data["points"]] == ["0.60", "1.20"]
        assert data["points"][0]["solution"]["objective"] == "9.40"
        assert data["points"][1]["solution"] is None

    def test_unrepresentable_bounds_fail_only_their_points(self, capsys):
        spec = FIXTURES / "spec.json"
        values = f"10,{10**15},{10**400}"
        outputs = {}
        for fmt in ("json", "csv", "table"):
            code = invoke(
                "sweep", "--chain", FIXTURES / "chain.csv", "--spec", spec,
                "--axis", "liquidity", "--values", values, "--format", fmt,
            )
            assert code == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs[fmt] = captured.out
        points = json.loads(outputs["json"])["points"]
        assert points[0]["solution"]["objective"] == "400.00"
        assert [p["solution"] for p in points[1:]] == [None, None]
        assert points[1]["error"] == "MILP backend failed (status 2): Model error"
        assert points[2]["error"].startswith("program exceeds floating point")
        csv_rows = outputs["csv"].splitlines()
        assert "10,max_F,400," in csv_rows
        for p in points[1:]:
            assert f"{p['value']},error,{p['error']}," in csv_rows
        # a failed point's column reads error, as in the CSV and JSON forms
        footer = outputs["table"].splitlines()[-2].split()
        assert footer == ["max", "F", "400", "error", "error"]

    def test_defect_in_one_point_keeps_the_report(self, monkeypatch, capsys):
        real = payoffopt.optimizer.optimize

        def broken(spec, series):
            if spec.upper == 50:
                raise AssertionError("pnl identity\nbroken")
            return real(spec, series)

        monkeypatch.setattr("payoffopt.optimizer.optimize", broken)
        code = invoke(
            "sweep", "--chain", FIXTURES / "chain.csv", "--spec", FIXTURES / "spec.json",
            "--axis", "liquidity", "--values", "10,50,100", "--format", "csv",
        )
        captured = capsys.readouterr()
        # a defect is never success, but the points that solved still print
        assert code == 5
        assert captured.err == "error:internal:AssertionError: pnl identity broken\n"
        golden = (GOLDEN / "sweep-liquidity-csv.out").read_text().splitlines()
        rows = captured.out.splitlines()
        assert [r for r in rows if not r.startswith("50,")] == [
            r for r in golden if not r.startswith("50,")
        ]
        assert [r for r in rows if r.startswith("50,")] == [
            "50,error,internal:AssertionError: pnl identity broken,"
        ]

    def test_negative_first_cost_needs_equals_form(self, chain_path, make_spec, capsys):
        # argparse reads a separate "-1.00,..." as an option, not a value
        args = ("sweep", "--chain", chain_path, "--spec", make_spec(), "--axis", "cost")
        assert invoke(*args, "--values", "-1.00,0.60") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--values: expected one argument" in captured.err
        assert invoke(*args, "--values=-1.00,0.60", "--format", "json") == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [p["value"] for p in points] == ["-1.00", "0.60"]

    def test_table_default(self, chain_path, make_spec, capsys):
        code = invoke(
            "sweep", "--chain", chain_path, "--spec", make_spec(),
            "--axis", "liquidity", "--values", "1,2",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "|L|=1" in out and "|L|=2" in out

    def test_bad_liquidity_value(self, chain_path, make_spec, capsys):
        spec = make_spec()
        # zero, negative, other scripts' digits, underscores, signs, fractions
        # and a number beyond Python's int-string digit limit
        for values in (
            "0", "-5", "\u0661\u0660,1_0", "1_0", "+5", "\u00b2", "2.5", "9" * 5000,
        ):
            code = invoke(
                "sweep", "--chain", chain_path, "--spec", spec,
                "--axis", "liquidity", "--values", values,
            )
            assert code == 2, values
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:args:"), values
            assert len(captured.err.splitlines()) == 1

    def test_bad_cost_value(self, chain_path, make_spec, capsys):
        code = invoke(
            "sweep", "--chain", chain_path, "--spec", make_spec(),
            "--axis", "cost", "--values", "1.2.3",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:args:bad cost value")

    def test_empty_values(self, chain_path, make_spec, capsys):
        code = invoke(
            "sweep", "--chain", chain_path, "--spec", make_spec(),
            "--axis", "cost", "--values", ",",
        )
        assert code == 2
        assert "no values" in capsys.readouterr().err


# argument lists for every command, with help, errors and "--" among them;
# the names are placeholders, no file is read
ARGV = [
    ["optimize", "--chain", "c.csv", "--spec", "s.json"],
    ["optimize", "--chain", "c.csv", "--spec", "s.json", "--format", "json", "-o", "o"],
    ["optimize", "--chain=c.csv", "--spec=s.json", "--format=csv"],
    ["optimize", "--ch", "c.csv", "--sp", "s.json"],
    ["sweep", "--chain", "c", "--spec", "s", "--axis", "cost", "--values=-1.00,2"],
    ["sweep", "--chain", "c", "--spec", "s", "--axis", "liquidity", "--values", "1"],
    ["payoff", "--chain", "c", "--spec", "s", "--solution", "x.json"],
    ["payoff", "--chain", "c", "--spec", "s"],
    ["validate", "--chain", "c"],
    [],
    ["-h"],
    ["--help"],
    ["optimize", "-h"],
    ["sweep", "--help"],
    ["validate", "-h", "extra"],
    ["frobnicate"],
    ["frobnicate", "--chain", "c"],
    ["-x"],
    ["--chain", "c", "optimize"],
    ["optimize"],
    ["optimize", "--bogus"],
    ["optimize", "--chain", "c", "--spec", "s", "--bogus", "1"],
    ["optimize", "--chain", "c"],
    ["optimize", "--chain"],
    ["sweep", "--chain", "c", "--spec", "s", "--values", "1"],
    ["sweep", "--chain", "c", "--spec", "s", "--axis", "time", "--values", "1"],
    ["optimize", "--chain", "c", "--spec", "s", "--format", "xml"],
    ["optimize", "--chain", "c", "--spec", "s", "extra"],
    ["validate", "--chain", "c", "extra", "more"],
    ["validate", "--chain", "c", "-o"],
    ["optimize", "--chain", "c", "--spec", "s", "--"],
    ["optimize", "--", "--chain", "c", "--spec", "s"],
    ["optimize", "--chain", "c", "--", "--spec", "s"],
    ["--", "optimize", "--chain", "c", "--spec", "s"],
    ["validate", "--chain", "c", "--", "extra"],
]


class TestArgumentParsing:
    def test_subcommand_required(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_parsing_matches_argparse_alone(self, argv, capsys):
        # run parses a known command with that command's subparser alone;
        # the namespace, or the exit code and output, are the full parser's
        def outcome(parse):
            try:
                parsed = vars(parse(list(argv)))
            except SystemExit as exc:
                parsed = exc.code
            return parsed, *capsys.readouterr()

        expected = outcome(_parsers()[0].parse_args)
        assert outcome(_parse_args) == expected
        if not isinstance(expected[0], dict):  # an exit: help or an error
            assert (run(argv), *capsys.readouterr()) == expected

    def test_parser_is_built_once(self):
        assert _parsers() is _parsers()

    def test_bad_arguments_leave_the_next_run_unchanged(
        self, chain_path, make_spec, capsys
    ):
        good = ("optimize", "--chain", chain_path, "--spec", make_spec(), "--format", "json")
        _parsers.cache_clear()
        alone = (invoke(*good), *capsys.readouterr())
        assert alone[0] == 0 and alone[1]
        assert invoke("optimize", "--chain", chain_path, "--format", "xml") == 2
        capsys.readouterr()
        assert (invoke(*good), *capsys.readouterr()) == alone

    def test_unknown_format(self, chain_path, make_spec, capsys):
        code = invoke(
            "optimize", "--chain", chain_path, "--spec", make_spec(),
            "--format", "xml",
        )
        assert code == 2
        capsys.readouterr()



def test_package_exports_the_readme_library_list():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(payoffopt.__all__)
    assert all(hasattr(payoffopt, name) for name in listed)


TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


class TestTracerContract:
    """``benchmark/tracing.py`` times layers by replacing module attributes,
    so the names it wraps must exist and be looked up at call time."""

    @pytest.fixture(scope="class")
    def tracing(self):
        # executed from its source text, so nothing is written beside it
        module = types.ModuleType("benchmark_tracing")
        exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
        return module

    def test_every_wrapped_name_resolves(self, tracing):
        assert tracing.WRAPPED
        for module_name, names in tracing.WRAPPED.items():
            module = importlib.import_module(module_name)
            for name in names:
                assert callable(getattr(module, name, None)), (module_name, name)

    def test_wrapped_names_are_looked_up_at_call_time(
        self, tracing, monkeypatch, capsys
    ):
        calls = []

        def counting(label, fn):
            def wrapper(*args, **kwargs):
                calls.append((label, kwargs))
                return fn(*args, **kwargs)

            return wrapper

        for module_name, names in tracing.WRAPPED.items():
            module = importlib.import_module(module_name)
            for name in names:
                label = f"{module_name}.{name}"
                monkeypatch.setattr(module, name, counting(label, getattr(module, name)))
        assert invoke(*FIXTURE_OPTIMIZE, "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["objective"] == "400.00"
        # optimize refines the quantities on the combined program, so it
        # builds no subproblem: optimizer.build_subproblem only resolves
        assert Counter(label for label, _ in calls) == {
            "payoffopt.cli.parse_chain": 1,
            "payoffopt.cli.select_series": 1,
            "payoffopt.cli.optimize": 1,
            "payoffopt.cli.solution_to_json": 1,
            "payoffopt.optimizer.solve_ilp": 1,
            "payoffopt.optimizer.payoff_curve": 1,
        }
        # solve_ilp takes no keyword; the tracer reads its missing ``refine``
        # as a refining solve, so a traced run books the first solve under
        # ilp_solver.refine_s
        solve = [kw for label, kw in calls if label.endswith(".solve_ilp")]
        assert solve == [{}]
