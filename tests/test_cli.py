import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from scipy.optimize import OptimizeResult

import payoffopt
import payoffopt.ilp_solver
from conftest import FIXTURES
from payoffopt import Relation, SpecError, TailLossMode
from payoffopt.cli import CliError, _build_parser, load_run_config, run
from support import count_solver_calls

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
        spec = make_spec(balance_left_tail=True, balance_right_tail=True)
        assert invoke("optimize", "--chain", chain_path, "--spec", spec) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:infeasible:no feasible portfolio")
        assert "constraints attempted" in err
        for name in ("tail_calls", "tail_puts", "balance_left", "positivity"):
            assert name in err

    def fail_every_milp(self, monkeypatch, status):
        """Make every MILP with integrality end with this HiGHS status (the
        root LP runs for real); returns the options of each such call."""
        real_milp = payoffopt.ilp_solver.milp
        seen = []

        def failing_milp(*args, integrality=None, options=None, **kwargs):
            if integrality is None:
                return real_milp(*args, **kwargs)
            seen.append(options)
            return OptimizeResult(status=status, x=None, message="fake")

        monkeypatch.setattr(payoffopt.ilp_solver, "milp", failing_milp)
        return seen

    def check_solver_failure(self, chain_path, make_spec, capsys, code, message):
        assert invoke("optimize", "--chain", chain_path, "--spec", make_spec()) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error:solver:{message}")

    def test_numerical_failure_exit(self, chain_path, make_spec, monkeypatch, capsys):
        seen = self.fail_every_milp(monkeypatch, 4)
        self.check_solver_failure(
            chain_path, make_spec, capsys, 4, "MILP backend failed (status 4)"
        )
        # a "Solve error" is retried once with presolve off
        assert [o.get("presolve", True) for o in seen] == [True, False]

    def test_node_limit_exit(self, chain_path, make_spec, monkeypatch, capsys):
        seen = self.fail_every_milp(monkeypatch, 1)
        self.check_solver_failure(
            chain_path, make_spec, capsys, 3, "node budget of 10000000 exhausted"
        )
        assert [o["node_limit"] for o in seen] == [payoffopt.ilp_solver.NODE_BUDGET]


FIXTURE_OPTIMIZE = (
    "optimize", "--chain", FIXTURES / "chain.csv", "--spec", FIXTURES / "spec.json",
)


class TestFixtureCommand:
    def test_feasible_run_writes_nothing_unasked(self, capfd):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert invoke(*FIXTURE_OPTIMIZE) == 0
        out, err = capfd.readouterr()
        assert "max F" in out
        assert err == ""
        assert caught == []

    def test_solves_its_root_lp_without_linprog(self, monkeypatch, capsys):
        # the root LP is a milp call without integrality; ilp_solver does
        # not import linprog at all
        assert not hasattr(payoffopt.ilp_solver, "linprog")
        calls = count_solver_calls(monkeypatch)
        assert invoke(*FIXTURE_OPTIMIZE, "--format", "json") == 0
        capsys.readouterr()
        assert calls["root_lp"] == 1

    @pytest.mark.parametrize("module", ["payoffopt", "payoffopt.cli"])
    def test_python_dash_m_matches_run(self, module, capsys):
        expected_code = invoke(*FIXTURE_OPTIMIZE, "--format", "json")
        expected_out = capsys.readouterr().out
        src = str(Path(payoffopt.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        completed = subprocess.run(
            [sys.executable, "-m", module, *map(str, FIXTURE_OPTIMIZE), "--format", "json"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert (completed.returncode, completed.stdout) == (expected_code, expected_out)
        assert expected_code == 0 and expected_out
        assert completed.stderr == ""


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

    def test_bad_cost_comparator(self, chain_path, make_spec, capsys):
        spec = make_spec(cost_target={"cmp": "!=", "value": "1.00"})
        self.check(chain_path, spec, capsys, "bad cost_target cmp")

    def test_bad_money_value(self, chain_path, make_spec, capsys):
        self.check(chain_path, make_spec(max_loss="5.001"), capsys, "bad max_loss")

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


class TestPayoffCommand:
    def test_direct_curve(self, chain_path, make_spec, capsys):
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
        # documents written before the single-program optimizer carry the
        # counters of the per-combination scan
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
        assert captured.err.startswith("error:args:solution is not UTF-8")
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

    def test_table_default(self, chain_path, make_spec, capsys):
        code = invoke(
            "sweep", "--chain", chain_path, "--spec", make_spec(),
            "--axis", "liquidity", "--values", "1,2",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "|L|=1" in out and "|L|=2" in out

    def test_bad_liquidity_value(self, chain_path, make_spec, capsys):
        code = invoke(
            "sweep", "--chain", chain_path, "--spec", make_spec(),
            "--axis", "liquidity", "--values", "0",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:args:")

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


class TestArgumentParsing:
    def test_subcommand_required(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_bad_arguments_leave_the_next_run_unchanged(
        self, chain_path, make_spec, capsys
    ):
        good = ("optimize", "--chain", chain_path, "--spec", make_spec(), "--format", "json")
        _build_parser.cache_clear()
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

