"""Command-line driver.

Commands: ``optimize`` (best portfolio for a chain and strategy file, found
by one integer program over every ask/bid combination), ``sweep`` (repeat
over cost targets or liquidity bounds, one such program per value), ``payoff``
(payoff-curve CSV for a solved or stored portfolio), ``validate`` (quote
quality report). Exit codes: 0 success, 1 no feasible portfolio, 2 bad
input, 3 solver resource limit, 4 solver backend failure. All failures print
one machine-parseable ``error:<category>:<detail>`` line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .ilp_solver import SolverError, SolverResourceError
from .market_data import (
    MarketDataError,
    OptionChain,
    SeriesSelection,
    parse_chain,
    select_series,
    validate_chain,
)
from .model_builder import (
    CostTarget,
    PriceCombination,
    Relation,
    SpecError,
    StrategySpec,
    TailLossMode,
    build_subproblem,
)
from .money import MoneyError, parse_money
from .optimizer import (
    optimize,
    solution_from_dict,
    solution_to_csv,
    solution_to_json,
    solution_to_table,
    sweep_cost,
    sweep_liquidity,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_table,
)
from .payoff_engine import curve_to_csv, payoff_curve


class CliError(ValueError):
    """Bad command-line argument values (not covered by argparse itself)."""


@dataclass(frozen=True)
class CliConfig:
    command: str
    chain_path: Path
    spec_path: Path | None
    output_format: str
    output_path: Path | None
    axis: str | None = None
    values: str | None = None
    solution_path: Path | None = None


@dataclass(frozen=True)
class RunConfig:
    """A strategy file: the optimizer spec plus series selection inputs."""

    strategy: StrategySpec
    call_anchor: int
    put_anchor: int
    n: int


_SPEC_KEYS = {
    "expected_price",
    "inflection",
    "max_loss",
    "cost_target",
    "lower",
    "upper",
    "epsilon",
    "tail_loss_mode",
    "balance_left_tail",
    "balance_right_tail",
    "call_anchor",
    "put_anchor",
    "n",
}


def _spec_int(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key} must be an integer: {value!r}")
    return value


def _spec_bool(data: dict, key: str) -> bool:
    value = data.get(key, True)
    if not isinstance(value, bool):
        raise SpecError(f"{key} must be a boolean: {value!r}")
    return value


def _spec_money(data: dict, key: str) -> int:
    try:
        return parse_money(data[key])
    except MoneyError as exc:
        raise SpecError(f"bad {key}: {exc}") from exc


def load_run_config(data: dict) -> RunConfig:
    """Validate and convert a strategy JSON object."""
    if not isinstance(data, dict):
        raise SpecError("strategy file must hold a JSON object")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise SpecError(f"unknown key {sorted(unknown)[0]!r}")
    for key in ("expected_price", "inflection", "max_loss", "lower", "upper", "n"):
        if key not in data:
            raise SpecError(f"missing key {key!r}")
    for key in ("call_anchor", "put_anchor"):
        if key not in data:
            raise SpecError(f"missing key {key!r}")

    cost_target = None
    if data.get("cost_target") is not None:
        raw = data["cost_target"]
        if not isinstance(raw, dict):
            raise SpecError("cost_target must be an object")
        extra = set(raw) - {"cmp", "value", "convention"}
        if extra:
            raise SpecError(f"unknown cost_target key {sorted(extra)[0]!r}")
        try:
            comparator = Relation(raw.get("cmp", "="))
        except ValueError as exc:
            raise SpecError(f"bad cost_target cmp: {raw.get('cmp')!r}") from exc
        try:
            value = parse_money(raw["value"])
        except KeyError as exc:
            raise SpecError("cost_target needs a value") from exc
        except MoneyError as exc:
            raise SpecError(f"bad cost_target value: {exc}") from exc
        convention = raw.get("convention", "debit")
        if convention not in ("debit", "credit"):
            raise SpecError(f"bad cost_target convention: {convention!r}")
        if convention == "credit":
            value = -value
        cost_target = CostTarget(comparator=comparator, value=value)

    try:
        mode = TailLossMode(data.get("tail_loss_mode", "pnl"))
    except ValueError as exc:
        raise SpecError(f"bad tail_loss_mode: {data.get('tail_loss_mode')!r}") from exc

    strategy = StrategySpec(
        expected_price=_spec_money(data, "expected_price"),
        inflection=_spec_int(data, "inflection"),
        max_loss=_spec_money(data, "max_loss"),
        lower=_spec_int(data, "lower"),
        upper=_spec_int(data, "upper"),
        cost_target=cost_target,
        epsilon=_spec_money(data, "epsilon") if "epsilon" in data else 1,
        tail_loss_mode=mode,
        balance_left_tail=_spec_bool(data, "balance_left_tail"),
        balance_right_tail=_spec_bool(data, "balance_right_tail"),
    )
    return RunConfig(
        strategy=strategy,
        call_anchor=_spec_int(data, "call_anchor"),
        put_anchor=_spec_int(data, "put_anchor"),
        n=_spec_int(data, "n"),
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    :func:`run` call; ``parse_args`` does not change it."""
    parser = argparse.ArgumentParser(
        prog="payoffopt",
        description="Option portfolio construction with a prescribed payoff shape.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_spec: bool = True) -> None:
        p.add_argument("--chain", required=True, type=Path, help="chain CSV or JSON")
        if with_spec:
            p.add_argument("--spec", required=True, type=Path, help="strategy JSON")
        p.add_argument("--output", "-o", type=Path, help="write here, not stdout")

    p_opt = sub.add_parser("optimize", help="solve for the best portfolio")
    add_common(p_opt)
    p_opt.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )

    p_sweep = sub.add_parser("sweep", help="repeat over cost or liquidity values")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=("cost", "liquidity"), required=True)
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )
    p_sweep.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )

    p_payoff = sub.add_parser("payoff", help="emit payoff-curve CSV")
    add_common(p_payoff)
    p_payoff.add_argument(
        "--solution", type=Path, help="reuse a stored optimize --format json result"
    )

    p_val = sub.add_parser("validate", help="report quote-quality violations")
    add_common(p_val, with_spec=False)
    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    return CliConfig(
        command=args.command,
        chain_path=args.chain,
        spec_path=getattr(args, "spec", None),
        output_format=getattr(args, "format", "csv"),
        output_path=args.output,
        axis=getattr(args, "axis", None),
        values=getattr(args, "values", None),
        solution_path=getattr(args, "solution", None),
    )


def _load_chain(path: Path) -> OptionChain:
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise MarketDataError(f"cannot read chain {path}: {exc}") from exc
    return parse_chain(data, fmt)


def _load_run_config(path: Path) -> RunConfig:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise SpecError(f"cannot read strategy {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"strategy {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid strategy JSON: {exc}") from exc
    return load_run_config(data)


def _emit(config: CliConfig, text: str) -> None:
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        config.output_path.write_text(text)


def _infeasible_detail(spec: StrategySpec, series: SeriesSelection) -> str:
    problem = build_subproblem(
        spec, series, PriceCombination.from_index(series.n, 0)
    )
    names = ",".join(row.name for row in problem.rows)
    return f"no feasible portfolio; constraints attempted: {names}"


def _parse_values(config: CliConfig) -> list[int]:
    assert config.values is not None
    out = []
    for piece in config.values.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if config.axis == "cost":
            try:
                out.append(parse_money(piece))
            except MoneyError as exc:
                raise CliError(f"bad cost value {piece!r}: {exc}") from exc
        else:
            try:
                value = int(piece)
            except ValueError as exc:
                raise CliError(f"bad liquidity value {piece!r}") from exc
            if value <= 0:
                raise CliError(f"liquidity bound must be positive: {value}")
            out.append(value)
    if not out:
        raise CliError("no values given")
    return out


def _cmd_optimize(config: CliConfig) -> int:
    chain = _load_chain(config.chain_path)
    run = _load_run_config(config.spec_path)  # type: ignore[arg-type]
    series = select_series(chain, run.n, run.call_anchor, run.put_anchor)
    solution = optimize(run.strategy, series)
    if solution is None:
        print(
            f"error:infeasible:{_infeasible_detail(run.strategy, series)}",
            file=sys.stderr,
        )
        return 1
    if config.output_format == "json":
        _emit(config, solution_to_json(solution))
    elif config.output_format == "csv":
        _emit(config, solution_to_csv(solution))
    else:
        _emit(config, solution_to_table(solution))
    return 0


def _cmd_sweep(config: CliConfig) -> int:
    chain = _load_chain(config.chain_path)
    run = _load_run_config(config.spec_path)  # type: ignore[arg-type]
    series = select_series(chain, run.n, run.call_anchor, run.put_anchor)
    values = _parse_values(config)
    if config.axis == "cost":
        report = sweep_cost(run.strategy, series, values)
    else:
        report = sweep_liquidity(run.strategy, series, values)
    if config.output_format == "json":
        _emit(config, sweep_to_json(report))
    elif config.output_format == "csv":
        _emit(config, sweep_to_csv(report, series))
    else:
        _emit(config, sweep_to_table(report, series))
    return 0


def _cmd_payoff(config: CliConfig) -> int:
    chain = _load_chain(config.chain_path)
    run = _load_run_config(config.spec_path)  # type: ignore[arg-type]
    series = select_series(chain, run.n, run.call_anchor, run.put_anchor)
    if config.solution_path is not None:
        try:
            data = json.loads(config.solution_path.read_text())
        except OSError as exc:
            raise CliError(f"cannot read solution: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CliError(f"solution is not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid solution JSON: {exc}") from exc
        try:
            portfolio, _ = solution_from_dict(data, series)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    else:
        solution = optimize(run.strategy, series)
        if solution is None:
            print(
                f"error:infeasible:{_infeasible_detail(run.strategy, series)}",
                file=sys.stderr,
            )
            return 1
        portfolio = solution.portfolio
    _emit(config, curve_to_csv(payoff_curve(portfolio)))
    return 0


def _cmd_validate(config: CliConfig) -> int:
    chain = _load_chain(config.chain_path)
    report = validate_chain(chain)
    lines = [f"{v.kind}: {v.message}" for v in report]
    _emit(config, "\n".join(lines) + "\n" if lines else "")
    if report:
        print(f"error:validation:{len(report)} violations", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "payoff": _cmd_payoff,
    "validate": _cmd_validate,
}


def _fail(category: str, exc: BaseException, code: int) -> int:
    detail = " ".join(str(exc).split())
    print(f"error:{category}:{detail}", file=sys.stderr)
    return code


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, execute one command, return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = _config_from_args(args)
    try:
        return _COMMANDS[config.command](config)
    except SolverResourceError as exc:
        return _fail("solver", exc, 3)
    except SolverError as exc:
        return _fail("solver", exc, 4)
    except SpecError as exc:
        return _fail("spec", exc, 2)
    except MarketDataError as exc:
        return _fail("chain", exc, 2)
    except CliError as exc:
        return _fail("args", exc, 2)
    except MoneyError as exc:
        return _fail("args", exc, 2)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
