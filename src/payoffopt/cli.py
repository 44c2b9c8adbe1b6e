"""Command-line driver.

Commands: ``optimize`` (best portfolio for a chain and strategy file, found
by one integer program over every ask/bid combination), ``sweep`` (repeat
over cost targets or liquidity bounds, one such program per value), ``payoff``
(payoff-curve CSV for a solved or stored portfolio), ``validate`` (quote
quality report). Exit codes: 0 success, 1 no feasible portfolio, 2 bad
input, 3 solver resource limit, 4 solver backend failure, 5 internal error
(any other exception, a defect: ``error:internal:<Type>: <detail>``). All
failures print one machine-parseable ``error:<category>:<detail>`` line to
stderr. A failure in one sweep point is that point's ``error``; a defect
there still prints the whole report, then exits 5 with one such line.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence, TypeVar

from .ilp_solver import SolverError, SolverResourceError
from .market_data import (
    MarketDataError,
    OptionChain,
    SeriesSelection,
    parse_chain,
    select_series,
    unique_keys,
    validate_chain,
)
from .model_builder import (
    CostTarget,
    Relation,
    SpecError,
    StrategySpec,
    TailLossMode,
    build_subproblem,  # not called here; benchmark/tracing.py wraps this name
)
from .money import is_digits, parse_money
from .optimizer import (
    Infeasible,
    SweepAxis,
    optimize,
    solution_from_dict,
    solution_to_csv,
    solution_to_json,
    solution_to_table,
    sweep,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_table,
)
from .payoff_engine import curve_to_csv, payoff_curve


E = TypeVar("E", bound=Enum)


class CliError(ValueError):
    """Bad command-line argument values (not covered by argparse itself)."""


@dataclass(frozen=True)
class RunConfig:
    """A strategy file: the optimizer spec plus series selection inputs."""

    strategy: StrategySpec
    call_anchor: int
    put_anchor: int
    n: int


def _spec_int(value: object, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key} must be an integer: {value!r}")
    return value


def _spec_bool(value: object, key: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{key} must be a boolean: {value!r}")
    return value


def _spec_money(value: object, key: str) -> int:
    try:
        return parse_money(value)
    except ValueError as exc:
        raise SpecError(f"bad {key}: {exc}") from exc


def _spec_enum(kind: type[E], value: object, key: str) -> E:
    try:
        return kind(value)
    except ValueError as exc:
        raise SpecError(f"bad {key}: {value!r}") from exc


def _spec_cost_target(raw: object, key: str) -> CostTarget | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise SpecError(f"{key} must be an object")
    extra = set(raw) - {"cmp", "value", "convention"}
    if extra:
        raise SpecError(f"unknown {key} key {sorted(extra)[0]!r}")
    comparator = _spec_enum(Relation, raw.get("cmp", "="), f"{key} cmp")
    if "value" not in raw:
        raise SpecError(f"{key} needs a value")
    value = _spec_money(raw["value"], f"{key} value")
    convention = raw.get("convention", "debit")
    if convention not in ("debit", "credit"):
        raise SpecError(f"bad {key} convention: {convention!r}")
    return CostTarget(comparator, -value if convention == "credit" else value)


# StrategySpec field -> reader of its strategy-file value, in the order their
# faults are reported; a key the file leaves out takes StrategySpec's default
_SPEC_READERS = {
    "cost_target": _spec_cost_target,
    "tail_loss_mode": functools.partial(_spec_enum, TailLossMode),
    "expected_price": _spec_money,
    "inflection": _spec_int,
    "max_loss": _spec_money,
    "lower": _spec_int,
    "upper": _spec_int,
    "epsilon": _spec_money,
    "balance_left_tail": _spec_bool,
    "balance_right_tail": _spec_bool,
}
# the integer keys that select the series, read after the strategy
_SERIES_KEYS = ("call_anchor", "put_anchor", "n")
_REQUIRED_KEYS = (
    "expected_price", "inflection", "max_loss", "lower", "upper",
    "n", "call_anchor", "put_anchor",
)
_KNOWN_KEYS = frozenset(_SPEC_READERS).union(_SERIES_KEYS)


def load_run_config(data: object) -> RunConfig:
    """Validate and convert a strategy JSON object."""
    if not isinstance(data, dict):
        raise SpecError("strategy file must hold a JSON object")
    unknown = data.keys() - _KNOWN_KEYS
    if unknown:
        raise SpecError(f"unknown key {sorted(unknown)[0]!r}")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise SpecError(f"missing key {key!r}")
    fields = {
        key: read(data[key], key) for key, read in _SPEC_READERS.items() if key in data
    }
    run = RunConfig(
        strategy=StrategySpec(**fields),
        **{key: _spec_int(data[key], key) for key in _SERIES_KEYS},
    )
    if run.n <= 0:
        raise SpecError(f"n must be positive: {run.n}")
    return run


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each command's subparser, built once per
    process and shared by every :func:`run` call; parsing does not change
    them."""
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
        "--values",
        required=True,
        help="comma-separated parameter values; write --values=-1.00,... "
        "when the first value is negative",
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
    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the argument parser's ``parse_args`` parses it,
    with the same messages and exits.

    argparse hands everything after a command's name to that command's
    subparser, by ``parse_known_args``, and the top-level parser reports
    what the subparser leaves over. A known command goes to its subparser
    that way directly, which skips the top-level pass over ``argv``;
    anything else (no arguments, ``-h``, an unknown command) goes through
    the full parser.
    """
    parser, commands = _parsers()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extra = commands[argv[0]].parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _load_chain(path: Path) -> OptionChain:
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise MarketDataError(f"cannot read chain {path}: {exc}") from exc
    return parse_chain(data, fmt)


def _read_json(path: Path, what: str, error: type[Exception]) -> object:
    """The JSON document in the ``what`` file at ``path``; a file that cannot
    be read, decoded or parsed raises ``error``."""
    try:
        text = path.read_text(encoding="utf-8-sig")
        return json.loads(text, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8: {exc}") from exc
    except ValueError as exc:  # malformed, a repeated key, or too long an integer
        raise error(f"invalid {what} JSON: {exc}") from exc


def _load_inputs(args: argparse.Namespace) -> tuple[RunConfig, SeriesSelection]:
    """The strategy file and the series it selects from the chain."""
    chain = _load_chain(args.chain)
    run = load_run_config(_read_json(args.spec, "strategy", SpecError))
    return run, select_series(chain, run.n, run.call_anchor, run.put_anchor)


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write ``text`` to ``--output``, or to stdout and flush it; either
    write failing is an args error."""
    try:
        if args.output is None:
            if sys.stdout is None:  # fd 1 was closed when the interpreter started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            args.output.write_text(text, encoding="utf-8")
    except OSError as exc:
        if args.output is None and sys.stdout is not None:
            # stdout's buffer may still hold the text; on the null device the
            # interpreter's flush at exit cannot fail with a second message
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise CliError(f"cannot write {args.output or 'stdout'}: {exc}") from exc


def _render(args: argparse.Namespace, result, to_json, to_csv, to_table) -> None:
    """Write ``result`` through the renderer that ``--format`` names."""
    render = {"json": to_json, "csv": to_csv, "table": to_table}[args.format]
    _emit(args, render(result))


def _fail(category: str, detail: object, code: int) -> int:
    """Write the ``error:<category>:<detail>`` line; returns ``code``."""
    text = " ".join(str(detail).split())
    print(f"error:{category}:{text}", file=sys.stderr)
    return code


def _infeasible(result: Infeasible) -> int:
    """Report a run without a feasible portfolio; returns its exit code."""
    detail = "no feasible portfolio; constraints attempted: " + ",".join(result.rows)
    return _fail("infeasible", detail, 1)


def _parse_values(axis: SweepAxis, values: str) -> list[int]:
    out = []
    for piece in values.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if axis is SweepAxis.COST:
            try:
                out.append(parse_money(piece))
            except ValueError as exc:
                raise CliError(f"bad cost value {piece!r}: {exc}") from exc
            continue
        if not is_digits(piece):
            raise CliError(f"bad liquidity value {piece!r}")
        try:
            value = int(piece)
        except ValueError as exc:  # beyond Python's int-string digit limit
            raise CliError(f"bad liquidity value {piece!r}") from exc
        if value <= 0:
            raise CliError(f"liquidity bound must be positive: {value}")
        out.append(value)
    if not out:
        raise CliError("no values given")
    return out


def _cmd_optimize(args: argparse.Namespace) -> int:
    run, series = _load_inputs(args)
    solution = optimize(run.strategy, series)
    if isinstance(solution, Infeasible):
        return _infeasible(solution)
    _render(args, solution, solution_to_json, solution_to_csv, solution_to_table)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    run, series = _load_inputs(args)
    axis = SweepAxis(args.axis)
    report = sweep(axis, run.strategy, series, _parse_values(axis, args.values))
    _render(args, report, sweep_to_json, sweep_to_csv, sweep_to_table)
    for point in report.points:
        if point.error is not None and point.error.startswith("internal:"):
            return _fail("internal", point.error.removeprefix("internal:"), 5)
    return 0


def _cmd_payoff(args: argparse.Namespace) -> int:
    run, series = _load_inputs(args)
    if args.solution is not None:
        data = _read_json(args.solution, "solution", CliError)
        try:
            portfolio, _ = solution_from_dict(data, series)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        curve = payoff_curve(portfolio)
    else:
        solution = optimize(run.strategy, series)
        if isinstance(solution, Infeasible):
            return _infeasible(solution)
        curve = solution.payoff_curve
    _emit(args, curve_to_csv(curve))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate_chain(_load_chain(args.chain))
    lines = [f"{v.kind}: {v.message}" for v in report]
    _emit(args, "\n".join(lines) + "\n" if lines else "")
    return _fail("validation", f"{len(report)} violations", 2) if report else 0


_COMMANDS = {
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "payoff": _cmd_payoff,
    "validate": _cmd_validate,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, execute one command, return the exit code."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
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
    except Exception as exc:  # a defect, not a verdict: exit 1 means infeasible
        return _fail("internal", f"{type(exc).__name__}: {exc}", 5)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
