"""Find the best feasible portfolio over every price combination.

Each ask/bid combination is one integer program; :func:`optimize` solves all
of them at once as the single combined program of
:func:`~payoffopt.model_builder.build_combined`, unless
:func:`~payoffopt.model_builder.unreachable_row` or
:func:`~payoffopt.model_builder.off_lattice_rows` proves every combination
infeasible first from the strategy's equality rows, before that program is
built; an infeasible run returns the rows it attempted as
:class:`Infeasible`. The winner is the highest objective, with ties broken
by lowest combination index and then by the lexicographically smallest
quantity vector. The combined solve finds the
optimal value; :meth:`~payoffopt.ilp_solver.Program.refine` on its side
bits finds the lowest optimal combination index, and then, on the same
loaded program with those bits fixed, the quantities.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import enum
import errno
import json
import os
from dataclasses import dataclass
from typing import Sequence

from .ilp_solver import SolverError, solve_ilp
from .market_data import SeriesSelection
from .model_builder import (
    CostTarget,
    PriceCombination,
    Relation,
    SpecError,
    StrategySpec,
    build_combined,
    build_subproblem,  # not called here; benchmark/tracing.py wraps this name
    combination_bounds,
    decode_combined,
    equality_rows,
    off_lattice_rows,
    unreachable_row,
)
from .money import format_money
from .payoff_engine import (
    PayoffCurve,
    Portfolio,
    initial_cost,
    payoff_curve,
    pnl,
)


_fflush = ctypes.CDLL(None).fflush
_fflush.argtypes = (ctypes.c_void_p,)
_fflush.restype = ctypes.c_int


@contextlib.contextmanager
def _stdout_discarded():
    """Send file descriptor 1 to the null device for the duration.

    HiGHS writes some diagnostics straight to fd 1, below ``sys.stdout``,
    where they would corrupt the output a command prints there. A closed fd
    1 holds no output to protect and is left closed.
    """
    _fflush(None)
    try:
        saved = os.dup(1)
    except OSError as exc:
        if exc.errno != errno.EBADF:
            raise
        saved = None
    if saved is None:
        yield
        return
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, 1)
        finally:
            os.close(null)
        yield
    finally:
        _fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


@dataclass(frozen=True)
class PortfolioSolution:
    """The winning portfolio of one optimization run."""

    portfolio: Portfolio
    combination: PriceCombination
    objective: int
    initial_cost: int
    total_contracts: int
    payoff_curve: PayoffCurve


@dataclass(frozen=True)
class Infeasible:
    """No feasible portfolio: the equality rows of an exact check's proof
    or, after HiGHS's verdict, every combined-program row without a side
    bit."""

    rows: tuple[str, ...]


class SweepAxis(enum.Enum):
    COST = "cost"
    LIQUIDITY = "liquidity"


@dataclass(frozen=True)
class SweepPoint:
    """One parameter value with its outcome; ``error`` holds the message of
    the failure that stopped this point's run (see :func:`sweep`),
    ``solution`` is None when infeasible or failed."""

    value: int
    solution: PortfolioSolution | None
    error: str | None


@dataclass(frozen=True)
class SweepReport:
    axis: SweepAxis
    points: tuple[SweepPoint, ...]
    series: SeriesSelection


def optimize(
    spec: StrategySpec, series: SeriesSelection
) -> PortfolioSolution | Infeasible:
    """Best feasible portfolio over every price combination, or :class:`Infeasible`.

    :func:`~payoffopt.model_builder.unreachable_row`, then
    :func:`~payoffopt.model_builder.off_lattice_rows`, read the strategy's
    :func:`~payoffopt.model_builder.equality_rows`; when either proves every
    combination infeasible, the run builds no combined program and loads no
    solver. Otherwise the combined solve gives the optimal value, or
    HiGHS's verdict. Stage A refines its side bits to the lowest optimal
    combination index; Stage B fixes those bits with
    :func:`~payoffopt.model_builder.combination_bounds` and refines the
    quantities from the Stage-A point. Both stages are
    :meth:`~payoffopt.ilp_solver.Program.refine` calls on the program the
    combined solve loaded, and only the final point is decoded. All three
    run in one :func:`_stdout_discarded`: HiGHS writes diagnostics to fd 1.

    The combined program's side rows (a slot takes the ask side only when
    it buys) move no answer. The optimal value stays, because zeroing the
    side bits of slots that trade nothing maps every optimum into the
    program. Stage A still finds the lowest optimal index, because none of
    that combination's optimal points holds an ask slot at zero lots (the
    bid side would give a lower index). For the same reason Stage B's
    points, the combined program's with that combination's bits fixed, are
    exactly the combination's own optima.

    A solver failure propagates: :class:`SolverResourceError` for an
    exhausted budget, :class:`SolverError` itself for a backend failure or a
    stage that misses the first optimum. A compiled objective that is not
    the payoff engine's P&L of the decoded portfolio, a defect, raises
    :class:`RuntimeError`.
    """
    equalities = equality_rows(spec, series)
    row = unreachable_row(equalities, spec.lower, spec.upper)
    rows = (row,) if row is not None else off_lattice_rows(equalities)
    if rows is not None:
        return Infeasible(rows)
    combined = build_combined(spec, series)
    with _stdout_discarded():
        program = solve_ilp(combined)
        if program is None:
            names = (r.name for r in combined.rows if not any(r.coeffs[: 2 * series.n]))
            return Infeasible(tuple(names))
        ranked = program.refine(program.x, 2 * series.n)
        bounds = combination_bounds(series.n, combined, ranked)
        final = program.refine(ranked, combined.num_vars, bounds)
    combo, x = decode_combined(series.n, final)
    portfolio = Portfolio(series=series, calls=x[: series.n], puts=x[series.n :])
    # exact bookkeeping identity between the compiled objective and the engine
    value = pnl(portfolio, combo, spec.expected_price)
    if program.objective != value:
        raise RuntimeError(f"objective {program.objective} is not the P&L {value}")
    return PortfolioSolution(
        portfolio=portfolio,
        combination=combo,
        objective=program.objective,
        initial_cost=initial_cost(portfolio, combo),
        total_contracts=portfolio.total_contracts,
        payoff_curve=payoff_curve(portfolio),
    )


def sweep(
    axis: SweepAxis,
    spec: StrategySpec,
    series: SeriesSelection,
    values: Sequence[int],
) -> SweepReport:
    """One :func:`optimize` run per value on ``axis``, sorted by value.

    A cost value (cents) replaces the cost target and keeps its comparator,
    ``=`` when the strategy has none; a liquidity value v bounds every
    quantity to [-v, v]. A point whose run fails holds its error and the
    sweep goes on: the message of a :class:`SolverError`, or
    ``internal:<Type>: <detail>`` on one line for any other exception, a
    defect. A strategy that does not fit the series stops the sweep with
    its :class:`SpecError`.
    """
    if not values:
        raise ValueError("values must be non-empty")
    if axis is SweepAxis.LIQUIDITY and min(values) <= 0:
        raise ValueError(f"liquidity bound must be positive: {min(values)}")
    comparator = spec.cost_target.comparator if spec.cost_target else Relation.EQ
    points = []
    for value in values:
        if axis is SweepAxis.COST:
            run_spec = dataclasses.replace(spec, cost_target=CostTarget(comparator, value))
        else:
            run_spec = dataclasses.replace(spec, lower=-value, upper=value)
        solution = error = None
        try:
            result = optimize(run_spec, series)
            solution = None if isinstance(result, Infeasible) else result
        except SpecError:
            raise
        except SolverError as exc:
            error = str(exc)
        except Exception as exc:  # a defect fails its point, not the sweep
            error = "internal:" + " ".join(f"{type(exc).__name__}: {exc}".split())
        points.append(SweepPoint(value=value, solution=solution, error=error))
    points.sort(key=lambda p: p.value)  # stable: equal values keep input order
    return SweepReport(axis=axis, points=tuple(points), series=series)


def solution_to_dict(solution: PortfolioSolution) -> dict:
    series = solution.portfolio.series
    return {
        "objective": format_money(solution.objective),
        "initial_cost": format_money(solution.initial_cost),
        "total_contracts": solution.total_contracts,
        "combination": solution.combination.bitstring,
        "quantities": {
            "call": {
                str(k): x
                for k, x in zip(series.call_strikes, solution.portfolio.calls)
            },
            "put": {
                str(k): x
                for k, x in zip(series.put_strikes, solution.portfolio.puts)
            },
        },
    }


def solution_to_json(solution: PortfolioSolution) -> str:
    return json.dumps(solution_to_dict(solution), sort_keys=True, indent=2) + "\n"


def _stored_leg(
    quantities: object, leg: str, strikes: Sequence[int]
) -> tuple[int, ...]:
    """One leg of a stored ``quantities`` object: a JSON integer (not a bool)
    for each strike of the series, and no other strike."""
    stored = quantities.get(leg) if isinstance(quantities, dict) else None
    if not isinstance(stored, dict):
        raise ValueError(f"solution {leg} quantities must be an object")
    if set(stored) != {str(k) for k in strikes}:
        raise ValueError(
            f"solution {leg} strikes {sorted(stored)} do not match "
            f"the series strikes {list(strikes)}"
        )
    values = tuple(stored[str(k)] for k in strikes)
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"solution {leg} quantity must be an integer: {value!r}")
    return values


def solution_from_dict(
    data: object, series: SeriesSelection
) -> tuple[Portfolio, PriceCombination]:
    """Rebuild the portfolio and combination of a serialized solution.

    Any shape other than the one :func:`solution_to_dict` writes raises
    :class:`ValueError`; keys it does not read are ignored.
    """
    if not isinstance(data, dict):
        raise ValueError("solution must be a JSON object")
    for key in ("quantities", "combination"):
        if key not in data:
            raise ValueError(f"solution data missing {key!r}")
    calls = _stored_leg(data["quantities"], "call", series.call_strikes)
    puts = _stored_leg(data["quantities"], "put", series.put_strikes)
    combo = PriceCombination.parse(data["combination"], series.n)
    return Portfolio(series=series, calls=calls, puts=puts), combo


def sweep_to_dict(report: SweepReport) -> dict:
    def fmt_value(v: int) -> str | int:
        return format_money(v) if report.axis is SweepAxis.COST else v

    return {
        "axis": report.axis.value,
        "points": [
            {
                "value": fmt_value(p.value),
                "solution": None if p.solution is None else solution_to_dict(p.solution),
                "error": p.error,
            }
            for p in report.points
        ],
    }


def sweep_to_json(report: SweepReport) -> str:
    return json.dumps(sweep_to_dict(report), sort_keys=True, indent=2) + "\n"


def _value_cell(axis: SweepAxis, value: int) -> str:
    """A sweep value as its CSV cell and table label show it; JSON writes
    cost values with two decimal places instead (:func:`sweep_to_dict`)."""
    return format_money(value, trim=True) if axis is SweepAxis.COST else str(value)


def sweep_point_label(axis: SweepAxis, value: int) -> str:
    return ("C=" if axis is SweepAxis.COST else "|L|=") + _value_cell(axis, value)


def _rows(solution: PortfolioSolution) -> list[tuple[str, ...]]:
    """What every table and CSV shows of ``solution``: a (strike, call, put)
    row for each unique strike of its series, a cell blank where that leg
    lacks the strike, then the ``max_F`` and ``total_contracts`` footers."""
    series = solution.portfolio.series
    calls = dict(zip(series.call_strikes, solution.portfolio.calls))
    puts = dict(zip(series.put_strikes, solution.portfolio.puts))
    rows = [
        (str(k), str(calls.get(k, "")), str(puts.get(k, "")))
        for k in series.unique_strikes
    ]
    return rows + [
        ("max_F", format_money(solution.objective, trim=True)),
        ("total_contracts", str(solution.total_contracts)),
    ]


def render_table(
    blocks: Sequence[tuple[str, PortfolioSolution | str]],
    series: SeriesSelection,
) -> str:
    """Strike-by-strike quantity table with objective and contract footers.

    One Call/Put column pair per block; blanks where a strike is not in that
    leg's series. A block without a solution holds the text its footer
    shows instead (``infeasible`` or ``error``).
    """
    strikes = [str(k) for k in series.unique_strikes]
    names = ["", "Strike", *strikes, "max F", "Total number of contracts"]
    grid = [[name] for name in names]  # one list of cells per line
    for label, solution in blocks:
        if isinstance(solution, str):
            rows = [("", "", "")] * len(strikes) + [("", solution), ("", "")]
        else:
            rows = _rows(solution)
        pairs = [("Call", "Put")] + [(call, put) for _, call, put in rows[:-2]]
        footers = [value for _, value in rows[-2:]]
        wc = max(len(call) for call, _ in pairs)
        wp = max(len(put) for _, put in pairs)
        width = max(wc + 2 + wp, len(label), *map(len, footers))
        wp = width - wc - 2
        cells = [label.center(width)]
        cells += [call.rjust(wc) + "  " + put.rjust(wp) for call, put in pairs]
        cells += [footer.rjust(width) for footer in footers]
        for line, cell in zip(grid, cells):
            line.append(cell)
    width0 = max(len(line[0]) for line in grid)
    lines = ["   ".join([line[0].ljust(width0), *line[1:]]).rstrip() for line in grid]
    if not any(label for label, _ in blocks):
        del lines[0]
    return "\n".join(lines) + "\n"


def solution_to_table(solution: PortfolioSolution) -> str:
    return render_table([("", solution)], solution.portfolio.series)


def sweep_to_table(report: SweepReport) -> str:
    blocks = [
        (
            sweep_point_label(report.axis, p.value),
            p.solution or ("infeasible" if p.error is None else "error"),
        )
        for p in report.points
    ]
    return render_table(blocks, report.series)


def solution_to_csv(solution: PortfolioSolution) -> str:
    lines = ["strike,call,put", *map(",".join, _rows(solution))]
    return "\n".join(lines) + "\n"


def sweep_to_csv(report: SweepReport) -> str:
    lines = ["value,strike,call,put"]
    for p in report.points:
        if p.solution is None:  # a failed point: infeasible, or its error
            rows = [("infeasible",) if p.error is None else ("error", p.error)]
        else:
            rows = _rows(p.solution)
        value = _value_cell(report.axis, p.value)
        # every row fills the three columns after the value
        lines += [",".join((value, *row)) + "," * (3 - len(row)) for row in rows]
    return "\n".join(lines) + "\n"
