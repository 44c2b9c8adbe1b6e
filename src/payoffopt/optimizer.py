"""Find the best feasible portfolio over every price combination.

Each ask/bid combination is one integer program; :func:`optimize` solves all
of them at once as the single combined program of
:func:`~payoffopt.model_builder.build_combined`. The winner is the highest
objective, with ties broken by lowest combination index and then by the
lexicographically smallest quantity vector. The combined solve finds the
optimal value; :func:`~payoffopt.ilp_solver.lex_refine` on its side bits
finds the lowest optimal combination index, and on that combination's
subproblem, seeded with the same point, the quantities.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass
from typing import Sequence

from .ilp_solver import SolverError, lex_refine, solve_ilp
from .market_data import SeriesSelection
from .model_builder import (
    CostTarget,
    PriceCombination,
    Relation,
    StrategySpec,
    build_combined,
    build_subproblem,
    decode_combined,
)
from .money import format_money
from .payoff_engine import (
    PayoffCurve,
    Portfolio,
    initial_cost,
    payoff_curve,
    pnl,
)


@dataclass(frozen=True)
class PortfolioSolution:
    """The winning portfolio of one optimization run."""

    portfolio: Portfolio
    combination: PriceCombination
    objective: int
    initial_cost: int
    total_contracts: int
    payoff_curve: PayoffCurve


class SweepAxis(enum.Enum):
    COST = "cost"
    LIQUIDITY = "liquidity"


@dataclass(frozen=True)
class SweepPoint:
    """One parameter value with its outcome; ``error`` holds the message of
    a solver failure (budget or numerical) that stopped this point's run,
    ``solution`` is None when infeasible or failed."""

    value: int
    solution: PortfolioSolution | None
    error: str | None


@dataclass(frozen=True)
class SweepReport:
    axis: SweepAxis
    points: tuple[SweepPoint, ...]


def optimize(
    spec: StrategySpec, series: SeriesSelection
) -> PortfolioSolution | None:
    """Best feasible portfolio over every price combination, or ``None``.

    The combined solve gives the optimal value. Stage A refines its side
    bits to the lowest optimal combination index; Stage B refines that
    combination's subproblem to the lexicographically smallest quantities,
    seeded with the Stage-A point's quantities. With the side bits fixed the
    combined program is exactly that subproblem, so the seed is one of its
    optima. Both stages are :func:`~payoffopt.ilp_solver.lex_refine` calls.

    A solver failure propagates as its own :class:`SolverError` subclass
    (:class:`SolverResourceError` for an exhausted budget,
    :class:`SolverNumericalError` for a backend failure or a stage that
    misses the first optimum).
    """
    combined = build_combined(spec, series)
    first = solve_ilp(combined, refine=False)
    if first is None:
        return None
    slots = 2 * series.n
    ranked = lex_refine(combined, first.objective, first.x, slots)
    combo, seed = decode_combined(series.n, ranked)
    subproblem = build_subproblem(spec, series, combo)
    x = lex_refine(subproblem, first.objective, seed, slots)
    portfolio = Portfolio(series=series, calls=x[: series.n], puts=x[series.n :])
    prices = combo.contract_prices(series)
    # exact bookkeeping identity between the compiled objective and the engine
    assert first.objective == pnl(portfolio, prices, spec.expected_price)
    return PortfolioSolution(
        portfolio=portfolio,
        combination=combo,
        objective=first.objective,
        initial_cost=initial_cost(portfolio, prices),
        total_contracts=portfolio.total_contracts,
        payoff_curve=payoff_curve(portfolio),
    )


def _sweep(
    axis: SweepAxis,
    specs: Sequence[tuple[int, StrategySpec]],
    series: SeriesSelection,
) -> SweepReport:
    points = []
    for value, run_spec in specs:
        try:
            solution = optimize(run_spec, series)
            points.append(SweepPoint(value=value, solution=solution, error=None))
        except SolverError as exc:
            points.append(SweepPoint(value=value, solution=None, error=str(exc)))
    points.sort(key=lambda p: p.value)  # stable: equal values keep input order
    return SweepReport(axis=axis, points=tuple(points))


def sweep_cost(
    spec: StrategySpec,
    series: SeriesSelection,
    cost_values: Sequence[int],
) -> SweepReport:
    """One optimize run per cost target (cents), comparator preserved."""
    if not cost_values:
        raise ValueError("cost_values must be non-empty")
    comparator = (
        spec.cost_target.comparator if spec.cost_target is not None else Relation.EQ
    )
    specs = [
        (v, dataclasses.replace(spec, cost_target=CostTarget(comparator, v)))
        for v in cost_values
    ]
    return _sweep(SweepAxis.COST, specs, series)


def sweep_liquidity(
    spec: StrategySpec,
    series: SeriesSelection,
    bound_values: Sequence[int],
) -> SweepReport:
    """One optimize run per symmetric bound: quantities range in [-v, v]."""
    if not bound_values:
        raise ValueError("bound_values must be non-empty")
    for v in bound_values:
        if v <= 0:
            raise ValueError(f"liquidity bound must be positive: {v}")
    specs = [
        (v, dataclasses.replace(spec, lower=-v, upper=v)) for v in bound_values
    ]
    return _sweep(SweepAxis.LIQUIDITY, specs, series)


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


def solution_from_dict(
    data: dict, series: SeriesSelection
) -> tuple[Portfolio, PriceCombination]:
    """Rebuild the portfolio and combination of a serialized solution."""
    try:
        quantities = data["quantities"]
        calls = tuple(int(quantities["call"][str(k)]) for k in series.call_strikes)
        puts = tuple(int(quantities["put"][str(k)]) for k in series.put_strikes)
        bits = str(data["combination"])
    except KeyError as exc:
        raise ValueError(f"solution data missing {exc.args[0]!r}") from exc
    if len(bits) != 2 * series.n:
        raise ValueError(
            f"combination bitstring {bits!r} does not fit a series of {series.n}"
        )
    combo = PriceCombination.from_index(series.n, int(bits, 2) if bits else 0)
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


def sweep_point_label(axis: SweepAxis, value: int) -> str:
    if axis is SweepAxis.COST:
        return f"C={format_money(value, trim=True)}"
    return f"|L|={value}"


def _quantity_cells(
    series: SeriesSelection, portfolio: Portfolio
) -> list[tuple[int, str, str]]:
    """(strike, call cell, put cell) for each unique strike of ``series``;
    a cell holds the quantity, or ``""`` where that leg lacks the strike."""
    calls = dict(zip(series.call_strikes, portfolio.calls))
    puts = dict(zip(series.put_strikes, portfolio.puts))
    return [
        (k, str(calls.get(k, "")), str(puts.get(k, "")))
        for k in series.unique_strikes
    ]


def render_table(
    blocks: Sequence[tuple[str, PortfolioSolution | None]],
    series: SeriesSelection,
) -> str:
    """Strike-by-strike quantity table with objective and contract footers.

    One Call/Put column pair per block; blanks where a strike is not in that
    leg's series, ``infeasible`` in the footer for empty outcomes.
    """
    strikes = series.unique_strikes
    label_col = ["Strike"] + [str(k) for k in strikes] + [
        "max F",
        "Total number of contracts",
    ]
    columns: list[tuple[str, list[str], list[str], str, str]] = []
    for label, solution in blocks:
        if solution is None:
            calls = puts = [""] * len(strikes)
            footer_obj, footer_total = "infeasible", ""
        else:
            cells = _quantity_cells(series, solution.portfolio)
            calls = [call for _, call, _ in cells]
            puts = [put for _, _, put in cells]
            footer_obj = format_money(solution.objective, trim=True)
            footer_total = str(solution.total_contracts)
        columns.append((label, calls, puts, footer_obj, footer_total))

    width0 = max(len(s) for s in label_col)
    lines = []
    header_top = [" " * width0]
    header_sub = ["Strike".ljust(width0)]
    body = [[str(k).ljust(width0)] for k in strikes]
    footer1 = ["max F".ljust(width0)]
    footer2 = ["Total number of contracts".ljust(width0)]
    for label, calls, puts, footer_obj, footer_total in columns:
        wc = max([len("Call")] + [len(c) for c in calls])
        wp = max([len("Put")] + [len(p) for p in puts])
        pair_width = wc + 2 + wp
        pair_width = max(pair_width, len(label), len(footer_obj), len(footer_total))
        wp = pair_width - wc - 2
        header_top.append(label.center(pair_width))
        header_sub.append("Call".rjust(wc) + "  " + "Put".rjust(wp))
        for i in range(len(strikes)):
            body[i].append(calls[i].rjust(wc) + "  " + puts[i].rjust(wp))
        footer1.append(footer_obj.rjust(pair_width))
        footer2.append(footer_total.rjust(pair_width))
    joiner = "   "
    if any(label for label, *_ in columns):
        lines.append(joiner.join(header_top).rstrip())
    lines.append(joiner.join(header_sub).rstrip())
    for row in body:
        lines.append(joiner.join(row).rstrip())
    lines.append(joiner.join(footer1).rstrip())
    lines.append(joiner.join(footer2).rstrip())
    return "\n".join(lines) + "\n"


def solution_to_table(solution: PortfolioSolution) -> str:
    return render_table([("", solution)], solution.portfolio.series)


def sweep_to_table(report: SweepReport, series: SeriesSelection) -> str:
    blocks = [
        (sweep_point_label(report.axis, p.value), p.solution) for p in report.points
    ]
    return render_table(blocks, series)


def solution_to_csv(solution: PortfolioSolution) -> str:
    lines = ["strike,call,put"]
    for k, call, put in _quantity_cells(solution.portfolio.series, solution.portfolio):
        lines.append(f"{k},{call},{put}")
    lines.append(f"max_F,{format_money(solution.objective, trim=True)}")
    lines.append(f"total_contracts,{solution.total_contracts}")
    return "\n".join(lines) + "\n"


def sweep_to_csv(report: SweepReport, series: SeriesSelection) -> str:
    lines = ["value,strike,call,put"]
    for p in report.points:
        value = (
            format_money(p.value, trim=True)
            if report.axis is SweepAxis.COST
            else str(p.value)
        )
        if p.error is not None:
            lines.append(f"{value},error,{p.error},")
            continue
        if p.solution is None:
            lines.append(f"{value},infeasible,,")
            continue
        for k, call, put in _quantity_cells(series, p.solution.portfolio):
            lines.append(f"{value},{k},{call},{put}")
        lines.append(f"{value},max_F,{format_money(p.solution.objective, trim=True)},")
        lines.append(f"{value},total_contracts,{p.solution.total_contracts},")
    return "\n".join(lines) + "\n"
