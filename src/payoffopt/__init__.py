"""Integer option portfolios with a prescribed payoff shape.

Pipeline: parse a quote chain (`market_data`), pick a consecutive strike
series, describe the target shape (`model_builder.StrategySpec`), then
`optimizer.optimize` searches every ask/bid price combination at once by
solving one bounded integer program with a binary side choice per slot
(`model_builder.build_combined`, `ilp_solver`), then breaks ties by the
lowest combination index and the lexicographically smallest quantities
(`ilp_solver.lex_refine`). `payoff_engine` evaluates
the resulting piecewise-linear payoff exactly, in cents.
"""

from .ilp_solver import (
    IntSolution,
    SolverError,
    SolverNumericalError,
    SolverResourceError,
    solve_ilp,
)
from .market_data import (
    DuplicateQuoteError,
    MarketDataError,
    OptionChain,
    OptionQuote,
    ParseError,
    Right,
    SchemaError,
    SelectionError,
    SeriesSelection,
    Side,
    Violation,
    parse_chain,
    select_series,
    validate_chain,
)
from .model_builder import (
    CostTarget,
    IlpProblem,
    PriceCombination,
    Relation,
    Row,
    SpecError,
    StrategySpec,
    TailLossMode,
    build_subproblem,
)
from .money import MoneyError, format_money, parse_money
from .optimizer import (
    PortfolioSolution,
    SweepAxis,
    SweepPoint,
    SweepReport,
    optimize,
    solution_from_dict,
    solution_to_dict,
    solution_to_json,
    sweep_cost,
    sweep_liquidity,
    sweep_to_dict,
    sweep_to_json,
)
from .payoff_engine import (
    ContractPrices,
    PayoffCurve,
    Portfolio,
    PriceConsistencyError,
    curve_to_csv,
    initial_cost,
    interval_slope,
    payoff,
    payoff_curve,
    pnl,
)

__version__ = "0.1.0"

__all__ = [
    "ContractPrices",
    "CostTarget",
    "DuplicateQuoteError",
    "IlpProblem",
    "IntSolution",
    "MarketDataError",
    "MoneyError",
    "OptionChain",
    "OptionQuote",
    "ParseError",
    "PayoffCurve",
    "Portfolio",
    "PortfolioSolution",
    "PriceCombination",
    "PriceConsistencyError",
    "Relation",
    "Right",
    "Row",
    "SchemaError",
    "SelectionError",
    "SeriesSelection",
    "Side",
    "SolverError",
    "SolverNumericalError",
    "SolverResourceError",
    "SpecError",
    "StrategySpec",
    "SweepAxis",
    "SweepPoint",
    "SweepReport",
    "TailLossMode",
    "Violation",
    "build_subproblem",
    "curve_to_csv",
    "format_money",
    "initial_cost",
    "interval_slope",
    "optimize",
    "parse_chain",
    "parse_money",
    "payoff",
    "payoff_curve",
    "pnl",
    "select_series",
    "solution_from_dict",
    "solution_to_dict",
    "solution_to_json",
    "solve_ilp",
    "sweep_cost",
    "sweep_liquidity",
    "sweep_to_dict",
    "sweep_to_json",
    "validate_chain",
]
