"""Integer option portfolios with a prescribed payoff shape.

Pipeline: parse a quote chain (`market_data`), pick a consecutive strike
series, describe the target shape (`model_builder.StrategySpec`), then
`optimizer.optimize` searches every ask/bid price combination at once by
solving one bounded integer program with a binary side choice per slot
(`model_builder.build_combined`, `ilp_solver`), then breaks ties by the
lowest combination index and the lexicographically smallest quantities
(`ilp_solver.Program.refine`). `payoff_engine` evaluates
the resulting piecewise-linear payoff exactly, in cents.

The package exports what the README's Library section documents; every
other name lives in its submodule.
"""

from .ilp_solver import SolverError
from .market_data import MarketDataError, parse_chain, select_series
from .model_builder import SpecError
from .optimizer import Infeasible, optimize

__version__ = "0.1.0"

__all__ = [
    "Infeasible",
    "MarketDataError",
    "SolverError",
    "SpecError",
    "optimize",
    "parse_chain",
    "select_series",
]
