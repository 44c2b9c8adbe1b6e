"""Exact solvers for bounded integer linear programs.

Independent routes to the same answer:

* :func:`solve_ilp`: HiGHS branch and cut (scipy's ``milp``) with a zero
  optimality gap. The search runs in floating point, but the returned point
  is re-verified and its objective recomputed in exact integer arithmetic
  before acceptance. Among optima the lexicographically smallest solution
  vector is returned by :func:`lex_refine`: with the objective pinned at its
  optimal value, the slots are minimized in blocks, one MILP per block whose
  objective reads the block as one mixed-radix number, starting from the
  first optimal point. A slot that point already holds at its lower bound
  is fixed there without a solve (lexicographic optimization as a sequence
  of epsilon-constraint programs; Ehrgott, *Multicriteria Optimization*,
  2005, ch. 5). HiGHS's feasibility-jump heuristic (Luteberget & Sartor,
  *Math. Prog. Comp.* 2023) is switched off: on these small programs it is
  a fixed cost of about 12 ms per call, most of the solve. It only proposes
  incumbents, so the proven optimum, and the unique lexicographically
  smallest optimal point the refine returns, cannot change. Each program's
  rows are compiled once into a sparse matrix, and a root LP on them (the
  same ``milp`` call with no integrality) settles most infeasible programs
  before any MILP.
* :func:`solve_ilp_reference`: pure-Python branch and bound over the LP
  relaxation. Much slower; kept as an in-tree cross-check with the same
  contract.
* :func:`brute_force`: chunked exhaustive enumeration of the bound box in
  int64, used as the oracle in tests.

All return ``None`` for an infeasible problem and raise
:class:`SolverResourceError` when the node budget runs out; a budget
exhaustion is never silently turned into a wrong answer.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import heapq
import math
import os
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csc_array

from .model_builder import CapacityError, IlpProblem, Relation, Row

DEFAULT_NODE_BUDGET = 10_000_000
BRUTE_FORCE_LIMIT = 100_000_000

# distance from an LP coordinate to the nearest integer below which the
# node counts as integral and is handed to the exact verifier
_INTEGRALITY_TOL = 1e-6
# slack added before flooring a float LP bound to an integer cent bound;
# must exceed any plausible LP objective error (overshooting only costs
# pruning strength, undershooting would prune the optimum)
_BOUND_TOL = 0.5


class SolverError(RuntimeError):
    """Base class for solver failures that are not plain infeasibility."""


class SolverResourceError(SolverError):
    """The node budget was exhausted before the search finished."""


class SolverNumericalError(SolverError):
    """The LP backend failed or returned something unusable."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpSolution:
    """Continuous relaxation result; ``x`` is empty when infeasible."""

    status: LpStatus
    x: tuple[float, ...]
    objective: float | None


@dataclass(frozen=True)
class IntSolution:
    """An exact integer optimum: slot values and objective in cents."""

    x: tuple[int, ...]
    objective: int


class _Budget:
    __slots__ = ("remaining", "initial")

    def __init__(self, nodes: int) -> None:
        self.remaining = nodes
        self.initial = nodes

    def spend(self) -> None:
        if self.remaining <= 0:
            raise SolverResourceError(
                f"node budget of {self.initial} exhausted"
            )
        self.remaining -= 1


class _Relaxation:
    """LP matrices for one problem, rebuilt once and re-solved per node.

    Serves only the reference routes, :func:`solve_lp_relaxation` and
    :func:`solve_ilp_reference`; :func:`solve_ilp` solves its root LP
    through ``milp`` on the rows it compiles for its MILPs.
    """

    def __init__(self, objective: Sequence[int], rows: Sequence[Row]) -> None:
        self.num_vars = len(objective)
        self.c_min = -np.asarray(objective, dtype=float)
        ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
        for row in rows:
            if row.relation is Relation.EQ:
                eq_rows.append(row.coeffs)
                eq_rhs.append(row.rhs)
            elif row.relation is Relation.LE:
                ub_rows.append(row.coeffs)
                ub_rhs.append(row.rhs)
            else:
                ub_rows.append([-c for c in row.coeffs])
                ub_rhs.append(-row.rhs)
        self.a_ub = np.asarray(ub_rows, dtype=float) if ub_rows else None
        self.b_ub = np.asarray(ub_rhs, dtype=float) if ub_rows else None
        self.a_eq = np.asarray(eq_rows, dtype=float) if eq_rows else None
        self.b_eq = np.asarray(eq_rhs, dtype=float) if eq_rows else None

    def solve(
        self, bounds: Sequence[tuple[int, int]]
    ) -> tuple[LpStatus, tuple[float, ...], float]:
        result = linprog(
            self.c_min,
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=list(bounds),
            method="highs",
        )
        if result.status == 0:
            return LpStatus.OPTIMAL, tuple(float(v) for v in result.x), -float(
                result.fun
            )
        if result.status == 2:
            return LpStatus.INFEASIBLE, (), math.nan
        raise SolverNumericalError(
            f"LP backend failed (status {result.status}): {result.message}"
        )


def _rows_hold(rows: Sequence[Row], x: Sequence[int]) -> bool:
    return all(row.satisfied(x) for row in rows)


def _within_bounds(x: Sequence[int], bounds: Sequence[tuple[int, int]]) -> bool:
    return all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))


def solve_lp_relaxation(problem: IlpProblem) -> LpSolution:
    """Solve the continuous relaxation; deterministic for identical input."""
    if problem.num_vars == 0:
        if _rows_hold(problem.rows, ()):
            return LpSolution(LpStatus.OPTIMAL, (), float(problem.objective_constant))
        return LpSolution(LpStatus.INFEASIBLE, (), None)
    relax = _Relaxation(problem.objective, problem.rows)
    status, x, value = relax.solve(problem.bounds)
    if status is LpStatus.INFEASIBLE:
        return LpSolution(LpStatus.INFEASIBLE, (), None)
    return LpSolution(status, x, value + problem.objective_constant)


def _branch_and_bound(
    objective: tuple[int, ...],
    constant: int,
    rows: tuple[Row, ...],
    bounds: tuple[tuple[int, int], ...],
    budget: _Budget,
    incumbent: tuple[int, tuple[int, ...]] | None = None,
) -> tuple[int, tuple[int, ...]] | None:
    """Maximize ``objective . x + constant`` over integer x in bounds.

    Keeps the first incumbent found at each objective value (no lexicographic
    guarantee; see :func:`solve_ilp` for the refinement pass). ``incumbent``
    seeds the search with a known-feasible solution for pruning.
    """
    num_vars = len(objective)
    if num_vars == 0:
        return (constant, ()) if _rows_hold(rows, ()) else None

    best_val: int | None = None
    best_x: tuple[int, ...] | None = None
    if incumbent is not None:
        best_val, best_x = incumbent

    relax = _Relaxation(objective, rows)
    heap: list[tuple[int, int, int, tuple[tuple[int, int], ...], tuple[float, ...]]] = []
    seq = 0

    def push(node_bounds: tuple[tuple[int, int], ...], depth: int) -> None:
        nonlocal seq
        budget.spend()
        status, x_lp, lp_val = relax.solve(node_bounds)
        if status is LpStatus.INFEASIBLE:
            return
        bound = math.floor(lp_val + constant + _BOUND_TOL)
        if best_val is not None and bound <= best_val:
            return
        seq += 1
        heapq.heappush(heap, (-bound, -depth, -seq, node_bounds, x_lp))

    push(bounds, 0)
    while heap:
        neg_bound, neg_depth, _, node_bounds, x_lp = heapq.heappop(heap)
        if best_val is not None and -neg_bound <= best_val:
            continue
        rounded = tuple(round(v) for v in x_lp)
        distances = [abs(v - r) for v, r in zip(x_lp, rounded)]
        if max(distances) <= _INTEGRALITY_TOL:
            # integral vertex: exact acceptance in integer arithmetic
            if _within_bounds(rounded, bounds) and _rows_hold(rows, rounded):
                value = (
                    sum(c * v for c, v in zip(objective, rounded)) + constant
                )
                if best_val is None or value > best_val:
                    best_val, best_x = value, rounded
                continue
        splittable = [
            i for i in range(num_vars) if node_bounds[i][0] < node_bounds[i][1]
        ]
        if not splittable:
            # fully fixed point that fails the exact integer checks: the LP
            # accepted it within float tolerance, but the node is dead
            continue
        branch_var = max(splittable, key=lambda i: (distances[i], -i))
        lo, hi = node_bounds[branch_var]
        split = min(max(math.floor(x_lp[branch_var]), lo), hi - 1)
        depth = -neg_depth + 1
        left = list(node_bounds)
        left[branch_var] = (lo, split)
        push(tuple(left), depth)
        right = list(node_bounds)
        right[branch_var] = (split + 1, hi)
        push(tuple(right), depth)

    if best_val is None or best_x is None:
        return None
    return best_val, best_x


def _lexicographic_refine(
    problem: IlpProblem,
    optimum: int,
    seed: tuple[int, ...],
    budget: _Budget,
) -> tuple[int, ...]:
    """Among optima, pin each slot in turn to its minimum value."""
    pin = Row(
        name="objective_pin",
        coeffs=problem.objective,
        relation=Relation.EQ,
        rhs=optimum - problem.objective_constant,
    )
    rows = problem.rows + (pin,)
    bounds = list(problem.bounds)
    current = seed
    for j in range(problem.num_vars):
        selector = tuple(-1 if i == j else 0 for i in range(problem.num_vars))
        result = _branch_and_bound(
            selector, 0, rows, tuple(bounds), budget, incumbent=(-current[j], current)
        )
        assert result is not None  # seeded with a feasible point
        value, current = result
        bounds[j] = (-value, -value)
    return current


_fflush = ctypes.CDLL(None).fflush
_fflush.argtypes = (ctypes.c_void_p,)
_fflush.restype = ctypes.c_int


@contextlib.contextmanager
def _stdout_discarded():
    """Send file descriptor 1 to the null device for the duration.

    HiGHS writes some diagnostics straight to fd 1, below ``sys.stdout``,
    where they would corrupt the output a command prints there.
    """
    _fflush(None)
    saved = os.dup(1)
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, 1)
        yield
    finally:
        _fflush(None)
        os.dup2(saved, 1)
        os.close(saved)
        os.close(null)


def _compile_rows(rows: Sequence[Row], num_vars: int) -> LinearConstraint:
    """All rows as one ``lb <= A x <= ub`` constraint, built once per program.

    ``A`` is sparse in the column layout HiGHS takes, so ``milp`` uses it
    as it is instead of converting a dense matrix on every call.
    """
    matrix = np.asarray([row.coeffs for row in rows], dtype=float)
    rhs = np.asarray([row.rhs for row in rows], dtype=float)
    lower = [row.relation is Relation.LE for row in rows]
    upper = [row.relation is Relation.GE for row in rows]
    return LinearConstraint(
        csc_array(matrix.reshape(len(rows), num_vars)),
        np.where(lower, -np.inf, rhs),
        np.where(upper, np.inf, rhs),
    )


def _box(bounds: Sequence[tuple[int, int]]) -> Bounds:
    return Bounds(
        np.asarray([b[0] for b in bounds], dtype=float),
        np.asarray([b[1] for b in bounds], dtype=float),
    )


# scipy's RuntimeWarning about an option it passes on verbatim, and the
# OptimizeWarning of a HiGHS too old to know the option (which then runs the
# heuristic: same answers, slower)
_FEASIBILITY_JUMP_WARNING = (
    r"Unrecognized options detected: \{'mip_heuristic_run_feasibility_jump'"
)


def _milp_once(
    objective: Sequence[int],
    constant: int,
    rows: Sequence[Row],
    constraint: LinearConstraint,
    bounds: Sequence[tuple[int, int]],
    box: Bounds,
    node_budget: int,
) -> tuple[int, tuple[int, ...]] | None:
    """One exact MILP solve: (objective, x) or ``None`` when infeasible.

    ``constraint`` is ``rows`` compiled by :func:`_compile_rows` and ``box``
    is ``bounds`` built by :func:`_box`; the rows and bounds themselves
    serve the exact integer check of the returned point.
    """
    num_vars = len(objective)
    if num_vars == 0:
        return (constant, ()) if _rows_hold(rows, ()) else None
    c = -np.asarray(objective, dtype=float)
    options = {
        "mip_rel_gap": 0.0,
        "node_limit": node_budget,
        # a fixed cost of about 12 ms per call here; see the module docstring
        "mip_heuristic_run_feasibility_jump": False,
    }
    # presolve can misreduce a feasible model to infeasible (seen with a fixed
    # variable inside an equality row) or fail outright with "Solve error"
    # (seen on an infeasible model whose LP relaxation is feasible); either
    # verdict is settled by a presolve-off re-solve, and an infeasibility
    # verdict only counts when reproduced there
    retry = {**options, "presolve": False}
    for attempt in (options, retry):
        with _stdout_discarded(), warnings.catch_warnings():
            # scipy passes options it does not know to HiGHS verbatim, with a
            # warning that would otherwise land on stderr
            warnings.filterwarnings("ignore", _FEASIBILITY_JUMP_WARNING)
            result = milp(
                c,
                constraints=constraint,
                bounds=box,
                integrality=np.ones(num_vars),
                options=attempt,
            )
        if result.status not in (2, 4):
            break
        if attempt is retry and result.status == 2:
            return None
    if result.status == 1:
        raise SolverResourceError(f"node budget of {node_budget} exhausted")
    if result.status != 0 or result.x is None:
        raise SolverNumericalError(
            f"MILP backend failed (status {result.status}): {result.message}"
        )
    x = tuple(int(round(v)) for v in result.x)
    if not (_within_bounds(x, bounds) and _rows_hold(rows, x)):
        raise SolverNumericalError(
            "MILP point fails exact integer verification"
        )
    value = sum(c * v for c, v in zip(objective, x)) + constant
    return value, x


# a block's mixed-radix key ranges over fewer than this many values; HiGHS
# accepts a point within 1e-6 of integral (mip_feasibility_tolerance), so the
# key of an accepted point can sit at most about range * 1e-6 < 0.5 off the
# key of its rounded point, which keeps a better integer key from hiding
_BLOCK_RANGE = 2**18


def _block_size(widths: Sequence[int]) -> int:
    """How many leading slots of ``widths`` form one block: as many as keep
    the product of their widths within :data:`_BLOCK_RANGE`, at least one."""
    size, product = 1, widths[0]
    while size < len(widths) and product * widths[size] <= _BLOCK_RANGE:
        product *= widths[size]
        size += 1
    return size


def lex_refine(
    problem: IlpProblem,
    optimum: int,
    seed: Sequence[int],
    stop: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...]:
    """An optimal point whose slots ``[0, stop)`` are lexicographically
    smallest among all points of ``problem`` with objective ``optimum``.

    ``seed`` must be such a point; it is checked exactly against the bounds,
    the rows and the objective pin. The current point stays feasible for
    every slot fixed so far, so a slot it holds at its lower bound has that
    bound as its minimum and is fixed without a solve. The other slots are
    minimized in blocks, one MILP per block: the block's objective is the
    mixed-radix number sum w_j (x_j - lo_j), with w_j the product of the
    widths after slot j in the block.

    A seed that fails the check, or a block solve that finds no point,
    raises :class:`SolverNumericalError`.
    """
    pin = Row(
        name="objective_pin",
        coeffs=problem.objective,
        relation=Relation.EQ,
        rhs=optimum - problem.objective_constant,
    )
    rows = problem.rows + (pin,)
    bounds = list(problem.bounds)
    x = tuple(seed)
    if not (_within_bounds(x, bounds) and _rows_hold(rows, x)):
        raise SolverNumericalError(f"seed point misses the optimum {optimum}")
    constraint = _compile_rows(rows, problem.num_vars)
    j = 0
    while j < stop:
        if x[j] == bounds[j][0]:
            bounds[j] = (x[j], x[j])
            j += 1
            continue
        widths = [hi - lo + 1 for lo, hi in bounds[j:stop]]
        block = range(j, j + _block_size(widths))
        key = [0] * problem.num_vars
        weight = 1
        for i in reversed(block):
            key[i] = -weight
            weight *= widths[i - j]
        result = _milp_once(
            key, 0, rows, constraint, bounds, _box(bounds), node_budget
        )
        if result is None:
            raise SolverNumericalError(f"no point at the optimum {optimum}")
        _, x = result
        for i in block:
            bounds[i] = (x[i], x[i])
        j = block.stop
    return x


def solve_ilp(
    problem: IlpProblem,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    refine: bool = True,
) -> IntSolution | None:
    """Exact integer optimum, or ``None`` when infeasible.

    Deterministic: repeated calls return identical results. With ``refine``
    (the default) the returned vector is the lexicographically smallest among
    all optimal integer solutions; without it, the first optimal vector found.
    A refined solve makes at most one MILP call per :func:`lex_refine` block
    after the first.
    """
    constraint = _compile_rows(problem.rows, problem.num_vars)
    box = _box(problem.bounds)
    if problem.num_vars and problem.rows:
        # root LP infeasibility settles most subproblems at a fraction of a
        # full MILP call's cost; any verdict but a proven infeasible one
        # (status 2) is left to the MILP
        with _stdout_discarded():
            root = milp(
                -np.asarray(problem.objective, dtype=float),
                constraints=constraint,
                bounds=box,
            )
        if root.status == 2:
            return None
    result = _milp_once(
        problem.objective,
        problem.objective_constant,
        problem.rows,
        constraint,
        problem.bounds,
        box,
        node_budget,
    )
    if result is None:
        return None
    value, x = result
    if refine and problem.num_vars:
        x = lex_refine(problem, value, x, problem.num_vars, node_budget=node_budget)
    return IntSolution(x=tuple(x), objective=value)


def solve_ilp_reference(
    problem: IlpProblem,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    refine: bool = True,
) -> IntSolution | None:
    """Same contract as :func:`solve_ilp`, solved by the in-tree search.

    Orders of magnitude slower than the HiGHS route on hard instances; meant
    for cross-checking small problems, not production runs.
    """
    budget = _Budget(node_budget)
    result = _branch_and_bound(
        problem.objective,
        problem.objective_constant,
        problem.rows,
        problem.bounds,
        budget,
    )
    if result is None:
        return None
    value, x = result
    if refine and problem.num_vars:
        x = _lexicographic_refine(problem, value, x, budget)
    return IntSolution(x=tuple(x), objective=value)


def brute_force(
    problem: IlpProblem, *, max_points: int = BRUTE_FORCE_LIMIT
) -> IntSolution | None:
    """Exhaustively enumerate the bound box; oracle twin of :func:`solve_ilp`.

    Same contract: maximal objective, lexicographically smallest vector among
    optima, ``None`` when infeasible. Raises :class:`CapacityError` when the
    box holds more than ``max_points`` points.
    """
    widths = [hi - lo + 1 for lo, hi in problem.bounds]
    total = math.prod(widths)
    if total > max_points:
        raise CapacityError(
            f"bound box holds {total} points, above the {max_points} limit"
        )
    if problem.num_vars == 0:
        if _rows_hold(problem.rows, ()):
            return IntSolution((), problem.objective_constant)
        return None

    lows = np.array([lo for lo, _ in problem.bounds], dtype=np.int64)
    widths_arr = np.array(widths, dtype=np.int64)
    weights = np.ones(problem.num_vars, dtype=np.int64)
    for j in range(problem.num_vars - 2, -1, -1):
        weights[j] = weights[j + 1] * widths_arr[j + 1]
    coeff_matrix = (
        np.array([row.coeffs for row in problem.rows], dtype=np.int64).T
        if problem.rows
        else None
    )
    c = np.array(problem.objective, dtype=np.int64)
    best: tuple[int, tuple[int, ...]] | None = None
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        grid = lows[None, :] + (idx[:, None] // weights[None, :]) % widths_arr[None, :]
        if coeff_matrix is not None:
            values = grid @ coeff_matrix
            mask = np.ones(len(idx), dtype=bool)
            for r, row in enumerate(problem.rows):
                col = values[:, r]
                if row.relation is Relation.LE:
                    mask &= col <= row.rhs
                elif row.relation is Relation.GE:
                    mask &= col >= row.rhs
                else:
                    mask &= col == row.rhs
            if not mask.any():
                continue
        else:
            mask = np.ones(len(idx), dtype=bool)
        objective = grid @ c + problem.objective_constant
        masked = np.where(mask, objective, np.iinfo(np.int64).min)
        top = int(masked.max())
        if best is None or top > best[0]:
            # argmax takes the first maximum; the grid is in lexicographic
            # order, so this is the lex-smallest optimum of the chunk
            i = int(np.argmax(masked))
            best = (top, tuple(int(v) for v in grid[i]))
    if best is None:
        return None
    return IntSolution(x=best[1], objective=best[0])
