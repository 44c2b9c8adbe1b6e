"""Exact solver for bounded integer linear programs.

:func:`solve_ilp` is HiGHS branch and cut (scipy's ``milp``) with a zero
optimality gap. The search runs in floating point, but the returned point is
re-verified and its objective recomputed in exact integer arithmetic before
acceptance. Among optima the lexicographically smallest solution vector is
returned by :func:`lex_refine`: with the objective pinned at its optimal
value, the slots are minimized in blocks, one MILP per block whose objective
reads the block as one mixed-radix number, starting from the first optimal
point. A slot that point already holds at its lower bound is fixed there
without a solve (lexicographic optimization as a sequence of
epsilon-constraint programs; Ehrgott, *Multicriteria Optimization*, 2005,
ch. 5). HiGHS's feasibility-jump heuristic (Luteberget & Sartor, *Math. Prog.
Comp.* 2023) is switched off: on these small programs it is a fixed cost of
about 12 ms per call, most of the solve. It only proposes incumbents, so the
proven optimum, and the unique lexicographically smallest optimal point the
refine returns, cannot change. Each program's rows are compiled once into a
sparse matrix, and a root LP on them (the same ``milp`` call with no
integrality) settles most infeasible programs before any MILP.

:func:`brute_force` enumerates the bound box exhaustively in int64 chunks
under the same contract; it is the oracle the tests compare against.

Both return ``None`` for an infeasible problem. Every MILP runs under the
node limit :data:`NODE_BUDGET`; running out raises
:class:`SolverResourceError`, never a silently wrong answer.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csc_array

from .model_builder import CapacityError, IlpProblem, Relation, Row

# HiGHS node limit of every MILP call
NODE_BUDGET = 10_000_000
# most points brute_force will enumerate
BRUTE_FORCE_LIMIT = 100_000_000


class SolverError(RuntimeError):
    """Base class for solver failures that are not plain infeasibility."""


class SolverResourceError(SolverError):
    """The node budget was exhausted before the search finished."""


class SolverNumericalError(SolverError):
    """The LP backend failed or returned something unusable."""


@dataclass(frozen=True)
class IntSolution:
    """An exact integer optimum: slot values and objective in cents."""

    x: tuple[int, ...]
    objective: int


def _rows_hold(rows: Sequence[Row], x: Sequence[int]) -> bool:
    return all(row.satisfied(x) for row in rows)


def _within_bounds(x: Sequence[int], bounds: Sequence[tuple[int, int]]) -> bool:
    return all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))


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
        "node_limit": NODE_BUDGET,
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
        raise SolverResourceError(f"node budget of {NODE_BUDGET} exhausted")
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
        result = _milp_once(key, 0, rows, constraint, bounds, _box(bounds))
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
    )
    if result is None:
        return None
    value, x = result
    if refine and problem.num_vars:
        x = lex_refine(problem, value, x, problem.num_vars)
    return IntSolution(x=tuple(x), objective=value)


def brute_force(problem: IlpProblem) -> IntSolution | None:
    """Exhaustively enumerate the bound box; oracle twin of :func:`solve_ilp`.

    Same contract: maximal objective, lexicographically smallest vector among
    optima, ``None`` when infeasible. Raises :class:`CapacityError` when the
    box holds more than :data:`BRUTE_FORCE_LIMIT` points.
    """
    widths = [hi - lo + 1 for lo, hi in problem.bounds]
    total = math.prod(widths)
    if total > BRUTE_FORCE_LIMIT:
        raise CapacityError(
            f"bound box holds {total} points, above the {BRUTE_FORCE_LIMIT} limit"
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
