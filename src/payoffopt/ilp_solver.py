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
refine returns, cannot change.

Before any HiGHS call, :func:`solve_ilp` asks whether the equality rows alone
have an integer solution at all, whatever the bounds. It decides this in
exact integer arithmetic by column-style Euclidean elimination to Hermite
normal form (Kannan & Bachem, *SIAM J. Comput.* 1979; Schrijver, *Theory of
Linear and Integer Programming*, 1986, Cor. 4.1a). A "no" is a proof, so the
program is infeasible without a solver call and without a presolve-off
recheck. Otherwise the program's rows are compiled once into a sparse matrix,
and a root LP on them (the same ``milp`` call with no integrality) settles
most of the remaining infeasible programs before any MILP.

An infeasible problem gives ``None``. A program HiGHS rejects as a model
error, or one with a number beyond floating point, raises
:class:`SolverError` instead. Every MILP runs under the node limit
:data:`NODE_BUDGET`; running out raises its subclass
:class:`SolverResourceError`, never a silently wrong answer. The tests
compare against an exhaustive enumeration of the bound box under the same
contract.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp
from scipy.sparse import csc_array

from .model_builder import IlpProblem, Relation, Row

# HiGHS node limit of every MILP call
NODE_BUDGET = 10_000_000


class SolverError(RuntimeError):
    """The backend failed or returned something unusable; a failure, never
    a verdict of infeasibility."""


class SolverResourceError(SolverError):
    """The node budget was exhausted before the search finished."""


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


def _equalities_lack_integer_point(problem: IlpProblem) -> bool:
    """Whether ``problem``'s equality rows have no integer solution, bounds
    ignored; a proof of infeasibility when true.

    Unimodular column operations (Euclid on each row in turn) bring the
    equality matrix to echelon form; the variable of each row's pivot
    column is then forced to a single value, which must be an integer, and
    a row left with no pivot must already hold.
    """
    equalities = [row for row in problem.rows if row.relation is Relation.EQ]
    rhs = [row.rhs for row in equalities]
    columns = [list(col) for col in zip(*(row.coeffs for row in equalities))]
    for i in range(len(equalities)):
        live = [col for col in columns if col[i]]
        while len(live) > 1:
            pivot = min(live, key=lambda col: abs(col[i]))
            for col in live:
                if col is not pivot:
                    q = col[i] // pivot[i]
                    for k in range(i, len(col)):
                        col[k] -= q * pivot[k]
            live = [col for col in live if col[i]]
        if not live:
            if rhs[i]:
                return True
            continue
        pivot = live[0]
        value, remainder = divmod(rhs[i], pivot[i])
        if remainder:
            return True
        for k in range(i + 1, len(rhs)):
            rhs[k] -= value * pivot[k]
        columns = [col for col in columns if col is not pivot]
    return False


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


def _proven_infeasible(result: OptimizeResult) -> bool:
    """Whether HiGHS proved the program infeasible.

    scipy gives a model HiGHS rejects (its ``kModelError``, for instance a
    matrix entry of 1e15 or more) the same status 2 as an infeasible one;
    only the message tells the infeasible model status apart.
    """
    return result.status == 2 and result.message.startswith("The problem is infeasible")


def _root_lp_infeasible(
    objective: Sequence[int], constraint: LinearConstraint, box: Bounds
) -> bool:
    """Whether the LP relaxation is proven infeasible.

    It settles most infeasible programs at a fraction of a MILP call's cost;
    any other outcome, a failure included, leaves the verdict to the MILP.
    """
    with _stdout_discarded():
        root = milp(
            -np.asarray(objective, dtype=float), constraints=constraint, bounds=box
        )
    return _proven_infeasible(root)


def _milp_once(
    objective: Sequence[int],
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
                integrality=np.ones(len(objective)),
                options=attempt,
            )
        if result.status not in (2, 4):
            break
        if attempt is retry and _proven_infeasible(result):
            return None
    if result.status == 1:
        raise SolverResourceError(f"node budget of {NODE_BUDGET} exhausted")
    if result.status != 0 or result.x is None:
        raise SolverError(
            f"MILP backend failed (status {result.status}): {result.message}"
        )
    x = tuple(int(round(v)) for v in result.x)
    if not (_within_bounds(x, bounds) and _rows_hold(rows, x)):
        raise SolverError("MILP point fails exact integer verification")
    return sum(c * v for c, v in zip(objective, x)), x


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
    raises :class:`SolverError`. The seed proves the program feasible, so
    no exact equality check runs here.
    """
    pin = Row(
        name="objective_pin",
        coeffs=problem.objective,
        relation=Relation.EQ,
        rhs=optimum,
    )
    rows = problem.rows + (pin,)
    bounds = list(problem.bounds)
    x = tuple(seed)
    if not (_within_bounds(x, bounds) and _rows_hold(rows, x)):
        raise SolverError(f"seed point misses the optimum {optimum}")
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
        result = _milp_once(key, rows, constraint, bounds, _box(bounds))
        if result is None:
            raise SolverError(f"no point at the optimum {optimum}")
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
    if _equalities_lack_integer_point(problem):
        return None
    try:
        constraint = _compile_rows(problem.rows, problem.num_vars)
        box = _box(problem.bounds)
    except OverflowError as exc:
        raise SolverError(f"program exceeds floating point: {exc}") from exc
    if _root_lp_infeasible(problem.objective, constraint, box):
        return None
    result = _milp_once(
        problem.objective, problem.rows, constraint, problem.bounds, box
    )
    if result is None:
        return None
    value, x = result
    if refine:
        x = lex_refine(problem, value, x, problem.num_vars)
    return IntSolution(x=tuple(x), objective=value)

