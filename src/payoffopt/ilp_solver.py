"""Exact solver for bounded integer linear programs.

:func:`solve_ilp` is HiGHS's dual simplex and branch and cut (Huangfu & Hall,
*Math. Prog. Comp.* 2018) with a zero optimality gap, driven through the
binding scipy bundles. Each program is loaded once, into a HiGHS instance
it holds alone, as plain Python sequences: its columns in one call and its
rows in one more. Every solve of it runs on that instance in place: the
root LP, and the first MILP with its presolve-off recheck when the root LP
does not settle the program, in :func:`solve_ilp`, which then pins the
objective at its optimum with one added row and returns the loaded
:class:`Program`; then one LP per block, and a MILP only when its optimum is
not integral, in every :meth:`Program.refine`, which changes only each
block's costs and the bounds it fixes. Each run starts from nothing of the
one before, so its search is the one a freshly loaded model would get. A
released program hands its instance back, and the next load clears it of
its model, solver state and options before setting its own, so the process
keeps at most one idle instance and a reused one solves as a new one
would. The search runs in floating point, but every returned point is
re-verified and its objective recomputed in exact integer arithmetic
before acceptance. A relaxation's rounded point is accepted only when it
passes that check at the relaxation's optimal value, which bounds every
integer point, so it is an integer optimum (Wolsey, *Integer Programming*,
1998, ch. 2); that bound is a float, the same trust the first MILP's proof
of optimality gets. Among optima the
lexicographically smallest solution vector is returned by
:meth:`Program.refine`: with the objective pinned at its optimal value, the
slots are minimized in blocks, one solve per block whose objective reads
the block as one mixed-radix number, starting from the first optimal
point. A slot that point already holds at its lower bound is fixed there
without a solve (lexicographic optimization as a sequence of
epsilon-constraint programs; Ehrgott, *Multicriteria Optimization*, 2005,
ch. 5). HiGHS's feasibility-jump heuristic (Luteberget & Sartor, *Math.
Prog. Comp.* 2023) is switched off: on these small programs it is a fixed
cost of about 12 ms per call, most of the solve. Once the objective is
pinned, the RINS and RENS sub-MIPs (Danna, Rothberg & Le Pape, *Math. Prog.*
102, 2005; Berthold, *Math. Prog. Comp.* 6, 2014) are switched off too, for
every MILP of a refine (:data:`_PINNED_OPTIONS`): on the fixture they spent
about a quarter of Stage A's LP iterations, and without them that stage
takes about 53 ms instead of 85. The first MILP keeps them; without them
it took nearly twice as long on the fixture without a cost target. These
heuristics only propose incumbents, so the proven optimum, and the unique
lexicographically smallest optimal point the refine returns, cannot change.

The exact infeasibility proofs run before this module is called (see
:func:`~payoffopt.optimizer.optimize`); here a root LP, the relaxation of
the loaded integer model, settles most infeasible programs, and most
feasible ones, before any MILP. Each solve is one of three kinds of run and
sets its kind's options (:data:`_KINDS`): an ``lp``, the relaxation; a
``milp``, the integer model with HiGHS's default presolve; a ``recheck``, the
integer model without presolve. No verdict or point of a presolved
relaxation is used, and no infeasibility verdict of a presolved MILP is
trusted: every ``lp`` runs unpresolved, and a ``milp`` verdict is re-solved
by a ``recheck``.

An infeasible problem gives ``None``; only HiGHS's infeasible model status
counts as one. A program HiGHS rejects as a model error, or one with a
number beyond floating point, raises :class:`SolverError` instead. Every
MILP runs under the node limit :data:`NODE_BUDGET`; running out raises its
subclass :class:`SolverResourceError`, never a silently wrong answer. The
tests compare against an exhaustive enumeration of the bound box under the
same contract.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

from scipy.optimize._highspy._core import (
    HighsModelStatus,
    HighsStatus,
    HighsVarType,
    MatrixFormat,
    ObjSense,
    _Highs,
)

from .model_builder import IlpProblem, Relation, Row

# HiGHS node limit of every MILP call
NODE_BUDGET = 10_000_000


class SolverError(RuntimeError):
    """The backend failed or returned something unusable; a failure, never
    a verdict of infeasibility."""


class SolverResourceError(SolverError):
    """The node budget was exhausted before the search finished."""


def _holds(
    x: Sequence[int], rows: Sequence[Row], bounds: Sequence[tuple[int, int]]
) -> bool:
    """Whether ``x`` lies within ``bounds`` and meets every row, exactly."""
    within = all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))
    return len(x) == len(bounds) and within and all(row.satisfied(x) for row in rows)


# every solve's options but the node limit, which is read when a program is
# loaded: log to no console, prove optimality with a zero gap, and skip the
# feasibility-jump heuristic (a fixed cost of about 12 ms per call here; see
# the module docstring)
_OPTIONS = (
    ("log_to_console", False),
    ("mip_rel_gap", 0.0),
    ("mip_heuristic_run_feasibility_jump", False),
)

# the options set once the objective is pinned, for every later MILP of the
# program: skip the RINS and RENS sub-MIPs (see the module docstring)
_PINNED_OPTIONS = (
    ("mip_heuristic_run_rins", False),
    ("mip_heuristic_run_rens", False),
)

# how a search stopped by one of HiGHS's limits ends; the node limit is the
# only one set, and HiGHS reports reaching it as the solution limit
_LIMITS = (
    HighsModelStatus.kSolutionLimit,
    HighsModelStatus.kIterationLimit,
    HighsModelStatus.kTimeLimit,
)


def _failure(highs: _Highs, status: HighsModelStatus) -> str:
    text = highs.modelStatusToString(status)
    return f"MILP backend failed (status {int(status)}): {text}"


def _floats(values: Iterable[int | float]) -> list[float]:
    """``values`` as floats; one beyond floating point raises
    :class:`SolverError`."""
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise SolverError(f"program exceeds floating point: {exc}") from exc


def _finite(
    highs: _Highs, values: list[float], option: str, what: str
) -> list[float]:
    """``values``, each below the infinity that HiGHS's ``option`` sets in
    magnitude; HiGHS would read a larger one as infinite, so it raises
    :class:`SolverError` that names it."""
    _, infinity = highs.getOptionValue(option)
    if max(map(abs, values), default=0.0) >= infinity:
        value = next(v for v in values if abs(v) >= infinity)
        raise SolverError(
            f"program exceeds the solver's range: {what} {value:g} "
            f"reaches its {option} {infinity:g}"
        )
    return values


def _add_rows(highs: _Highs, rows: Sequence[Row]) -> None:
    """Add ``rows`` to the model ``highs`` holds, in one call.

    Each row goes to HiGHS as its two sides, an infinite one where the row
    is open, and its nonzero coefficients. A number beyond floating point,
    a coefficient that HiGHS would read as infinite (see :func:`_finite`),
    or a row HiGHS rejects (for instance a coefficient of 1e15 or more),
    raises :class:`SolverError`. A side of 1e20 or more is left to HiGHS,
    which reads it as infinite, so the row is open on that side.
    """
    lower, upper, starts, index, value = [], [], [], [], []
    for row in rows:
        lower.append(-math.inf if row.relation is Relation.LE else row.rhs)
        upper.append(math.inf if row.relation is Relation.GE else row.rhs)
        starts.append(len(index))
        for j, c in enumerate(row.coeffs):
            if c:
                index.append(j)
                value.append(c)
    value = _finite(highs, _floats(value), "infinite_bound", "coefficient")
    status = highs.addRows(
        len(rows), _floats(lower), _floats(upper), len(index), starts, index, value
    )
    if status == HighsStatus.kError:
        raise SolverError(_failure(highs, HighsModelStatus.kModelError))


def _load(
    highs: _Highs,
    objective: Sequence[int],
    rows: Sequence[Row],
    bounds: Sequence[tuple[int, int]],
) -> None:
    """Set ``highs`` up for every solve of ``max objective . x`` subject to
    ``rows`` and ``bounds``, every column integer.

    The instance is cleared first: whatever an earlier program left on it,
    model, solver state or options, is gone, and the options are set as on a
    new instance. The columns, their costs, boxes and integrality, go to
    HiGHS in one call, and the rows in one more, by :func:`_add_rows`. A
    number beyond floating point, a cost, bound or matrix entry that HiGHS
    would read as infinite (see :func:`_finite`), or a model HiGHS rejects
    (for instance a matrix entry of 1e15 or more), raises
    :class:`SolverError`.
    """
    num_vars = len(bounds)
    cost = _floats(-c for c in objective)
    lower, upper = map(_floats, zip(*bounds))
    highs.clear()
    for option, value in _OPTIONS:
        highs.setOptionValue(option, value)
    highs.setOptionValue("mip_max_nodes", NODE_BUDGET)
    _finite(highs, cost, "infinite_cost", "cost")
    _finite(highs, lower + upper, "infinite_bound", "bound")
    # no matrix yet: every entry comes with the rows
    status = highs.passModel(
        num_vars, 0, 0, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
        cost, lower, upper, [], [], [], [], [], [HighsVarType.kInteger] * num_vars,
    )
    if status == HighsStatus.kError:
        raise SolverError(_failure(highs, HighsModelStatus.kModelError))
    _add_rows(highs, rows)


# the options that make each kind of run (see the module docstring)
_KINDS = {
    "lp": (("solve_relaxation", True), ("presolve", "off")),
    "milp": (("solve_relaxation", False), ("presolve", "choose")),
    "recheck": (("solve_relaxation", False), ("presolve", "off")),
}


def _run(highs: _Highs, kind: str) -> HighsModelStatus:
    """Solve the model ``highs`` holds as a ``kind`` run; every solve runs here.

    The solve starts from nothing of an earlier one on the instance: no
    basis, and no point that HiGHS would take as its first incumbent. Each
    search is then the one a freshly loaded model would get.
    """
    for option, value in _KINDS[kind]:
        highs.setOptionValue(option, value)
    highs.clearSolver()
    highs.run()
    return highs.getModelStatus()


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


class Program:
    """A program loaded into one HiGHS instance, and every solve of it.

    :func:`solve_ilp` loads and solves it, keeps the first optimal point
    ``x`` and its value ``objective``, and pins the objective there with one
    added row; each :meth:`refine` continues on the instance. ``rows`` are
    the rows the instance holds (the program's, then the pin), ``bounds``
    the box of its latest solve (the program's own until a refine narrows
    it), and ``problem`` the program as given.

    The instance is the process's idle one, or a new one when there is
    none, and no other live program holds it. When the program is released
    the instance becomes the idle one, replacing any other.
    """

    x: tuple[int, ...]
    objective: int

    # the process's idle instance, if any; a class attribute, so a program
    # released while the interpreter shuts down still finds it. Taking it is
    # one pop and handing it back one slice assignment, each a single list
    # operation, so programs built on two threads never share an instance
    _idle: list[_Highs] = []

    def __init__(self, problem: IlpProblem) -> None:
        self.problem = problem
        try:
            self.highs = self._idle.pop()
        except IndexError:
            self.highs = _Highs()
        _load(self.highs, problem.objective, problem.rows, problem.bounds)
        self.rows = problem.rows
        self.bounds = problem.bounds

    def __del__(self) -> None:
        self._idle[:] = [self.highs]

    def _point(self) -> tuple[int, ...] | None:
        """HiGHS's point, rounded, or ``None`` if it fails the exact check."""
        x = tuple(int(round(v)) for v in self.highs.getSolution().col_value)
        return x if _holds(x, self.rows, self.bounds) else None

    def _milp_once(self) -> tuple[int, ...] | None:
        """The optimal point of one MILP solve of the loaded model, checked
        exactly against ``rows`` and ``bounds``, or ``None`` when the model is
        infeasible."""
        status = _run(self.highs, "milp")
        if status != HighsModelStatus.kOptimal and status not in _LIMITS:
            # presolve can misreduce a feasible model to infeasible (seen with
            # a fixed variable inside an equality row) or fail outright with
            # "Solve error" (seen on an infeasible model whose LP relaxation
            # is feasible); either verdict is settled by a presolve-off
            # re-solve, and an infeasibility verdict only counts when
            # reproduced there
            status = _run(self.highs, "recheck")
            if status == HighsModelStatus.kInfeasible:
                return None
        if status in _LIMITS:
            raise SolverResourceError(f"node budget of {NODE_BUDGET} exhausted")
        if status != HighsModelStatus.kOptimal:
            raise SolverError(_failure(self.highs, status))
        x = self._point()
        if x is None:
            raise SolverError("MILP point fails exact integer verification")
        return x

    def _relaxed_optimum(
        self, cost: Sequence[int]
    ) -> tuple[HighsModelStatus, tuple[int, ...] | None]:
        """The status of the loaded model's relaxation, solved without
        presolve, and its rounded point when that point is an exact integer
        optimum: HiGHS reports the relaxation optimal, the point meets
        ``rows`` and ``bounds`` exactly, and its integer ``cost``, which the
        model minimizes, is within 0.5 of the relaxation's optimal value.

        That value bounds the cost of every integer point from below, and
        costs are integers, so no integer point is cheaper than one within
        0.5 of it. Otherwise the point is ``None``, and the program needs a
        MILP.
        """
        status = _run(self.highs, "lp")
        x = self._point() if status == HighsModelStatus.kOptimal else None
        if x is None:
            return status, None
        (value,) = _floats([sum(map(operator.mul, cost, x))])
        if abs(value - self.highs.getObjectiveValue()) >= 0.5:
            return status, None
        return status, x

    def refine(
        self,
        x: tuple[int, ...],
        stop: int,
        bounds: Sequence[tuple[int, int]] | None = None,
    ) -> tuple[int, ...]:
        """An optimal point whose slots ``[0, stop)`` are lexicographically
        smallest among all points of the program within ``bounds`` (by
        default the program's own) with objective ``objective``.

        The refine starts from ``x``, which must be such a point; it is
        checked exactly against the bounds, the rows and the objective pin.
        The current point stays feasible for every slot fixed so far, so a
        slot it holds at its lower bound has that bound as its minimum and is
        fixed without a solve. The other slots are minimized in blocks on the
        loaded instance, one LP per block, and a MILP only when its optimum
        is not integral: the block's objective is the mixed-radix number
        sum w_j (x_j - lo_j), with w_j the product of the widths after slot j
        in the block. That key fixes the block's values, whichever solve
        finds its minimum.

        A start point that fails the check, or a block solve that finds no
        point, raises :class:`SolverError`. The instance stays pinned, so a
        second refine can continue from the returned point within other
        bounds.
        """
        bounds = list(self.problem.bounds if bounds is None else bounds)
        if not _holds(x, self.rows, bounds):
            raise SolverError(f"seed point misses the optimum {self.objective}")
        num_vars = len(bounds)
        j = 0
        while j < stop:
            if x[j] == bounds[j][0]:
                bounds[j] = (x[j], x[j])
                j += 1
                continue
            widths = [hi - lo + 1 for lo, hi in bounds[j:stop]]
            block = range(j, j + _block_size(widths))
            cost = [0] * num_vars
            weight = 1
            for i in reversed(block):
                cost[i] = weight
                weight *= widths[i - j]
            lower, upper = zip(*bounds)
            self.highs.changeColsBounds(num_vars, range(num_vars), lower, upper)
            self.highs.changeColsCost(num_vars, range(num_vars), cost)
            self.bounds = tuple(bounds)
            _, x = self._relaxed_optimum(cost)
            if x is None:
                x = self._milp_once()
            if x is None:
                raise SolverError(f"no point at the optimum {self.objective}")
            for i in block:
                bounds[i] = (x[i], x[i])
            j = block.stop
        return x


def solve_ilp(problem: IlpProblem) -> Program | None:
    """The program loaded with its first optimum, or ``None`` when infeasible.

    Deterministic: repeated calls give identical points. The root LP settles
    the program when it is infeasible, or when its rounded point is an exact
    integer optimum; otherwise one MILP does. The returned program holds
    that point and its value, and its instance holds the objective pinned at
    that value, for :meth:`Program.refine` to pick the lexicographically
    smallest optimum.
    """
    # the root LP, unpresolved so that its infeasible verdict is not a
    # presolved one; that verdict settles the program, and so does a point
    # that is an exact integer optimum; any other outcome, a failure
    # included, leaves the program to the MILP
    program = Program(problem)
    root, x = program._relaxed_optimum([-c for c in problem.objective])
    if root == HighsModelStatus.kInfeasible:
        return None
    if x is None:
        x = program._milp_once()
    if x is None:
        return None
    value = sum(map(operator.mul, problem.objective, x))
    # the objective pin, one more row on the instance for every refine
    pin = Row("objective_pin", problem.objective, Relation.EQ, value)
    _add_rows(program.highs, (pin,))
    for option, setting in _PINNED_OPTIONS:
        program.highs.setOptionValue(option, setting)
    program.rows += (pin,)
    program.x, program.objective = x, value
    return program
