"""Answers computed apart from payoffopt, and the checker that holds a
command's output against them.

Nothing here imports payoffopt. The strategy's constraints are compiled from
their definition in terms of the payoff function: every linear form below is
the value, in cents, of one contract per slot at some terminal price, so a
row is "payoff at strike k" or "payoff at k2 minus payoff at k1" rather than a
copy of the coefficients `model_builder.build_subproblem` writes. Two routes
use that compilation:

* `enumerate_optimum` walks every ask/bid combination and its whole quantity
  box with numpy (small instances);
* `milp_optimum` solves one disjunctive MILP over all combinations at once
  (x = p - q with one binary per slot), first for the best objective, then,
  with the objective pinned, for the smallest combination index.

`check_optimize` compares one `payoffopt optimize --format json` outcome
(exit code, the bytes written to file descriptors 1 and 2) with a reference
answer and says whether the command is correct, failed, or wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

CENTS = 100

OK, FAILED, WRONG = "ok", "failed", "wrong"

_DOC_KEYS = {"combination", "initial_cost", "objective", "quantities", "total_contracts"}
# counts of the scan over every combination; checked when present, since a
# formulation that does not solve each combination need not report them
_COUNT_KEYS = {"combos_infeasible", "combos_solved"}


def cents(text: str) -> int:
    """Exact cents of a decimal money string."""
    value = Decimal(text) * CENTS
    if value != value.to_integral_value():
        raise ValueError(f"not a whole number of cents: {text!r}")
    return int(value)


def money_text(value: int) -> str:
    sign = "-" if value < 0 else ""
    return f"{sign}{abs(value) // CENTS}.{abs(value) % CENTS:02d}"


@dataclass(frozen=True)
class Instance:
    """One series and one strategy. Strikes are index points, money is cents.

    ``cost`` is ``(comparator, cents)`` for a net-debit target, or None.
    """

    call_strikes: tuple[int, ...]
    put_strikes: tuple[int, ...]
    call_asks: tuple[int, ...]
    call_bids: tuple[int, ...]
    put_asks: tuple[int, ...]
    put_bids: tuple[int, ...]
    expected_price: int
    inflection: int
    max_loss: int
    lower: int
    upper: int
    epsilon: int
    pnl_mode: bool
    balance_left: bool
    balance_right: bool
    cost: tuple[str, int] | None

    @property
    def n(self) -> int:
        return len(self.call_strikes)

    @property
    def slots(self) -> int:
        return 2 * self.n

    def asks(self) -> np.ndarray:
        return np.array(self.call_asks + self.put_asks, dtype=np.int64)

    def bids(self) -> np.ndarray:
        return np.array(self.call_bids + self.put_bids, dtype=np.int64)

    def side_bits(self, index: int) -> list[bool]:
        """Ask (True) or bid per slot; the first call slot is the top bit."""
        return [bool((index >> (self.slots - 1 - i)) & 1) for i in range(self.slots)]

    def prices(self, index: int) -> np.ndarray:
        return np.where(self.side_bits(index), self.asks(), self.bids())

    def box(self, index: int) -> list[tuple[int, int]]:
        return [(0, self.upper) if ask else (self.lower, 0) for ask in self.side_bits(index)]

    def payoff_at(self, price: int) -> np.ndarray:
        """Value in cents of one contract per slot at a terminal price (cents)."""
        calls = [max(price - k * CENTS, 0) for k in self.call_strikes]
        puts = [max(k * CENTS - price, 0) for k in self.put_strikes]
        return np.array(calls + puts, dtype=np.int64)


@dataclass(frozen=True)
class Form:
    """``a . x + w * cost(x)  rel  rhs``, where cost(x) is the net debit."""

    name: str
    a: np.ndarray
    w: int
    rel: str
    rhs: int


def compile_forms(inst: Instance) -> tuple[list[Form], Form]:
    """The constraints and the objective (as a Form whose rel/rhs are unused).

    Payoff-only mode pins each flat tail's gross payoff to ``-max_loss`` and
    asks for a gross payoff of at least epsilon at the expected price; PnL
    mode nets out the cost and pins the tails to ``max_loss``. An interval
    [k1, k2] of the strike grid must rise when k1 <= inflection and fall
    otherwise.
    """
    n = inst.n
    strikes = sorted(set(inst.call_strikes) | set(inst.put_strikes))
    forms = [
        Form("tail_calls", np.array([1] * n + [0] * n, dtype=np.int64), 0, "=", 0),
        Form("tail_puts", np.array([0] * n + [1] * n, dtype=np.int64), 0, "=", 0),
    ]
    for k1, k2 in zip(strikes, strikes[1:]):
        rise = inst.payoff_at(k2 * CENTS) - inst.payoff_at(k1 * CENTS)
        forms.append(Form(f"slope[{k1},{k2}]", rise, 0, ">=" if k1 <= inst.inflection else "<=", 0))
    net = -1 if inst.pnl_mode else 0
    floor = inst.max_loss if inst.pnl_mode else -inst.max_loss
    if inst.balance_left:
        forms.append(Form("balance_left", inst.payoff_at(strikes[0] * CENTS), net, "=", floor))
    if inst.balance_right:
        forms.append(Form("balance_right", inst.payoff_at(strikes[-1] * CENTS), net, "=", floor))
    at_expected = inst.payoff_at(inst.expected_price)
    forms.append(Form("positivity", at_expected, net, ">=", inst.epsilon))
    if inst.cost is not None:
        forms.append(Form("cost", np.zeros(inst.slots, dtype=np.int64), 1, *inst.cost))
    return forms, Form("objective", at_expected, -1, "", 0)


def _holds(values, rel: str, rhs: int):
    if rel == "<=":
        return values <= rhs
    if rel == ">=":
        return values >= rhs
    return values == rhs


def exact_violations(inst: Instance, index: int, x: tuple[int, ...]) -> list[str]:
    """Names of the bounds and constraints that x breaks in one combination,
    evaluated in Python integers."""
    prices = [int(p) for p in inst.prices(index)]
    cost = sum(p * v for p, v in zip(prices, x))
    broken = [
        f"bound[{i}]" for i, (v, (lo, hi)) in enumerate(zip(x, inst.box(index))) if not lo <= v <= hi
    ]
    forms, _ = compile_forms(inst)
    for form in forms:
        value = sum(int(a) * v for a, v in zip(form.a, x)) + form.w * cost
        if not _holds(value, form.rel, form.rhs):
            broken.append(form.name)
    return broken


def objective_of(inst: Instance, index: int, x: tuple[int, ...]) -> int:
    prices = [int(p) for p in inst.prices(index)]
    payoff = sum(int(a) * v for a, v in zip(inst.payoff_at(inst.expected_price), x))
    return payoff - sum(p * v for p, v in zip(prices, x))


@dataclass(frozen=True)
class Answer:
    """A reference answer. ``objective`` None means no feasible portfolio.

    ``x`` (the lexicographically smallest optimal quantities) and ``solved``
    (how many combinations have a feasible point) are None when the route
    that produced the answer does not compute them.
    """

    objective: int | None
    index: int | None = None
    x: tuple[int, ...] | None = None
    solved: int | None = None


def enumerate_optimum(inst: Instance) -> Answer:
    """Best objective, then lowest combination index, then lexicographically
    smallest quantities, by enumerating every combination's whole box."""
    forms, objective = compile_forms(inst)
    a = np.stack([f.a for f in forms] + [objective.a])
    w = np.array([f.w for f in forms] + [objective.w], dtype=np.int64)
    best: tuple[int, int, tuple[int, ...]] | None = None
    solved = 0
    for index in range(1 << inst.slots):
        box = inst.box(index)
        widths = [hi - lo + 1 for lo, hi in box]
        lows = np.array([lo for lo, _ in box], dtype=np.int64)
        # np.indices varies the last axis fastest: rows are in ascending
        # lexicographic order, so the first maximum is the smallest optimum
        grid = np.indices(widths).reshape(inst.slots, -1).T + lows
        values = grid @ a.T + np.outer(grid @ inst.prices(index), w)
        ok = np.ones(len(grid), dtype=bool)
        for j, form in enumerate(forms):
            ok &= _holds(values[:, j], form.rel, form.rhs)
        if not ok.any():
            continue
        solved += 1
        masked = np.where(ok, values[:, -1], np.iinfo(np.int64).min)
        i = int(np.argmax(masked))
        if best is None or int(masked[i]) > best[0]:
            best = (int(masked[i]), index, tuple(int(v) for v in grid[i]))
    if best is None:
        return Answer(None, solved=0)
    return Answer(best[0], best[1], best[2], solved)


def milp_optimum(inst: Instance) -> Answer:
    """Best objective and the smallest combination index that attains it,
    from a two-stage disjunctive MILP over all combinations at once.

    Variables are [p, q, b]: long part, short part and ask bit per slot, with
    x = p - q, p <= upper * b, q <= -lower * (1 - b), and net debit
    asks . p - bids . q.
    """
    s = inst.slots
    asks, bids = inst.asks().astype(float), inst.bids().astype(float)
    zeros = np.zeros(s)
    eye = np.eye(s)

    def over_pqb(form: Form) -> np.ndarray:
        a = form.a.astype(float)
        return np.concatenate([a + form.w * asks, -a - form.w * bids, zeros])

    forms, objective = compile_forms(inst)
    rows, lo, hi = [], [], []
    for form in forms:
        rows.append(over_pqb(form))
        lo.append(form.rhs if form.rel in (">=", "=") else -np.inf)
        hi.append(form.rhs if form.rel in ("<=", "=") else np.inf)
    link = np.block([[eye, np.zeros((s, s)), -inst.upper * eye], [np.zeros((s, s)), eye, -inst.lower * eye]])
    rows.extend(link)
    lo.extend([-np.inf] * 2 * s)
    hi.extend([0] * s + [-inst.lower] * s)
    bounds = Bounds(np.zeros(3 * s), np.concatenate([[inst.upper] * s, [-inst.lower] * s, [1] * s]))
    integrality = np.ones(3 * s)
    gain = over_pqb(objective)

    first = milp(-gain, constraints=LinearConstraint(np.array(rows), lo, hi), bounds=bounds,
                 integrality=integrality, options={"mip_rel_gap": 0.0})
    if first.status == 2:
        return Answer(None)
    if first.status != 0:
        raise RuntimeError(f"reference MILP failed: {first.message}")
    best = int(round(-first.fun))
    weights = np.concatenate([zeros, zeros, [float(1 << (s - 1 - i)) for i in range(s)]])
    pinned = LinearConstraint(np.vstack(rows + [gain]), lo + [best - 0.5], hi + [np.inf])
    second = milp(weights, constraints=pinned, bounds=bounds, integrality=integrality,
                  options={"mip_rel_gap": 0.0})
    if second.status != 0:
        raise RuntimeError(f"reference MILP (index stage) failed: {second.message}")
    return Answer(best, int(round(second.fun)))


def _document_problems(inst: Instance, expected: Answer, doc: object) -> list[str]:
    if not isinstance(doc, dict) or set(doc) not in (_DOC_KEYS, _DOC_KEYS | _COUNT_KEYS):
        return [f"document keys {sorted(doc) if isinstance(doc, dict) else type(doc).__name__}"]
    try:
        bits = doc["combination"]
        if len(bits) != inst.slots or set(bits) - {"0", "1"}:
            return [f"combination {bits!r}"]
        index = int(bits, 2)
        quantities = doc["quantities"]
        for leg, strikes in (("call", inst.call_strikes), ("put", inst.put_strikes)):
            if set(quantities[leg]) != {str(k) for k in strikes}:
                return [f"{leg} strikes {sorted(quantities[leg])}"]
        x = tuple(int(quantities["call"][str(k)]) for k in inst.call_strikes) + tuple(
            int(quantities["put"][str(k)]) for k in inst.put_strikes
        )
        objective = cents(doc["objective"])
        initial_cost = cents(doc["initial_cost"])
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return [f"unreadable document: {exc!r}"]
    problems = []
    if objective != expected.objective:
        problems.append(f"objective {objective} != {expected.objective}")
    if index != expected.index:
        problems.append(f"combination {index} != {expected.index}")
    if expected.x is not None and x != expected.x:
        problems.append(f"quantities {x} != {expected.x}")
    broken = exact_violations(inst, index, x)
    if broken:
        problems.append(f"quantities break {broken}")
    if objective_of(inst, index, x) != objective:
        problems.append(f"objective {objective} != recomputed {objective_of(inst, index, x)}")
    cost = sum(int(p) * v for p, v in zip(inst.prices(index), x))
    if initial_cost != cost:
        problems.append(f"initial_cost {initial_cost} != {cost}")
    if doc["total_contracts"] != sum(abs(v) for v in x):
        problems.append(f"total_contracts {doc['total_contracts']}")
    if _COUNT_KEYS <= set(doc):
        if doc["combos_solved"] + doc["combos_infeasible"] != 1 << inst.slots:
            problems.append("combos_solved + combos_infeasible != combinations")
        if expected.solved is not None and doc["combos_solved"] != expected.solved:
            problems.append(f"combos_solved {doc['combos_solved']} != {expected.solved}")
    return problems


def _stray(data: bytes) -> str:
    lines = data.decode(errors="replace").splitlines() or [""]
    return f"fd 1 holds {len(data)} bytes besides the requested output, first line {lines[0][:120]!r}"


def check_optimize(
    inst: Instance, expected: Answer, code: int, stdout: bytes, stderr: bytes
) -> tuple[str, str]:
    """(OK, ""), (FAILED, reason) or (WRONG, reason) for one command.

    FAILED: the verdict is right but stdout or stderr is not exactly what was
    asked for. WRONG: the verdict or a value is not the reference's.
    """
    err_lines = stderr.decode(errors="replace").splitlines()
    if expected.objective is None:
        if code != 1 or len(err_lines) != 1 or not err_lines[0].startswith("error:infeasible:"):
            return WRONG, f"expected no feasible portfolio, got exit {code}, stderr {err_lines[:2]}"
        if stdout:
            return FAILED, _stray(stdout)
        return OK, ""
    if code != 0:
        return WRONG, f"exit {code}, stderr {err_lines[:2]}"
    verdict, reason = OK, ""
    text = stdout.decode(errors="replace")
    # the document starts the output, or a line of its own after stray lines
    start = 0 if text.startswith("{") else text.find("\n{\n") + 1
    try:
        doc, end = json.JSONDecoder().raw_decode(text, start)
    except ValueError:
        return WRONG, f"no JSON document on stdout: {stdout[:120]!r}"
    if (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode() != stdout:
        stray = (text[:start] + text[end:].removeprefix("\n")).encode()
        verdict, reason = FAILED, _stray(stray or stdout)
    elif stderr:
        verdict, reason = FAILED, f"stderr not empty: {err_lines[:1]}"
    problems = _document_problems(inst, expected, doc)
    if problems:
        return WRONG, "; ".join(problems)
    return verdict, reason


def mutations(stdout: bytes) -> list[tuple[str, bytes]]:
    """Altered copies of a correct command's stdout that a checker must reject:
    one quantity off by one, one combination bit flipped, stray bytes."""
    out = [("stray stdout bytes", b"stray\n" + stdout)]
    if not stdout:
        return out
    doc = json.loads(stdout)
    bumped = json.loads(stdout)
    strike = sorted(bumped["quantities"]["call"])[0]
    bumped["quantities"]["call"][strike] += 1
    flipped = json.loads(stdout)
    bits = flipped["combination"]
    flipped["combination"] = ("1" if bits[0] == "0" else "0") + bits[1:]
    for label, changed in (("quantity off by one", bumped), ("combination bit flipped", flipped)):
        assert changed != doc
        out.append((label, (json.dumps(changed, sort_keys=True, indent=2) + "\n").encode()))
    return out


def checker_blind_spots(
    inst: Instance, expected: Answer, code: int, stdout: bytes, stderr: bytes
) -> list[str]:
    """Mutations of a correct outcome that `check_optimize` fails to reject."""
    return [
        label
        for label, changed in mutations(stdout)
        if check_optimize(inst, expected, code, changed, stderr)[0] == OK
    ]
