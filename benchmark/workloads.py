"""The benchmark's workloads: the input files each one writes and the fixed
list of `payoffopt` commands it runs, with each command's reference answer.

* ``fixture-optimize``: one ``optimize`` on ``fixtures/chain.csv`` and
  ``fixtures/spec.json``, the paper's full-scale case (n=6, 4096
  combinations). Most of its time goes to MILPs whose presolved verdict is
  infeasible and that are solved again with presolve off.
* ``corpus-small``: 220 small strategies (n <= 3, at most 64 combinations
  each), each written as its own chain and strategy file and solved by one
  ``optimize``, so per-command costs and the root-LP pre-check dominate.
  The list is run twice (`ROUNDS`).

The corpus is drawn from ``random.Random(CORPUS_SEED)`` with the same
sequence of draws as ``random_series`` and ``random_spec`` in the project's
test helpers, copied here so that an edit to those helpers cannot change the
workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from reference import Answer, Instance, enumerate_optimum, milp_optimum, money_text, cents

CORPUS_SEED = 20260823
CORPUS_SIZE = 220
FIXTURE_CHAIN = Path("fixtures/chain.csv")
FIXTURE_SPEC = Path("fixtures/spec.json")
_CHAIN_HEADER = "underlying=100.00\nvaluation=2011-11-04\nexpiry=2011-11-16\n"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    instance: Instance
    exhaustive: bool  # reference by full enumeration, else by the MILP route

    def reference(self) -> Answer:
        if self.exhaustive:
            return enumerate_optimum(self.instance)
        return milp_optimum(self.instance)


def _optimize_argv(chain: Path, spec: Path) -> tuple[str, ...]:
    return ("optimize", "--chain", str(chain), "--spec", str(spec), "--format", "json")


def read_fixture(chain_text: str, spec: dict) -> Instance:
    """The fixture's series and strategy, read by the benchmark's own code."""
    quotes = {}
    for line in chain_text.splitlines():
        fields = [f.strip() for f in line.split(",")]
        if len(fields) == 5:
            strike, right, bid, ask, _ = fields
            quotes[int(strike), right] = (cents(bid), cents(ask))

    def leg(right: str, anchor: int) -> list[int]:
        listed = sorted(k for k, r in quotes if r == right)
        start = listed.index(anchor)
        return listed[start : start + spec["n"]]

    calls, puts = leg("call", spec["call_anchor"]), leg("put", spec["put_anchor"])
    target = spec.get("cost_target")
    cost = None
    if target is not None:
        sign = -1 if target.get("convention") == "credit" else 1
        cost = (target.get("cmp", "="), sign * cents(target["value"]))
    return Instance(
        call_strikes=tuple(calls),
        put_strikes=tuple(puts),
        call_asks=tuple(quotes[k, "call"][1] for k in calls),
        call_bids=tuple(quotes[k, "call"][0] for k in calls),
        put_asks=tuple(quotes[k, "put"][1] for k in puts),
        put_bids=tuple(quotes[k, "put"][0] for k in puts),
        expected_price=cents(spec["expected_price"]),
        inflection=spec["inflection"],
        max_loss=cents(spec["max_loss"]),
        lower=spec["lower"],
        upper=spec["upper"],
        epsilon=cents(spec.get("epsilon", "1")),
        pnl_mode=spec.get("tail_loss_mode", "pnl") == "pnl",
        balance_left=spec.get("balance_left_tail", True),
        balance_right=spec.get("balance_right_tail", True),
        cost=cost,
    )


def corpus_instance(rng: random.Random) -> Instance:
    """One small random strategy; the draws follow the test helpers' order."""
    n = rng.choice([1, 2, 2, 3, 3])
    step = rng.choice([5, 10, 25, 50])
    base = rng.randrange(50, 200)
    pool = [base + i * step for i in range(2 * n + 2)]
    call_strikes = tuple(sorted(rng.sample(pool, n)))
    put_strikes = tuple(sorted(rng.sample(pool, n)))

    def ladder() -> tuple[tuple[int, ...], tuple[int, ...]]:
        asks = tuple(rng.randrange(2, 2000) for _ in range(n))
        return asks, tuple(max(1, a - rng.randrange(1, 60)) for a in asks)

    call_asks, call_bids = ladder()
    put_asks, put_bids = ladder()
    strikes = sorted(set(call_strikes) | set(put_strikes))
    expected = rng.choice(strikes) * 100 + rng.choice([-150, -50, 0, 50, 150])
    cost = None
    if rng.random() < 0.5:
        cost = (rng.choice(["<=", ">=", "="]), rng.randrange(-3000, 3000))
    bound = rng.choice([1, 2, 3])
    return Instance(
        call_strikes=call_strikes,
        put_strikes=put_strikes,
        call_asks=call_asks,
        call_bids=call_bids,
        put_asks=put_asks,
        put_bids=put_bids,
        expected_price=max(expected, 50),
        inflection=rng.choice(strikes),
        max_loss=-rng.randrange(0, 40) * 100,
        lower=-bound,
        upper=bound,
        cost=cost,
        epsilon=rng.choice([1, 1, 1, 100]),
        pnl_mode=rng.choice([True, False]),
        balance_left=rng.random() < 0.35,
        balance_right=rng.random() < 0.35,
    )


def write_instance(inst: Instance, chain: Path, spec: Path) -> None:
    """Write an instance as a chain CSV and a strategy JSON for the CLI."""
    records = [
        f"{k},{right},{money_text(bid)},{money_text(ask)},0"
        for right, strikes, asks, bids in (
            ("call", inst.call_strikes, inst.call_asks, inst.call_bids),
            ("put", inst.put_strikes, inst.put_asks, inst.put_bids),
        )
        for k, ask, bid in zip(strikes, asks, bids)
    ]
    chain.write_text(_CHAIN_HEADER + "\n".join(records) + "\n")
    strategy = {
        "expected_price": money_text(inst.expected_price),
        "inflection": inst.inflection,
        "max_loss": money_text(inst.max_loss),
        "lower": inst.lower,
        "upper": inst.upper,
        "epsilon": money_text(inst.epsilon),
        "tail_loss_mode": "pnl" if inst.pnl_mode else "payoff_only",
        "balance_left_tail": inst.balance_left,
        "balance_right_tail": inst.balance_right,
        "call_anchor": inst.call_strikes[0],
        "put_anchor": inst.put_strikes[0],
        "n": inst.n,
    }
    if inst.cost is not None:
        strategy["cost_target"] = {"cmp": inst.cost[0], "value": money_text(inst.cost[1])}
    spec.write_text(json.dumps(strategy, indent=2) + "\n")


def fixture_commands(root: Path, out: Path) -> list[Command]:
    inst = read_fixture((root / FIXTURE_CHAIN).read_text(), json.loads((root / FIXTURE_SPEC).read_text()))
    return [Command(_optimize_argv(root / FIXTURE_CHAIN, root / FIXTURE_SPEC), inst, exhaustive=False)]


def corpus_commands(root: Path, out: Path) -> list[Command]:
    rng = random.Random(CORPUS_SEED)
    commands = []
    for i in range(CORPUS_SIZE):
        inst = corpus_instance(rng)
        chain, spec = out / f"corpus-{i:03d}.csv", out / f"corpus-{i:03d}.json"
        write_instance(inst, chain, spec)
        commands.append(Command(_optimize_argv(chain, spec), inst, exhaustive=True))
    return commands


WORKLOADS = {
    "fixture-optimize": fixture_commands,
    "corpus-small": corpus_commands,
}

# How many times a run goes through a workload's list. A command's time is
# its fastest round: single corpus commands last tens of milliseconds and
# vary by about 10% from one attempt to the next on a shared machine, enough
# to move the median between the clusters of the corpus's times.
ROUNDS = {"fixture-optimize": 1, "corpus-small": 2}

# A small feasible strategy (n=2, 16 combinations) run once before timing, so
# that the first timed command does not pay scipy's first-call costs.
WARM_UP = Instance(
    call_strikes=(100, 110),
    put_strikes=(90, 100),
    call_asks=(420, 110),
    call_bids=(400, 100),
    put_asks=(90, 400),
    put_bids=(80, 380),
    expected_price=10500,
    inflection=100,
    max_loss=-500,
    lower=-3,
    upper=3,
    epsilon=1,
    pnl_mode=True,
    balance_left=False,
    balance_right=False,
    cost=None,
)


def warm_up_command(out: Path) -> Command:
    chain, spec = out / "warm-up.csv", out / "warm-up.json"
    write_instance(WARM_UP, chain, spec)
    return Command(_optimize_argv(chain, spec), WARM_UP, exhaustive=True)
