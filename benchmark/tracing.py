"""Spans around the calls into each payoffopt layer, recorded from outside
the program by replacing module attributes with timing wrappers.

`Tracer.install_scipy` must run before payoffopt is imported, so that
``from scipy.optimize import linprog, milp`` in ``payoffopt.ilp_solver`` binds
the wrappers. `Tracer.install_payoffopt` then wraps the public names that
``payoffopt.cli`` and ``payoffopt.optimizer`` look up at call time. Only calls
made inside `Tracer.command` are recorded, so warm-up and the reference
computations leave no spans. Spans stay in memory until `Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from pathlib import Path

# module -> public names it calls that open a span; the span is named after
# the module that defines the callee
WRAPPED = {
    "payoffopt.cli": ("parse_chain", "select_series", "build_subproblem", "optimize", "solution_to_json"),
    "payoffopt.optimizer": ("build_subproblem", "solve_ilp", "payoff_curve"),
}

# name, unit, better
LAYER_METRICS = (
    ("cli.commands", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("market_data.parse_chain_s", "s", "lower"),
    ("market_data.select_series_s", "s", "lower"),
    ("model_builder.build_calls", "count", "lower"),
    ("model_builder.build_s", "s", "lower"),
    ("ilp_solver.solve_calls", "count", "lower"),
    ("ilp_solver.solve_s", "s", "lower"),
    ("ilp_solver.refine_s", "s", "lower"),
    ("ilp_solver.root_lp_calls", "count", "lower"),
    ("ilp_solver.root_lp_s", "s", "lower"),
    ("ilp_solver.root_lp_infeasible", "count", "higher"),
    ("ilp_solver.milp_calls", "count", "lower"),
    ("ilp_solver.milp_s", "s", "lower"),
    ("ilp_solver.milp_feasible", "count", "higher"),
    ("ilp_solver.milp_nodes", "count", "lower"),
    ("ilp_solver.recheck_calls", "count", "lower"),
    ("ilp_solver.recheck_s", "s", "lower"),
    ("ilp_solver.recheck_infeasible", "count", "lower"),
    ("ilp_solver.solve_error_calls", "count", "lower"),
    ("ilp_solver.useful_ratio", "ratio", "higher"),
    ("optimizer.optimize_calls", "count", "lower"),
    ("optimizer.self_s", "s", "lower"),
    ("payoff_engine.curve_s", "s", "lower"),
    ("optimizer.render_s", "s", "lower"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "attrs")

    def __init__(self, name: str, parent: Span | None, command: int) -> None:
        self.name = name
        self.parent = parent
        self.command = command
        self.attrs: dict = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def enclosing(self, name: str) -> Span | None:
        span = self.parent
        while span is not None and span.name != name:
            span = span.parent
        return span


def _solve_ilp_attrs(args, kwargs) -> dict:
    return {"refine": kwargs.get("refine", True)}


def _milp_attrs(args, kwargs) -> dict:
    return {"presolve": (kwargs.get("options") or {}).get("presolve", True)}


def _result_attrs(name: str, result) -> dict:
    if name == "ilp_solver.solve_ilp":
        return {"point": result is not None}
    if name == "scipy.milp":
        return {"status": result.status, "nodes": getattr(result, "mip_node_count", 0) or 0}
    if name == "scipy.linprog":
        return {"status": result.status}
    return {}


_BEFORE = {"ilp_solver.solve_ilp": _solve_ilp_attrs, "scipy.milp": _milp_attrs}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: Span | None = None
        self._command: int | None = None

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)

        def traced(*args, **kwargs):
            if self._command is None:
                return fn(*args, **kwargs)
            span = Span(name, self._current, self._command)
            if before is not None:
                span.attrs.update(before(args, kwargs))
            self.spans.append(span)
            self._current = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._current = span.parent
            span.attrs.update(_result_attrs(name, result))
            return result

        return traced

    def install_scipy(self) -> None:
        import scipy.optimize

        for name in ("linprog", "milp"):
            setattr(scipy.optimize, name, self._wrap(f"scipy.{name}", getattr(scipy.optimize, name)))

    def install_payoffopt(self) -> None:
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                label = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
                setattr(module, name, self._wrap(label, fn))

    @contextlib.contextmanager
    def command(self, index: int):
        """One timed command: a ``cli.run`` span that its callees nest in."""
        span = Span("cli.run", None, index)
        self.spans.append(span)
        self._command, self._current = index, span
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._command = self._current = None

    def dump(self, path: Path) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        records = [
            {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else ids[id(s.parent)],
                "command": s.command,
                **s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(records) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)] = children.get(id(s.parent), 0.0) + s.duration

        def named(name: str) -> list[Span]:
            return [s for s in self.spans if s.name == name]

        def total(spans) -> float:
            return sum(s.duration for s in spans)

        def self_time(name: str) -> float:
            return sum(s.duration - children.get(id(s), 0.0) for s in named(name))

        def in_scan(s: Span) -> bool:
            solve = s.enclosing("ilp_solver.solve_ilp")
            return solve is not None and not solve.attrs["refine"]

        solves = named("ilp_solver.solve_ilp")
        scan = [s for s in solves if not s.attrs["refine"]]
        lps = [s for s in named("scipy.linprog") if in_scan(s)]
        milps = [s for s in named("scipy.milp") if in_scan(s)]
        first = [s for s in milps if s.attrs["presolve"]]
        recheck = [s for s in milps if not s.attrs["presolve"]]
        builds = named("model_builder.build_subproblem")
        return {
            "cli.commands": len(named("cli.run")),
            "cli.self_s": self_time("cli.run"),
            "market_data.parse_chain_s": total(named("market_data.parse_chain")),
            "market_data.select_series_s": total(named("market_data.select_series")),
            "model_builder.build_calls": len(builds),
            "model_builder.build_s": total(builds),
            "ilp_solver.solve_calls": len(scan),
            "ilp_solver.solve_s": total(scan),
            "ilp_solver.refine_s": total(s for s in solves if s.attrs["refine"]),
            "ilp_solver.root_lp_calls": len(lps),
            "ilp_solver.root_lp_s": total(lps),
            "ilp_solver.root_lp_infeasible": sum(s.attrs.get("status") == 2 for s in lps),
            "ilp_solver.milp_calls": len(first),
            "ilp_solver.milp_s": total(first),
            "ilp_solver.milp_feasible": sum(s.attrs.get("status") == 0 for s in first),
            "ilp_solver.milp_nodes": sum(s.attrs.get("nodes", 0) for s in first),
            "ilp_solver.recheck_calls": len(recheck),
            "ilp_solver.recheck_s": total(recheck),
            "ilp_solver.recheck_infeasible": sum(s.attrs.get("status") == 2 for s in recheck),
            "ilp_solver.solve_error_calls": sum(s.attrs.get("status") == 4 for s in first),
            "ilp_solver.useful_ratio": sum(s.attrs.get("point", False) for s in scan) / len(scan) if scan else 0.0,
            "optimizer.optimize_calls": len(named("optimizer.optimize")),
            "optimizer.self_s": self_time("optimizer.optimize"),
            "payoff_engine.curve_s": total(named("payoff_engine.payoff_curve")),
            "optimizer.render_s": total(named("optimizer.solution_to_json")),
        }
