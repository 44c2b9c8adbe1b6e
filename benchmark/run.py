"""Benchmark payoffopt end to end through its command line.

Run from the root of a payoffopt checkout:

    python3 benchmark/run.py --workload fixture-optimize --seed 1 --seconds 60 --trace 0

Each run starts the workload in a fresh interpreter (benchmark/worker.py)
that calls ``payoffopt.cli.run`` in-process for a fixed list of commands,
in a fixed number of rounds, with the CLI's defaults (one process,
``--threads 1``) and checks every answer against benchmark/reference.py.
``op_p50_s`` and ``op_p95_s`` are taken over each command's fastest round;
``ops_per_s`` is attempts that did not fail per second of command time.

The workloads' inputs are fixed (see benchmark/workloads.py); ``--seed`` is
recorded but draws nothing, because the commands known to fail must not
depend on it. ``--seconds`` is accepted
for the harness interface; a run always does the whole list, never a time
budget. Untraced runs also start ``SETUP_PROBES`` interpreters that only set
up, and report the median set-up time.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of benchmark/tracing.py). Per-run files go to
``.benchmark-runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("fixture-optimize", "corpus-small")
SETUP_PROBES = 2
TIME_LIMIT_S = 170
_WORKER = Path(__file__).resolve().parent / "worker.py"


def _spawn(root: Path, out: Path, workload: str, trace: bool, setup_only: bool, deadline: float) -> None:
    argv = [sys.executable, str(_WORKER), "--workload", workload, "--out", str(out)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    log = out / ("setup-probe.log" if setup_only else "worker.log")
    with open(log, "wb") as sink:
        started = time.monotonic()
        subprocess.run(
            argv + ["--started", repr(started)],
            cwd=root,
            env=env,
            stdout=sink,
            stderr=subprocess.STDOUT,
            check=True,
            timeout=max(deadline - started, 1),
        )


def command_times(result: dict) -> tuple[list[float], int]:
    """Each command's fastest attempt that did not fail, and how many
    attempts did not fail."""
    failed = {item["attempt"] for item in result["failed"]}
    best: dict[int, float] = {}
    for attempt, seconds in enumerate(result["seconds"]):
        if attempt not in failed:
            command = attempt % result["commands"]
            best[command] = min(seconds, best.get(command, seconds))
    return list(best.values()), len(result["seconds"]) - len(failed)


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "payoffopt" / "cli.py").is_file() or not (root / "fixtures").is_dir():
        print("error: run from the root of a payoffopt checkout (src/payoffopt, fixtures/)", file=sys.stderr)
        return 2
    out = root / ".benchmark-runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setups = []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            _spawn(root, out, args.workload, False, True, deadline)
            setups.append(json.loads((out / "setup.json").read_text())["setup_s"])
        _spawn(root, out, args.workload, bool(args.trace), False, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}; see {out}", file=sys.stderr)
        return 1
    result = json.loads((out / "result.json").read_text())

    for item in result["failed"]:
        print(f"failed attempt {item['attempt']} (command {item['command']}): {item['reason']}", file=sys.stderr)
    for item in result["wrong"]:
        print(f"WRONG attempt {item['attempt']} (command {item['command']}): {item['reason']}", file=sys.stderr)
    for item in result["checker_blind_spots"]:
        print(f"checker accepted a mutated answer ({item['mutation']}) of attempt {item['attempt']}", file=sys.stderr)

    seconds = result["seconds"]
    completed, succeeded = command_times(result)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [result["setup_s"]]), "unit": "s"},
            "op_p50_s": {"value": statistics.median(completed), "unit": "s"},
            "op_p95_s": {"value": _percentile(completed, 95), "unit": "s"},
            "ops_per_s": {"value": succeeded / sum(seconds), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    summary = {
        "correct": not result["wrong"] and not result["checker_blind_spots"],
        "attempted": len(seconds),
        "failed": len(seconds) - succeeded,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
