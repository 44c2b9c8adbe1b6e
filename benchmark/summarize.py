"""Summarize benchmark runs: median and quartiles of each metric.

Input lines are ``<workload> <last stdout line of run.py>``; a loop that makes
them is in benchmark/README.md. For each workload and metric this prints the
median, the first and third quartiles as ``statistics.quantiles(values, n=4)``
gives them, and their distance as a share of the median. Lines with per-layer
metrics (traced runs) are listed per workload as well.

With ``--overhead`` it also compares, per workload, the median command time
of traced runs with that of untraced runs found under ``.benchmark-runs/``.

    python3 benchmark/summarize.py runs.txt [--overhead]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import command_times  # noqa: E402


def _op_p50(result_file: Path) -> float:
    return statistics.median(command_times(json.loads(result_file.read_text()))[0])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", type=Path)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    by_workload: dict[str, list[dict]] = {}
    for line in args.runs.read_text().splitlines():
        workload, _, summary = line.partition(" ")
        by_workload.setdefault(workload, []).append(json.loads(summary))
    for workload, runs in by_workload.items():
        shares = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, failed/attempted {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            median = statistics.median(values)
            if len(values) < 2:
                print(f"  {name:32s} {median:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:32s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")

    if args.overhead:
        runs_dir = Path(".benchmark-runs")
        for workload in by_workload:
            traced = [_op_p50(p) for p in sorted(runs_dir.glob(f"{workload}-seed*-trace1/result.json"))]
            plain = [_op_p50(p) for p in sorted(runs_dir.glob(f"{workload}-seed*-trace0/result.json"))]
            if traced and plain:
                ratio = statistics.median(traced) / statistics.median(plain) - 1
                print(
                    f"{workload}: op_p50_s traced {statistics.median(traced):.6g} ({len(traced)} runs), "
                    f"untraced {statistics.median(plain):.6g} ({len(plain)} runs), overhead {ratio:+.1%}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
