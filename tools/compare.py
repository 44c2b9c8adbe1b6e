"""Compare the working tree's payoffopt against another revision, in one process.

Run from anywhere inside a payoffopt checkout:

    python tools/compare.py --base HEAD~1 [--label x] [--rounds R]

``git archive`` exports ``src/payoffopt`` of ``--base`` into a temporary
directory, offline. Each measurement starts a fresh interpreter that
imports two trees under their own package names and runs the
``corpus-small`` and ``fixture-optimize`` commands of
``benchmark/workloads.py`` through each tree's ``cli.run``, alternately:
the tree that runs first swaps with every command and every round. A
``fixture-optimize`` command runs 5 times on each tree in each round,
alternately, since that workload is one command. A command's time is its
fastest run on its tree. There are three measurements: the base imported
first, the working tree imported first, and an A/A control that imports
the base twice. The control shows the ratio two copies of identical code
read, including the lean the second imported copy gets.

Every run of a command is captured at file descriptors 1 and 2, and its
exit code, stdout and stderr must be the same on both trees. Two fixed sets
of commands are compared the same way, once per tree in each measurement,
untimed: the commands of ``tests/golden/commands.json``, with their fixture
paths made absolute, so that every output format and command is checked,
not only the workloads' ``--format json``; and the malformed commands of
:func:`malformed_commands`, so that every message of a bad input is
checked. Each difference is printed, with the temporary directory's path
shown as ``<tmp>``, and the tool exits 1 if there is any.

``BENCH_<label>.json`` at the root of the checkout records the machine,
both revisions and, per measurement and workload, the ratio of the summed
command times (working tree over base, or copy over base in the control),
the quartiles of the per-command ratios, and each tree's summed, median and
95th-percentile command time. The tool prints the ratios, each tree's
median and 95th percentile, and the differences. The label defaults to the
base's short commit.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy
import scipy
from scipy.optimize._highspy._core import _Highs

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "benchmark"
sys.path.insert(0, str(BENCHMARK))
sys.path.insert(0, str(ROOT / "tests"))

import cli_inputs  # noqa: E402
import workloads  # noqa: E402
from worker import captured  # noqa: E402

WORKLOADS = ("corpus-small", "fixture-optimize")
# runs of each command per tree in a round, where one is not enough: the
# fixture workload is a single command, so its ratio rests on that one
REPEATS = {"fixture-optimize": 5}
GOLDEN = ROOT / "tests" / "golden" / "commands.json"


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """``src/payoffopt`` of ``rev``, written under ``dest``; the ``src``
    directory that holds it."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src/payoffopt"],
        cwd=ROOT,
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def golden_commands() -> dict[str, list[str]]:
    """Each command of ``tests/golden/commands.json`` by name, its fixture
    paths made absolute."""
    return {
        name: [str(ROOT / a) if a.startswith("fixtures/") else a for a in c["argv"]]
        for name, c in json.loads(GOLDEN.read_text()).items()
    }


# the command that reads each file of tests/cli_inputs.py, by the file's
# name; a file name in it stands for that file's path, the unmutated file's
# but for the one mutated
READERS = {
    "chain.csv": ("optimize", "--chain", "chain.csv", "--spec", "spec.json"),
    "chain.json": ("optimize", "--chain", "chain.json", "--spec", "spec.json"),
    "spec.json": ("optimize", "--chain", "chain.csv", "--spec", "spec.json"),
    "solution.json": (
        "payoff", "--chain", "chain.csv", "--spec", "spec.json",
        "--solution", "solution.json",
    ),
}

# argument lists that argparse refuses, or answers with help
OPTIMIZE = ("optimize", "--chain", "chain.csv", "--spec", "spec.json")
BAD_ARGV = {
    "no arguments": (),
    "help": ("-h",),
    "optimize help": ("optimize", "-h"),
    "unknown command": ("frobnicate",),
    "unknown option": (*OPTIMIZE, "--bogus"),
    "missing --spec": OPTIMIZE[:3],
    "bad --format": (*OPTIMIZE, "--format", "xml"),
    "trailing extra": (*OPTIMIZE, "extra"),
}


def malformed_commands(directory: Path) -> dict[str, list[str]]:
    """Each malformed command by name, its files written under
    ``directory``: every variant of ``tests/cli_inputs.py``'s
    ``malformed_files`` through the command in :data:`READERS` that reads
    it, and each of :data:`BAD_ARGV`."""
    clean = {}
    for name, data in cli_inputs.FILES.items():
        clean[name] = str(directory / name)
        Path(clean[name]).write_bytes(data)
    commands = {
        f"argv: {case}": [clean.get(a, a) for a in argv]
        for case, argv in BAD_ARGV.items()
    }
    for i, (case, name, data) in enumerate(cli_inputs.malformed_files()):
        path = directory / str(i) / name
        path.parent.mkdir()
        path.write_bytes(data)
        paths = {**clean, name: str(path)}
        commands[case] = [paths.get(a, a) for a in READERS[name]]
    return commands


def _import_tree(name: str, src: str):
    """The ``cli`` module of the payoffopt tree in ``src``, imported as the
    package ``name``; the package imports its own modules relatively."""
    package = Path(src) / "payoffopt"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def measure(
    trees: list[tuple[str, str]],
    commands: dict[str, list[list[str]]],
    checked: dict[str, dict[str, list[str]]],
    warm_up: list[str],
    rounds: int,
    workdir: str,
) -> dict:
    """Each command's fastest time on each tree, and every answer that differs.

    ``trees`` are imported in order; each runs ``warm_up`` once, and each
    command of each set in ``checked`` once, untimed. Then every command of
    ``commands`` runs on both trees in each of ``rounds`` rounds, first on
    the tree whose turn it is, and :data:`REPEATS` times over for its
    workload. The captured output goes through files in ``workdir``, and
    a difference shows ``workdir`` as ``<tmp>``.
    """
    clis = [_import_tree(name, src) for name, src in trees]
    out = Path(workdir)

    def run(cli, argv: list[str]) -> tuple[float, tuple]:
        with captured(out) as box:
            start = time.perf_counter()
            code = cli.run(list(argv))
            seconds = time.perf_counter() - start
        return seconds, (code, box["stdout"], box["stderr"])

    differences = []

    def masked(text: str) -> str:
        return text.replace(workdir, "<tmp>")

    def compare_answers(answers: list[tuple], argv: list[str], **where) -> None:
        if answers[0] != answers[1]:
            fields = ("exit code", "stdout", "stderr")
            differences.append({
                **where,
                "argv": [masked(a) for a in argv],
                "differs": [f for f, a, b in zip(fields, *answers) if a != b],
                "answers": {
                    name: [code, masked(stdout.decode()), masked(stderr.decode())]
                    for (name, _), (code, stdout, stderr) in zip(trees, answers)
                },
            })

    for cli in clis:
        run(cli, warm_up)
    for group, named in checked.items():
        for name, argv in named.items():
            answers = [run(cli, argv)[1] for cli in clis]
            compare_answers(answers, argv, workload=group, command=name)
    best: dict[str, list[list[float]]] = {}
    turn = 0
    for r in range(rounds):
        for workload, argvs in commands.items():
            times = best.setdefault(workload, [[float("inf")] * len(argvs) for _ in clis])
            for i, argv in enumerate(argvs):
                order = [0, 1] if turn % 2 == 0 else [1, 0]
                turn += 1
                for _ in range(REPEATS.get(workload, 1)):
                    answers = [None, None]
                    for side in order:
                        seconds, answers[side] = run(clis[side], argv)
                        times[side][i] = min(times[side][i], seconds)
                    compare_answers(answers, argv, workload=workload, command=i, round=r)
    return {"best": best, "differences": differences}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(base: list[float], other: list[float]) -> dict:
    """``other``'s command times against ``base``'s."""
    return {
        "commands": len(base),
        "ratio": sum(other) / sum(base),
        "command_ratio_quartiles": _quartiles([o / b for b, o in zip(base, other)]),
        **{
            side: {
                "sum_s": sum(times),
                "p50_s": statistics.median(times),
                "p95_s": _percentile(times, 95),
            }
            for side, times in (("base", base), ("other", other))
        },
    }


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "highs": _Highs().version(),
        "numpy": numpy.__version__,
    }


# the three measurements and the trees each imports, in import order; its
# ratios are the other tree's times over the base's, and "change" is the
# working tree
MEASUREMENTS = (
    ("base first", ("base", "change")),
    ("change first", ("change", "base")),
    ("A/A control", ("base", "base copy")),
)


def compare(
    base: str,
    rounds: int,
    bench: Path,
    commands: dict[str, list[list[str]]] | None = None,
) -> dict:
    """Measure the working tree against revision ``base`` and write the
    report to ``bench``; ``commands`` default to the benchmark's two
    workloads, and every golden command is checked too."""
    commit = _git("rev-parse", "--verify", f"{base}^{{commit}}")
    ctx = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if commands is None:
            commands = {
                name: [list(c.argv) for c in workloads.WORKLOADS[name](ROOT, tmp)]
                for name in WORKLOADS
            }
        sources = {"base": str(export(commit, tmp / "base")), "change": str(ROOT / "src")}
        sources["base copy"] = sources["base"]
        warm_up = list(workloads.warm_up_command(tmp).argv)
        malformed = tmp / "malformed"
        malformed.mkdir()
        checked = {
            "golden": golden_commands(),
            "malformed": malformed_commands(malformed),
        }
        report = {
            "machine": machine(),
            "revisions": {
                "base": {"rev": base, "commit": commit},
                "change": {
                    "commit": _git("rev-parse", "HEAD"),
                    "src_differs_from_commit": bool(
                        _git("status", "--porcelain", "--", "src")
                    ),
                },
            },
            "rounds": rounds,
            "repeats": REPEATS,
            "checked": {
                "golden": list(checked["golden"]),
                "malformed": len(checked["malformed"]),
            },
            "measurements": {},
            "differences": [],
        }
        for title, names in MEASUREMENTS:
            trees = [(f"payoffopt_{i}", sources[name]) for i, name in enumerate(names)]
            with ctx.Pool(1) as pool:
                found = pool.apply(
                    measure, (trees, commands, checked, warm_up, rounds, str(tmp))
                )
            base_side = names.index("base")
            report["measurements"][title] = {
                "imported": list(names),
                "workloads": {
                    workload: summarize(times[base_side], times[1 - base_side])
                    for workload, times in found["best"].items()
                },
            }
            report["differences"] += [{"measurement": title, **d} for d in found["differences"]]
    bench.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", help="names BENCH_<label>.json (default: base's short commit)")
    parser.add_argument("--rounds", type=int, default=10, help="rounds per command (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    try:
        label = args.label or _git("rev-parse", "--short", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    bench = ROOT / f"BENCH_{label}.json"
    report = compare(args.base, args.rounds, bench)
    for title, found in report["measurements"].items():
        for workload, s in found["workloads"].items():
            q1, median, q3 = s["command_ratio_quartiles"]
            base, other = s["base"], s["other"]
            print(
                f"{title:13} {workload:17} ratio {s['ratio']:.3f}"
                f"  per command {q1:.3f} / {median:.3f} / {q3:.3f}"
                f"  p50 {base['p50_s'] * 1e3:.3f} -> {other['p50_s'] * 1e3:.3f} ms"
                f"  p95 {base['p95_s'] * 1e3:.3f} -> {other['p95_s'] * 1e3:.3f} ms"
            )
    for d in report["differences"]:
        where = f" round {d['round']}" if "round" in d else ""
        print(f"DIFFERENT {d['measurement']}: {d['workload']} command {d['command']}"
              f"{where}: {', '.join(d['differs'])}", file=sys.stderr)
    print(f"wrote {bench.name}")
    return 1 if report["differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
