"""One workload in a fresh interpreter: set up, time every command, check.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``;
writes ``result.json`` (and, traced, ``trace.json``) into ``--out``.

Set-up runs from interpreter start (``--started``, a ``time.monotonic``
reading the parent took just before starting this process) to the first
timed command: imports, writing the inputs and one warm-up command. Each
command calls ``payoffopt.cli.run`` in-process with file descriptors 1 and 2
redirected to files, so output written below Python's ``sys.stdout`` is
caught too. Reference answers and checks run after the last timed command.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

_LIBC = ctypes.CDLL(None)


@contextlib.contextmanager
def captured(out: Path):
    """Send fds 1 and 2 to files for the duration; yields a dict that gets
    the bytes written to each."""
    sys.stdout.flush()
    sys.stderr.flush()
    box: dict[str, bytes] = {}
    with open(out / "fd1.capture", "w+b") as fd1, open(out / "fd2.capture", "w+b") as fd2:
        saved = os.dup(1), os.dup(2)
        os.dup2(fd1.fileno(), 1)
        os.dup2(fd2.fileno(), 2)
        try:
            yield box
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            _LIBC.fflush(None)
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])
            fd1.seek(0)
            fd2.seek(0)
            box["stdout"], box["stderr"] = fd1.read(), fd2.read()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--started", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install_scipy()
    import payoffopt.cli as cli

    if tracer is not None:
        tracer.install_payoffopt()
    import workloads

    commands = workloads.WORKLOADS[args.workload](root, args.out)
    with captured(args.out):
        cli.run(list(workloads.warm_up_command(args.out).argv))
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        (args.out / "setup.json").write_text(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    rounds = workloads.ROUNDS[args.workload]
    outcomes = []
    for attempt in range(rounds * len(commands)):
        command = commands[attempt % len(commands)]
        scope = tracer.command(attempt) if tracer is not None else contextlib.nullcontext()
        with captured(args.out) as io, scope:
            start = time.perf_counter()
            code = cli.run(list(command.argv))
            seconds = time.perf_counter() - start
        outcomes.append((seconds, code, io["stdout"], io["stderr"]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from reference import FAILED, OK, WRONG, check_optimize, checker_blind_spots

    failed, wrong, blind = [], [], []
    answers = [command.reference() for command in commands]
    for attempt, (_, code, stdout, stderr) in enumerate(outcomes):
        i = attempt % len(commands)
        inst, expected = commands[i].instance, answers[i]
        verdict, reason = check_optimize(inst, expected, code, stdout, stderr)
        item = {"attempt": attempt, "command": i}
        if verdict == FAILED:
            failed.append({**item, "reason": reason})
        elif verdict == WRONG:
            wrong.append({**item, "reason": reason})
        elif verdict == OK:
            missed = checker_blind_spots(inst, expected, code, stdout, stderr)
            blind.extend({**item, "mutation": m} for m in missed)
    result = {
        "workload": args.workload,
        "setup_s": setup_s,
        "commands": len(commands),
        "seconds": [o[0] for o in outcomes],
        "failed": failed,
        "wrong": wrong,
        "checker_blind_spots": blind,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(args.out / "trace.json")
    (args.out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
