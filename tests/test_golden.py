"""The fixture commands print exactly what they printed when their golden
files were captured.

``golden/commands.json`` maps each name to a command line (paths relative to
the repository root) and its exit code; ``golden/<name>.out`` holds the
command's stdout. Each test runs the command in-process through ``cli.run``
and compares stdout byte for byte, the exit code, and an empty stderr.

After a change that is meant to alter the output, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json

import pytest

from payoffopt.cli import run
from support import GOLDEN, golden_argv

COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


def invoke(name: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(golden_argv(name))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_fixture_command_output_is_unchanged(name):
    code, out, err = invoke(name)
    assert err == ""
    assert code == COMMANDS[name]["exit"]
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    for name, command in COMMANDS.items():
        command["exit"], out, err = invoke(name)
        assert err == "", (name, err)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "commands.json").write_text(json.dumps(COMMANDS, indent=2) + "\n")
