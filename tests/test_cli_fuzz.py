"""Seeded fuzz of the command line: malformed inputs never read as a defect.

Each example mutates one or more of the files a command reads (the strategy
JSON, the chain CSV or JSON, a stored ``--solution`` document; a JSON
document may also get one object member written twice) and runs
``optimize``, ``validate`` or ``payoff --solution`` in-process through
``cli.run``. Whatever the input, the run must end in a documented verdict:
an exit code from 0 to 4, never 5 (an internal error), a stderr that is
empty or holds one ``error:`` line, and exit 1 only for
``error:infeasible:``. The examples are derandomized, so every run of the
suite tries the same inputs.
"""

import contextlib
import copy
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cli_inputs import (
    BAD_BYTES,
    CHAIN_CSV,
    FILES,
    ODD_FIELDS,
    ODD_VALUES,
    json_bytes,
    repeat_member,
)
from payoffopt.cli import run


def _pick_object(data: dict, draw) -> dict:
    """``data`` or an object nested somewhere in it."""
    target = data
    while True:
        nested = [k for k, v in target.items() if isinstance(v, (dict, list)) and v]
        if not nested or draw(st.booleans()):
            return target
        child = target[draw(st.sampled_from(sorted(nested)))]
        if isinstance(child, list):
            child = child[draw(st.integers(0, len(child) - 1))]
            if not isinstance(child, dict):
                return target
        target = child


def _replace_key(data: dict, draw) -> None:
    """Drop, add or retype one key somewhere in a nested JSON object."""
    target = _pick_object(data, draw)
    action = draw(st.sampled_from(("drop", "add", "retype")))
    # a copy, so that a later mutation cannot change ODD_VALUES itself
    value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    if action == "add" or not target:
        target[draw(st.sampled_from(("extra", "right", "bid", "n", "cmp")))] = value
    elif action == "drop":
        del target[draw(st.sampled_from(sorted(target)))]
    else:
        target[draw(st.sampled_from(sorted(target)))] = value


def _repeat_member(data: dict, draw) -> bytes:
    """The document of ``data`` with one member of one of its objects
    written a second time, at the front of that object's text."""
    target = _pick_object(data, draw)
    if not target:
        return json_bytes(data)
    return repeat_member(data, target, draw(st.sampled_from(sorted(target))))


def _mutate_json(text: bytes, draw) -> bytes:
    data = json.loads(text)
    for _ in range(draw(st.integers(1, 2))):
        _replace_key(data, draw)
    if draw(st.integers(0, 3)) == 0:
        text = _repeat_member(data, draw)
    else:
        text = json_bytes(data)
    return _mutate_bytes(text, draw) if draw(st.integers(0, 3)) == 0 else text


def _mutate_csv(draw) -> bytes:
    lines = CHAIN_CSV.splitlines()
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(
            st.sampled_from(("field", "drop-field", "move", "delete", "copy"))
        )
        if action == "move":  # a header after the records, or a record first
            lines.append(lines.pop(i))
        elif action == "delete":
            del lines[i]
        elif action == "copy":
            lines.insert(i, lines[i])
        elif "=" in lines[i]:
            key = lines[i].partition("=")[0]
            lines[i] = f"{key}={draw(st.sampled_from(ODD_FIELDS))}"
        else:
            fields = lines[i].split(",")
            j = draw(st.integers(0, len(fields) - 1))
            if action == "drop-field":
                del fields[j]
            else:
                fields[j] = draw(st.sampled_from(ODD_FIELDS))
            lines[i] = ",".join(fields)
        if not lines:
            break
    text = ("\n".join(lines) + "\n").encode()
    return _mutate_bytes(text, draw) if draw(st.integers(0, 3)) == 0 else text


def _mutate_bytes(data: bytes, draw) -> bytes:
    """Insert a byte that is not UTF-8 on its own, or cut the document."""
    at = draw(st.integers(0, len(data)))
    if draw(st.booleans()):
        byte = draw(st.sampled_from(BAD_BYTES))
        return data[:at] + byte + data[at:]
    return data[:at]


@st.composite
def cli_cases(draw):
    """(command, chain file name, files) with at least one of the files the
    command reads mutated."""
    command = draw(st.sampled_from(("optimize", "validate", "payoff")))
    chain_name = draw(st.sampled_from(("chain.csv", "chain.json")))
    files = dict(FILES)
    readable = {"validate": [chain_name], "optimize": [chain_name, "spec.json"]}.get(
        command, [chain_name, "spec.json", "solution.json"]
    )
    for name in draw(st.lists(st.sampled_from(readable), min_size=1, unique=True)):
        if name == "chain.csv":
            files[name] = _mutate_csv(draw)
        else:
            files[name] = _mutate_json(files[name], draw)
    return command, chain_name, files


def _invoke(command: str, chain_name: str, files: dict) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in files.items():
            (root / name).write_bytes(data)
        argv = [command, "--chain", str(root / chain_name)]
        if command != "validate":
            argv += ["--spec", str(root / "spec.json")]
        if command == "payoff":
            argv += ["--solution", str(root / "solution.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_unmutated_inputs_succeed():
    for command in ("optimize", "validate", "payoff"):
        for chain_name in ("chain.csv", "chain.json"):
            code, _, err = _invoke(command, chain_name, FILES)
            assert (code, err) == (0, ""), (command, chain_name)


# about 10 s on 2 CPUs; a single example takes milliseconds, so the
# per-example deadline fails a run that stalls
@settings(
    max_examples=1500,
    deadline=timedelta(seconds=10),
    derandomize=True,
    database=None,
)
@given(cli_cases())
def test_malformed_inputs_end_in_a_documented_verdict(case):
    code, _, err = _invoke(*case)
    assert code in {0, 1, 2, 3, 4}, err
    assert err == "" or (err.startswith("error:") and err.count("\n") == 1), err
    assert (code == 0) == (err == ""), err
    if code == 1:
        assert err.startswith("error:infeasible:"), err
