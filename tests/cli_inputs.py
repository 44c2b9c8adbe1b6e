"""The files a command may read, the odd values swapped into them, and a
fixed set of their malformed variants.

``tests/test_cli_fuzz.py`` mutates these files at random (seeded);
``tools/compare.py`` runs every variant of :func:`malformed_files` on two
trees and requires the same answer from both. The module needs nothing but
the standard library.
"""

from __future__ import annotations

import copy
import json
from typing import Iterator

CHAIN_CSV = (
    "underlying=99.50\n"
    "valuation=2026-08-20\n"
    "expiry=2026-09-16\n"
    "100,call,4.00,4.20,120\n"
    "110,call,1.00,1.10,80\n"
    "90,put,0.80,0.90,60\n"
    "100,put,3.80,4.00,95\n"
)

CHAIN = {
    "underlying_price": "99.50",
    "valuation_date": "2026-08-20",
    "expiry_date": "2026-09-16",
    "quotes": [
        {"strike": 100, "right": "call", "bid": "4.00", "ask": "4.20", "volume": 120},
        {"strike": 110, "right": "call", "bid": 1.0, "ask": "1.10", "volume": "80"},
        {"strike": 90, "right": "put", "bid": "0.80", "ask": "0.90", "volume": 60},
        {"strike": 100, "right": "put", "bid": "3.80", "ask": 4, "volume": 95},
    ],
}

SPEC = {
    "expected_price": "105.00",
    "inflection": 100,
    "max_loss": "-5.00",
    "cost_target": {"cmp": "<=", "value": "1.00", "convention": "debit"},
    "lower": -3,
    "upper": 3,
    "epsilon": "0.01",
    "tail_loss_mode": "pnl",
    "balance_left_tail": False,
    "balance_right_tail": False,
    "call_anchor": 100,
    "put_anchor": 90,
    "n": 2,
}

SOLUTION = {
    "combination": "1010",
    "objective": "14.10",
    "quantities": {"call": {"100": 3, "110": -3}, "put": {"90": 3, "100": -3}},
}

# values swapped in for a key: wrong types, non-ASCII digits, bad money,
# signs, fractions and magnitudes no solver can represent
ODD_VALUES = (
    None, True, False, 0, -1, 2, 7.5, 10**15, 10**400, "", "x", "1.234",
    "-0.01", " 7950", "١٠٠", "8067.6²", "call", "fwd",
    "2026-02-30", [], {}, [1], {"cmp": "<"},
)

# text that replaces one CSV field or header value
ODD_FIELDS = (
    "", " ", "x", "1.234", "-1.00", "0", "2.5", "1e3", "١٠",
    "100,call", "put", "fwd", "2026-13-01", "9" * 5000,
)

# bytes that are not UTF-8 on their own, or not text
BAD_BYTES = (b"\xe9", b"\xff", b"\x00")


def json_bytes(data) -> bytes:
    return json.dumps(data).encode()


# each file a command may read, unmutated
FILES = {
    "chain.csv": CHAIN_CSV.encode(),
    "chain.json": json_bytes(CHAIN),
    "spec.json": json_bytes(SPEC),
    "solution.json": json_bytes(SOLUTION),
}

# the JSON documents behind FILES
DOCUMENTS = {"chain.json": CHAIN, "spec.json": SPEC, "solution.json": SOLUTION}


def repeat_member(data: dict, target: dict, key: str) -> bytes:
    """The document of ``data`` with the member ``key`` of ``target``, one
    of its objects, written a second time, at the front of that object's
    text."""
    text = json.dumps(data)
    member = f"{json.dumps(key)}: {json.dumps(target[key])}, "
    # json.dumps writes a nested object as the same text it writes alone
    before = json.dumps(target)
    after = "{" + member + before[1:]
    return text.replace(before, after, 1).encode()


def _objects(data: dict, path: str = "") -> Iterator[str]:
    """The path of ``data`` and of each object nested in it; of a list,
    only the first item is entered."""
    yield path
    for key, value in data.items():
        if isinstance(value, list) and value:
            key, value = f"{key}[0]", value[0]
        if isinstance(value, dict):
            yield from _objects(value, f"{path}{key}.")


def _lookup(data: dict, path: str) -> dict:
    """The object of ``data`` that ``path``, as :func:`_objects` gives it,
    names."""
    for part in filter(None, path.split(".")):
        name, _, index = part.partition("[")
        data = data[name][0] if index else data[name]
    return data


def _json_variants(name: str) -> Iterator[tuple[str, bytes]]:
    """Each variant of the JSON file ``name``: in every object, each key
    retyped to each odd value, dropped, or written twice, and one key added."""
    document = DOCUMENTS[name]
    for path in _objects(document):
        for key in _lookup(document, path):
            for i, value in enumerate(ODD_VALUES):
                data = copy.deepcopy(document)
                _lookup(data, path)[key] = copy.deepcopy(value)
                yield f"{name} {path}{key}=odd[{i}]", json_bytes(data)
            data = copy.deepcopy(document)
            del _lookup(data, path)[key]
            yield f"{name} {path}{key} dropped", json_bytes(data)
            yield (
                f"{name} {path}{key} repeated",
                repeat_member(document, _lookup(document, path), key),
            )
        data = copy.deepcopy(document)
        _lookup(data, path)["extra"] = None
        yield f"{name} {path}extra added", json_bytes(data)


def _csv_variants() -> Iterator[tuple[str, bytes]]:
    """Each variant of the chain CSV: every header value and every record
    field replaced by each odd field, every record field dropped, and every
    line moved to the end, deleted or written twice."""
    lines = CHAIN_CSV.splitlines()

    def text(changed: list[str]) -> bytes:
        return ("\n".join(changed) + "\n").encode()

    for row, line in enumerate(lines, start=1):
        if "=" in line:
            key = line.partition("=")[0]
            for i, odd in enumerate(ODD_FIELDS):
                changed = list(lines)
                changed[row - 1] = f"{key}={odd}"
                yield f"chain.csv row {row} {key}=odd[{i}]", text(changed)
            continue
        fields = line.split(",")
        for j in range(len(fields)):
            for i, odd in enumerate(ODD_FIELDS):
                changed = list(lines)
                changed[row - 1] = ",".join(fields[:j] + [odd] + fields[j + 1 :])
                yield f"chain.csv row {row} field {j}=odd[{i}]", text(changed)
            changed = list(lines)
            changed[row - 1] = ",".join(fields[:j] + fields[j + 1 :])
            yield f"chain.csv row {row} field {j} dropped", text(changed)
    for row in range(len(lines)):
        moved = list(lines)
        moved.append(moved.pop(row))
        yield f"chain.csv row {row + 1} moved last", text(moved)
        yield f"chain.csv row {row + 1} deleted", text(lines[:row] + lines[row + 1 :])
        yield f"chain.csv row {row + 1} copied", text(lines[: row + 1] + lines[row:])


def malformed_files() -> Iterator[tuple[str, str, bytes]]:
    """Every malformed variant of :data:`FILES`, one file changed in each,
    as ``(case name, file name, its bytes)``: each JSON and CSV mutation of
    the fuzz on its own, and each file with a byte that is not UTF-8 put in
    its middle, or cut there."""
    for name in DOCUMENTS:
        for case, data in _json_variants(name):
            yield case, name, data
    for case, data in _csv_variants():
        yield case, "chain.csv", data
    for name, data in FILES.items():
        middle = len(data) // 2
        for i, byte in enumerate(BAD_BYTES):
            yield f"{name} bad byte {i}", name, data[:middle] + byte + data[middle:]
        yield f"{name} cut", name, data[:middle]
