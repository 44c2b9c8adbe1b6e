"""``tools/compare.py``: the working tree against a revision, in one process."""

import json
import multiprocessing
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_compare(monkeypatch):
    # the tool's spawned interpreters find it, and the benchmark modules it
    # imports, on the path they inherit
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import compare

    return compare


def corpus_slice(compare, out, count):
    commands = compare.workloads.corpus_commands(ROOT, out)[:count]
    return {"corpus-small": [list(command.argv) for command in commands]}


def test_head_against_itself_answers_alike(monkeypatch, tmp_path):
    compare = load_compare(monkeypatch)
    bench = tmp_path / "BENCH_smoke.json"
    report = compare.compare("HEAD", 1, bench, corpus_slice(compare, tmp_path, 3))
    assert report["differences"] == []
    assert json.loads(bench.read_text()) == report
    assert report["checked"]["golden"] == list(compare.golden_commands())
    assert report["repeats"] == {"fixture-optimize": 5}
    assert len(report["checked"]["golden"]) == 12
    assert report["checked"]["malformed"] == 1245
    assert set(report["machine"]) >= {"cores", "python", "scipy", "highs", "numpy"}
    assert [found["imported"] for found in report["measurements"].values()] == [
        ["base", "change"], ["change", "base"], ["base", "base copy"]
    ]
    for found in report["measurements"].values():
        assert found["workloads"]["corpus-small"]["commands"] == 3
        assert found["workloads"]["corpus-small"]["ratio"] > 0


def test_a_changed_answer_is_a_difference(monkeypatch, tmp_path):
    # a tree whose table names the objective's footer otherwise differs from
    # the working tree in the fixture's stdout, and in nothing else; of the
    # golden commands, exactly the three tables differ, in stdout
    compare = load_compare(monkeypatch)
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src" / "payoffopt", changed / "payoffopt")
    optimizer = changed / "payoffopt" / "optimizer.py"
    text = optimizer.read_text()
    assert text.count('"max F"') == 1
    optimizer.write_text(text.replace('"max F"', '"max G"'))
    [fixture] = compare.workloads.fixture_commands(ROOT, tmp_path)
    assert fixture.argv[-2:] == ("--format", "json")
    commands = {"fixture-optimize": [list(fixture.argv[:-2])]}
    checked = {"golden": compare.golden_commands()}
    warm_up = list(compare.workloads.warm_up_command(tmp_path).argv)
    trees = [("payoffopt_0", str(ROOT / "src")), ("payoffopt_1", str(changed))]
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        found = pool.apply(
            compare.measure, (trees, commands, checked, warm_up, 1, str(tmp_path))
        )
    # the fixture command runs, and differs, five times in its one round
    golden, fixture = found["differences"][:3], found["differences"][3:]
    assert [(d["workload"], d["command"], d["differs"]) for d in golden] == [
        ("golden", name, ["stdout"])
        for name in ("optimize-csv-table", "sweep-liquidity-table", "sweep-cost-table")
    ]
    assert compare.REPEATS == {"fixture-optimize": 5}
    assert len(fixture) == 5 and all(d == fixture[0] for d in fixture)
    difference = fixture[0]
    assert (difference["workload"], difference["round"]) == ("fixture-optimize", 0)
    assert difference["differs"] == ["stdout"]
    code, stdout, stderr = difference["answers"]["payoffopt_0"]
    assert (code, stderr) == (0, "") and "max F" in stdout
    changed_answer = [0, stdout.replace("max F", "max G"), ""]
    assert difference["answers"]["payoffopt_1"] == changed_answer


def test_a_changed_message_is_a_difference_on_malformed_inputs(monkeypatch, tmp_path):
    # a tree that words the bad-right message otherwise answers every
    # malformed command alike but those with a bad right, in stderr only;
    # no golden command reads a bad right
    compare = load_compare(monkeypatch)
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src" / "payoffopt", changed / "payoffopt")
    market_data = changed / "payoffopt" / "market_data.py"
    text = market_data.read_text()
    assert text.count("(expected call or put)") == 1
    market_data.write_text(text.replace("(expected call or put)", "(not a right)"))
    work = tmp_path / "work"
    (work / "malformed").mkdir(parents=True)
    malformed = compare.malformed_commands(work / "malformed")
    checked = {"golden": compare.golden_commands(), "malformed": malformed}
    warm_up = list(compare.workloads.warm_up_command(work).argv)
    trees = [("payoffopt_0", str(ROOT / "src")), ("payoffopt_1", str(changed))]
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        found = pool.apply(compare.measure, (trees, {}, checked, warm_up, 1, str(work)))
    differences = found["differences"]
    assert {(d["workload"], tuple(d["differs"])) for d in differences} == {
        ("malformed", ("stderr",))
    }
    named = {d["command"]: d for d in differences}
    assert "chain.csv row 4 field 1=odd[2]" in named  # the right "x"
    assert "chain.json quotes[0].right=odd[0]" in named  # the right null
    assert all(name.partition(" ")[0] in ("chain.csv", "chain.json") for name in named)
    difference = named["chain.csv row 4 field 1=odd[2]"]
    argv = difference["argv"]
    spec = "<tmp>/malformed/spec.json"
    assert argv[:2] + argv[3:] == ["optimize", "--chain", "--spec", spec]
    assert argv[2].startswith("<tmp>/malformed/") and argv[2].endswith("/chain.csv")
    assert difference["answers"] == {
        "payoffopt_0": [2, "", "error:chain:row 4: bad right 'x' (expected call or put)\n"],
        "payoffopt_1": [2, "", "error:chain:row 4: bad right 'x' (not a right)\n"],
    }
