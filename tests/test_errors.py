"""The package defines one exception class per failure that ``cli.run``
tells apart, and no other.

Each class ``run`` catches is one ``error:<category>:`` line and one
documented exit code. A class that no arm of ``run`` names draws a
distinction that nothing acts on: its callers catch its base. The check
reads the source: a class counts as an exception when its bases lead to
a builtin exception, and only the arms that name a package class count;
``SystemExit`` from argparse and the ``Exception`` of a defect are builtins.
"""

import ast
import builtins
from pathlib import Path

import payoffopt

PACKAGE = Path(payoffopt.__file__).resolve().parent


def exception_classes(package: Path) -> set[str]:
    """Names of the exception classes the modules of ``package`` define."""
    bases: dict[str, list[str]] = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]

    def is_exception(name: str) -> bool:
        if name in bases:
            return any(is_exception(base) for base in bases[name])
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, Exception)

    return {name for name in bases if is_exception(name)}


def handled_classes(package: Path) -> set[str]:
    """Names of the package classes that an ``except`` arm of ``cli.run``
    names."""
    tree = ast.parse((package / "cli.py").read_text())
    run = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "run"
    )
    names = set()
    for node in ast.walk(run):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names |= {c.id for c in caught if isinstance(c, ast.Name)}
    return {name for name in names if not hasattr(builtins, name)}


def test_every_exception_class_has_its_own_arm_in_run():
    assert exception_classes(PACKAGE) == handled_classes(PACKAGE) == {
        "CliError",
        "MarketDataError",
        "SolverError",
        "SolverResourceError",
        "SpecError",
    }


def test_an_exception_class_without_an_arm_is_found(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Base(ValueError):\n    pass\n\n\n"
        "class Detail(Base):\n    pass\n\n\n"
        "class Other(Exception):\n    pass\n\n\n"
        "class Plain:\n    pass\n"
    )
    (tmp_path / "cli.py").write_text(
        "def run():\n"
        "    try:\n        pass\n"
        "    except SystemExit:\n        pass\n"
        "    try:\n        pass\n"
        "    except (Base, Other):\n        pass\n"
        "    except Exception:\n        pass\n"
    )
    assert exception_classes(tmp_path) == {"Base", "Detail", "Other"}
    assert handled_classes(tmp_path) == {"Base", "Other"}
