"""Every function, class and method of the package is used by the package.

A definition that nothing in ``src/payoffopt`` refers to is code no command
reaches; it gets deleted rather than kept for tests or for later. The check
is by name: a definition counts as used when its name appears as a name or
an attribute anywhere in the package outside its own body; an attribute
that a builtin type's method also names, as ``listed.index(anchor)`` does,
is not counted. Dunders are exempt, since Python calls them. A helper in
``tests/support.py`` that no test refers to gets deleted too.

The package holds no ``assert`` statement either: ``python -O`` strips
them, so a check the package needs raises its error explicitly.
Nor does it import anything outside the standard library but scipy's
binding of HiGHS.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import payoffopt

PACKAGE = Path(payoffopt.__file__).resolve().parent

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

BUILTIN_METHODS = {
    name for kind in (str, bytes, list, tuple, dict, set, int) for name in dir(kind)
}


def referenced_names(tree: ast.AST) -> Counter:
    """How often each name is read, written or taken as an attribute, not
    counting an attribute a builtin type's method also names."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and node.attr not in BUILTIN_METHODS:
            names[node.attr] += 1
    return names


def orphans(directory: Path, defining: str = "*.py") -> list[str]:
    """``file:line name`` of each definition in ``directory``'s ``defining``
    files that none of its Python files refers to."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}
    used = sum((referenced_names(tree) for tree in trees.values()), Counter())
    found = []
    for path in sorted(directory.glob(defining)):
        for node in ast.walk(trees[path]):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - referenced_names(node)[name] <= 0:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


# definitions the package keeps without calling them: benchmark/tracing.py
# wraps ``build_subproblem`` by name in payoffopt.cli and payoffopt.optimizer,
# which import it for that alone, until the tracer reads solver stats
KEPT_FOR_THE_TRACER = ["build_subproblem"]


def test_every_definition_is_referenced():
    assert [entry.split()[-1] for entry in orphans(PACKAGE)] == KEPT_FOR_THE_TRACER
    assert orphans(Path(__file__).resolve().parent, "support.py") == []


def test_an_unused_definition_is_found(tmp_path):
    # a list's index method is no use of Box.index
    (tmp_path / "mod.py").write_text(
        "def used(listed):\n    return listed.index(1)\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used([1])\n\n\n"
        "class Box:\n    def spare(self):\n        return self\n\n"
        "    def index(self):\n        return 0\n"
    )
    unused = ["mod.py:9 Box", "mod.py:10 spare", "mod.py:13 index"]
    assert orphans(tmp_path) == ["mod.py:5 recursive", *unused]
    # a use in another file counts, and only the defining files are checked
    (tmp_path / "test_mod.py").write_text("def test_it():\n    assert recursive(1)\n")
    assert orphans(tmp_path, "mod.py") == unused


def test_the_package_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# the one module outside the standard library the package imports: scipy's
# binding of HiGHS
BINDING = "scipy.optimize._highspy._core"


def test_the_package_imports_only_the_standard_library_and_highs():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append(node.module)
    assert BINDING in found
    assert [
        name
        for name in found
        if name != BINDING and name.partition(".")[0] not in sys.stdlib_module_names
    ] == []
