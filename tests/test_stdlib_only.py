"""The package runs on the standard library alone ("no runtime dependencies"),
the oracles import nothing from it, only its ``_memo`` module makes
caches, and only ``stability._require_int`` checks an integer argument."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "triplehodge"


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    # a string match: tomllib is 3.11+, and the package supports 3.10
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines


def test_oracles_import_nothing_from_the_package():
    # the oracles are the independent side of the tests' comparisons, so
    # they reach into no code they are compared against
    path = ROOT / "tests" / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    relative = [
        f"{node.lineno}: relative import"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    package = [
        f"{line}: {name}"
        for line, name in _absolute_imports(path)
        if name.partition(".")[0] == "triplehodge"
    ]
    assert relative + package == []


def test_only_the_memo_module_makes_caches():
    # every memo is made in _memo and registered there, so clear_all()
    # reaches it; a cache made elsewhere would escape the reset
    names = {"cache", "lru_cache"}
    made = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_memo.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                made += [f"{path.name}:{node.lineno}: {alias.name}"
                         for alias in node.names if alias.name in names]
            elif isinstance(node, ast.Attribute) and node.attr in names \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "functools":
                made.append(f"{path.name}:{node.lineno}: {node.attr}")
    assert made == []


def test_only_require_int_checks_an_integer_argument():
    # every integer argument of the public API goes through one check,
    # so a non-integer raises a TypeError that names it everywhere;
    # laurent keeps its own checks of terms and exponents
    checks = []
    for name in ("stability", "zoo", "rank2", "flips", "moduli", "series"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_require_int"
            for node in ast.walk(fn)
        }
        checks += [
            f"{name}.py:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Name) and node.args[1].id == "int"
        ]
    assert checks == []
