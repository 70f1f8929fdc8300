"""Packaging metadata: every declared console script must resolve, and every
public definition of the package has a caller."""

import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# public definitions nothing in the package or its benchmark calls, kept on
# purpose; each one leaves this list once something calls it
KEPT = {
    "terminal_lyapunov_check": "the terminal-ingredient audit the planner is to be wired to",
}


def test_every_declared_script_target_imports():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} points at {target!r}, which is not callable"


def test_every_public_definition_has_a_caller():
    """A public top-level function or class of ``src/rampflow`` counts as
    called when a name or an attribute outside its own body spells it, in
    the package or in ``perfbench``; a public method, property or
    classmethod of a public class, when one spells it anywhere there.
    Dunder methods are exempt. Import lists, ``__all__`` strings and
    docstrings are not names, so they do not count."""
    package = sorted((ROOT / "src" / "rampflow").glob("*.py"))
    defined, spelled = {}, set()
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if path in package and not owner.startswith("_"):
                    defined[owner] = owner
                    members = stmt.body if isinstance(stmt, ast.ClassDef) else []
                    defined.update((f"{owner}.{m.name}", m.name) for m in members
                                   if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                                   and not m.name.startswith("_"))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != owner:
                    spelled.add(name)
    uncalled = {qualified for qualified, name in defined.items() if name not in spelled}
    assert sorted(uncalled - set(KEPT)) == [], "public definitions nothing calls"
    assert sorted(set(KEPT) - uncalled) == [], "kept names that are now called or gone"


def test_every_private_definition_has_a_caller_in_the_package():
    """A private top-level function or class of ``src/rampflow`` counts as
    called when a name or an attribute outside its own body spells it in
    the package; a private method of any of its classes, when one spells
    it anywhere in the package. Tests, ``tools`` and ``perfbench`` do not
    count: a private definition only they reach is dead code they keep
    alive. Dunder methods are exempt."""
    defined, spelled = set(), set()
    for path in sorted((ROOT / "src" / "rampflow").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if owner.startswith("_"):
                    defined.add(owner)
                members = stmt.body if isinstance(stmt, ast.ClassDef) else []
                defined.update(m.name for m in members
                               if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                               and m.name.startswith("_") and not m.name.endswith("__"))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != owner:
                    spelled.add(name)
    assert sorted(defined - spelled) == [], "private definitions nothing in the package calls"


def test_every_keyword_default_is_passed_somewhere():
    """A keyword-only parameter with a default, on a function or method of
    ``src/rampflow``, counts as used when some call of a function of that
    name, in the package or in ``perfbench``, passes it by name. A default
    nothing overrides is a constant, and a flag nothing sets hides the code
    behind it. Functions in ``KEPT`` are exempt."""
    package = sorted((ROOT / "src" / "rampflow").glob("*.py"))
    declared, passed = set(), set()
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and path in package:
                declared |= {(node.name, arg.arg) for arg, default
                             in zip(node.args.kwonlyargs, node.args.kw_defaults)
                             if default is not None and node.name not in KEPT}
            elif isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                passed |= {(name, kw.arg) for kw in node.keywords}
    assert sorted(declared - passed) == [], "keywords no call passes"


def test_every_imported_name_is_used():
    """Every name an import binds in a module of ``src/rampflow``, ``tools``
    or ``tests`` is read in that module. An import marked ``# noqa: F401``
    on its first line re-exports its names and is exempt, as are
    ``__future__`` imports."""
    unused = []
    for path in sorted(p for d in ("src/rampflow", "tools", "tests")
                       for p in (ROOT / d).glob("*.py")):
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  and "noqa: F401" not in lines[node.lineno - 1]):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                                for a in node.names)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in imported.items() if name not in read]
    assert sorted(unused) == [], "imported names that are never used"
