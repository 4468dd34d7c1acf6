"""The package exports nothing that only its tests use.

Every name that ``plottmatch/__init__.py`` re-exports from a module other
than ``oracle`` (the tests' ground truth) or ``errors`` must be used by the
package itself (a name or attribute in one of its modules, not counting
``__init__.py``), by the benchmark, or in the README. A definition is not a
use. Likewise every error class but the base is raised somewhere, and only
``errors`` defines error classes. Only the exhaustive layer (``choice``,
``oracle``, ``hyperorders``) imports numpy, and only ``oracle`` imports
hashlib, inside a function. Every module-level private function or class
is defined once and read by some other statement.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plottmatch"
EXEMPT = {"oracle", "errors"}


def _used_names(path: Path) -> set[str]:
    """The names and attributes a file reads; an assignment target is not a read."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _exports() -> list[tuple[str, str]]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def unused_exports() -> list[str]:
    """Exports that no package module, bench file or README word uses."""
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        if path != PACKAGE / "__init__.py":
            used |= _used_names(path)
    return [name for module, name in _exports() if module not in EXEMPT and name not in used]


def test_exports_are_read_outside_the_tests():
    assert _exports(), "no exports parsed"
    assert unused_exports() == []


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (``from __future__`` aside)."""
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_module_uses_what_it_imports():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 7, "no modules found"
    assert {path.name: unused_imports(path) for path in modules} == {
        path.name: [] for path in modules}


def _called_names(path: Path) -> set[str]:
    """The names a module calls, bare or as an attribute."""
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)}


def test_every_error_class_is_raised_and_defined_in_errors():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert "ParseError" in defined, "no error classes parsed"
    modules = [path for path in PACKAGE.glob("*.py") if path.name != "errors.py"]
    constructed = set().union(*map(_called_names, modules))
    assert sorted(defined - constructed) == ["PlottmatchError"]
    elsewhere = [f"{module.__name__}.{name}"
                 for module in (importlib.import_module(f"plottmatch.{path.stem}")
                                for path in modules if path.name != "__init__.py")
                 for name, obj in vars(module).items()
                 if isinstance(obj, type) and issubclass(obj, BaseException)
                 and obj.__module__ == module.__name__]
    assert elsewhere == []


def _imports_of(tree: ast.AST, module: str) -> list[ast.stmt]:
    """The import statements under ``tree`` that import ``module`` or a submodule of it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] == module for name in names):
            found.append(node)
    return found


def _imports_numpy(path: Path) -> bool:
    return bool(_imports_of(ast.parse(path.read_text()), "numpy"))


def test_only_the_exhaustive_layer_imports_numpy():
    # whole tables live in choice, oracle and hyperorders; every other query is on bitmasks
    users = {path.stem for path in PACKAGE.glob("*.py") if _imports_numpy(path)}
    assert users == {"choice", "oracle", "hyperorders"}


def test_only_the_fingerprint_imports_hashlib():
    # hashlib maps OpenSSL's libcrypto into the process, so only a fingerprint read may load it
    users = {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        local = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in _imports_of(fn, "hashlib")}
        if found := _imports_of(tree, "hashlib"):
            users[path.stem] = all(id(node) in local for node in found)
    assert users == {"oracle": True}


def _read_name(node: ast.AST) -> str | None:
    """The name a node reads, bare or as an attribute, else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_every_private_helper_is_read():
    # a module-level _name that no other top-level statement of the package reads is dead code
    reads = [(stmt, {_read_name(sub) for sub in ast.walk(stmt)})
             for path in sorted(PACKAGE.glob("*.py")) for stmt in ast.parse(path.read_text()).body]
    helpers = [stmt for stmt, _ in reads if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and stmt.name.startswith("_")]
    assert len(helpers) >= 40, "no private helpers parsed"
    names = [helper.name for helper in helpers]
    assert sorted(names) == sorted(set(names)), "a helper is defined in two modules"
    dead = [helper.name for helper in helpers
            if not any(helper.name in read for stmt, read in reads if stmt is not helper)]
    assert dead == []
