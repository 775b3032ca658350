"""No leftovers in the package: every module-level private name is used
somewhere in it, and every name a module imports is used in that module.

A lint pass in the test suite, on the syntax trees alone: nothing is
imported. A name counts as used where it is read, or read as an attribute;
``__init__`` re-exports what it imports, so a name in its ``__all__`` is used.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "copsl"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree) -> set[str]:
    """Every name ``tree`` reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_module_names(tree) -> set[str]:
    """The private names the module defines at its top level: ``_x``, not ``__x__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def _exported(tree) -> set[str]:
    """The strings in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def _imported(tree) -> set[str]:
    """The names the module's imports bind, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def test_package_has_modules():
    assert {"__init__.py", "config.py", "trainer.py"} <= set(TREES)


def test_every_module_level_private_name_is_used():
    used = set().union(*map(_read_names, TREES.values()))
    unused = {module: sorted(_private_module_names(tree) - used) for module, tree in TREES.items()}
    assert {module: names for module, names in unused.items() if names} == {}


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    assert sorted(_imported(tree) - _read_names(tree) - _exported(tree)) == []
