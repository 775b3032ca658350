"""Every cross-reference in the text of ``src/copsl`` names something that exists.

A ``:func:``, ``:meth:``, ``:class:``, ``:attr:`` or ``:mod:`` target resolves
when its first dotted part is a name in the module's own namespace or in
``copsl``'s and the rest are attributes of it, or when it is an importable
module path followed by attributes.
"""

import functools
import importlib
import re
from pathlib import Path

import pytest

import copsl

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "copsl").glob("*.py"))
ROLE = re.compile(r":(?:func|meth|class|attr|mod):`~?([^`]+)`")
REFERENCES = [
    (path, target) for path in SOURCES for target in ROLE.findall(path.read_text(encoding="utf-8"))
]


def _has_attributes(root, names) -> bool:
    try:
        functools.reduce(getattr, names, root)
    except AttributeError:
        return False
    return True


def resolves(module, target: str) -> bool:
    parts = target.split(".")
    for namespace in (vars(module), vars(copsl)):
        if parts[0] in namespace and _has_attributes(namespace[parts[0]], parts[1:]):
            return True
    for cut in range(len(parts), 0, -1):
        try:
            root = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _has_attributes(root, parts[cut:])
    return False


def test_sources_hold_references():
    assert len(REFERENCES) >= 30


@pytest.mark.parametrize("path, target", REFERENCES, ids=[f"{path.name}:{target}" for path, target in REFERENCES])
def test_reference_resolves(path, target):
    module = importlib.import_module("copsl" if path.stem == "__init__" else f"copsl.{path.stem}")
    assert resolves(module, target), f"{path.name}: {target} names nothing"


def test_a_missing_name_does_not_resolve():
    assert not resolves(copsl.config, "RunConfig.validate")
    assert not resolves(copsl.config, "copsl.config.no_such_name")
    assert resolves(copsl.config, "copsl.config.RunConfig.check_suite")
