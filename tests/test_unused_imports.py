"""A guard against unused imports in src/primform and in tests.

Every name that an import binds in a module of src/primform, __init__.py
aside, or in a file of tests (conftest.py and the helpers included) must
be read in that module; `annotations` from `__future__` binds nothing to
read.  A deletion that leaves an import behind fails here.
"""

import ast
from pathlib import Path

import pytest

import primform

SRC = Path(primform.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = [
    *sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    *sorted(TESTS.glob("*.py")),
]


def unused_imports(source: str) -> list:
    """The names that the imports of a module source bind and never read."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if (getattr(node, "module", None), alias.name) != ("__future__", "annotations"):
                    bound.add(alias.asname or alias.name.split(".")[0])
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_flagged():
    # Negative control: catalog.py reads no gcd.
    source = (SRC / "catalog.py").read_text()
    assert unused_imports(source) == []
    assert unused_imports(source + "\nfrom math import gcd\n") == ["gcd"]
