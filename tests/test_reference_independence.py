"""A guard that the tests' oracles share no code with the engine.

`fraction_reference` (the dense Fraction elimination behind every
determinant, inverse and rank a test takes) and `a_series_oracle` (the
one-variable solver) check the engine, so they may import the standard
library only: an import of primform, or of a test helper that imports
it, would let the engine check itself.  The imports are read from the
source with `ast`, so nothing is imported to find them.
"""

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ORACLES = ["fraction_reference.py", "a_series_oracle.py"]


def non_stdlib_imports(source: str) -> list:
    """The modules that the imports of a source name outside the standard
    library, a relative import as its dots."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return found


@pytest.mark.parametrize("name", ORACLES)
def test_oracle_imports_the_standard_library_only(name):
    assert non_stdlib_imports((TESTS / name).read_text()) == []


@pytest.mark.parametrize(
    "line, module",
    [
        ("from primform.algebra import eliminate", "primform.algebra"),
        ("import primform.frobenius as engine", "primform.frobenius"),
        ("from exact_forms import const", "exact_forms"),
        ("from . import conftest", "."),
    ],
    ids=["from engine", "import engine", "helper", "relative"],
)
def test_an_engine_import_is_caught(line, module):
    # Negative control: the reference with one more import fails the guard.
    source = (TESTS / "fraction_reference.py").read_text()
    assert non_stdlib_imports(f"{source}\n{line}\n") == [module]
