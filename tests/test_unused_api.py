"""A guard against engine API that only tests use.

Every function and method defined in src/primform/*.py is listed from the
source, and an in-process run is profiled with sys.setprofile: every
command through `cli.main` (compute with and without --check-defect, with
--basis and with --poly; verify of a passing and of a failing record;
info, mirror and catalog-selftest), the library path of the benchmark's
deep-o6 workload, and the reads its tracer makes of the results.  The
functions that the run never calls must be exactly those in UNCALLED, each
with the reason it is kept.  A new function that no command calls fails
here, and so does a listed one that a command starts to call.
"""

import ast
import contextlib
import importlib.util
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import primform
from primform import cli
from primform.catalog import load_catalog
from primform.frobenius import (
    flat_coordinates,
    invert_coordinates,
    prepotential,
    prepotential_record,
)
from primform.milnor import milnor_basis
from primform.primitive import build_unfolding, defect_is_zero, solve_star

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(primform.__file__).resolve().parent

REFERENCE = "Fraction arithmetic of the tests' reference solve, inversion and WDVV check"
REPR = "what a failing assertion or a debugger shows"

UNCALLED = {
    "algebra.SSeries.variable": REFERENCE,
    "algebra.SSeries.__eq__": "the tests compare series by value",
    "algebra.SSeries.__sub__": REFERENCE,
    "algebra.SSeries.__neg__": REFERENCE,
    "algebra.SSeries.truncate": REFERENCE,
    "algebra.SSeries.degree_part": REFERENCE,
    "algebra.LaurentBlock.__bool__": "the tests ask whether a Fraction block is empty",
    "mirror.smith_normal_form.swap_rows": "no catalog matrix has its least entry below the pivot row",
    "algebra.SSeries.__repr__": REPR,
    "algebra.LaurentBlock.__repr__": REPR,
    "milnor.WeightedPolynomial.__repr__": REPR,
    "milnor.MilnorData.__repr__": REPR,
    "mirror.InvertiblePolynomial.__repr__": REPR,
    "frobenius.CheckReport.__repr__": REPR,
}


def defined_functions(sources: dict) -> dict:
    """{(path, first line): "module.qualified.name"} for every def in the
    {path: source} files; a decorated def starts at its first decorator,
    as its code object does."""
    found = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[path, first] = name
                visit(path, child, name)

    for path, source in sources.items():
        visit(path, ast.parse(source), Path(path).stem)
    return found


def uncalled(sources: dict, called: set) -> list:
    return sorted(name for key, name in defined_functions(sources).items() if key not in called)


def quiet_main(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def tracer_readers():
    """The functions with which the benchmark's tracer reads a result."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._j_terms, module._cache_entries, module._f0_terms


def run_everything(tmp: Path) -> None:
    good, bad = tmp / "good.json", tmp / "bad.json"
    assert quiet_main(["compute", "--singularity", "A4", "--order", "4", "--output", str(good)]) == 0
    record = json.loads(good.read_text())
    # 1 more at t2*t3^2*t4 breaks WDVV (see test_cli's own verdicts).
    term = next(t for t in record["terms"] if t["exponents"] == [0, 1, 2, 1])
    term["coeff"] = str(Fraction(term["coeff"]) + 1)
    bad.write_text(json.dumps(record))
    e12 = milnor_basis(load_catalog()["E12"].weighted_polynomial())
    basis = ",".join(reversed(e12.record_fields()["basis"]))
    runs = [
        (["compute", "--singularity", "U12", "--order", "3", "--check-defect"], 0),
        (["compute", "--singularity", "E12", "--order", "3", "--basis", basis], 0),
        (["compute", "--poly", "x^3+y^4", "--order", "3", "--format", "human"], 0),
        (["verify", str(good)], 0),
        (["verify", str(bad)], 1),
        (["info", "--singularity", "E12"], 0),
        (["mirror", "--singularity", "S12"], 0),
        (["catalog-selftest"], 0),
    ]
    for argv, code in runs:
        assert quiet_main(argv) == code, argv
    j_terms, cache_entries, f0_terms = tracer_readers()
    for name in ("E12", "U12"):
        f = load_catalog()[name].weighted_polynomial()
        data = milnor_basis(f)
        result = solve_star(build_unfolding(f, data, 6))
        assert defect_is_zero(result)
        frob = prepotential(result, data)
        prepotential_record(data, frob, name, {"defect": "pass"})
        assert None not in (j_terms(result), cache_entries(result), f0_terms(frob))
        invert_coordinates(flat_coordinates(result), result.order)


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    # A parser built by an earlier test would hide build_parser's body.
    cli.build_parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_everything(tmp_path_factory.mktemp("records"))
    finally:
        sys.setprofile(previous)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in seen}


def sources() -> dict:
    return {str(path.resolve()): path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_uncalled_functions_are_pinned(called):
    assert uncalled(sources(), called) == sorted(UNCALLED)


def test_an_uncalled_function_fails(called):
    # Negative control: a function appended to a module that nothing calls.
    texts = sources()
    path = str((SRC / "primitive.py").resolve())
    texts[path] += "\n\ndef _injected():\n    return None\n"
    assert uncalled(texts, called) == sorted([*UNCALLED, "primitive._injected"])
