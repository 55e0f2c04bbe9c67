"""The benchmark's deep-o6 workload as a Tier-1 test.

It computes E12 and U12 at order 6 through the library path, with the
checks that path records, and compares each record byte for byte with its
golden record in perfbench/records/deep-o6, which it only reads.  So the
flat-coordinate inversion and the J_(-2) substitution at order 6 are gated
outside the benchmark too.  The library path must also run on the
solve's int slices alone, build no Fraction series between the solve and
F0, and release the parts of exp(F - f) after the defect, their last
reader.
"""

import json
from pathlib import Path

import pytest

from primform import frobenius, primitive
from primform.algebra import SSeries
from primform.frobenius import prepotential, prepotential_record
from primform.primitive import (
    PrimitiveFormResult,
    UnfoldingState,
    build_unfolding,
    defect_is_zero,
    solve_star,
)

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "records" / "deep-o6"


def library_record(name, data, result) -> bytes:
    checks = {"defect": "pass" if defect_is_zero(result) else "fail"}
    frob = prepotential(result, data)
    checks["integrability"] = "pass"
    record = prepotential_record(data, frob, name, checks)
    return (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("name", ["E12", "U12"])
def test_deep_o6_matches_golden_record(name, milnor_cache, solved_cache):
    record = library_record(name, milnor_cache(name), solved_cache(name, 6))
    assert record == (GOLDEN / f"{name}.json").read_bytes()


def test_library_path_reads_only_the_slices(catalog, milnor_cache, monkeypatch):
    # With the Fraction view of zeta and J disabled, the solve, the defect
    # and the prepotential still give the golden record; the parts are
    # built once, by the solve, and no longer held once the defect is done.
    def refuse(*args):
        raise AssertionError("the library path built a Fraction block")

    builds = []
    original = UnfoldingState.exp_parts

    def counted(state, floor):
        if floor not in state._parts:
            builds.append(floor)
        return original(state, floor)

    monkeypatch.setattr(primitive, "_block", refuse)
    monkeypatch.setattr(UnfoldingState, "exp_parts", counted)
    data = milnor_cache("E12")
    result = solve_star(build_unfolding(catalog["E12"].weighted_polynomial(), data, 6))
    assert library_record("E12", data, result) == (GOLDEN / "E12.json").read_bytes()
    assert builds == [-2]
    assert result.state._parts == {}


def test_prepotential_builds_no_fraction_series(milnor_cache, solved_cache, monkeypatch):
    # From the solve's slices to F0 the prepotential stays on ints: with the
    # Fraction views of J_(-1) and J_(-2), the Fraction inversion and the
    # Fraction substitution disabled, it still gives the golden F0 of E12,
    # and the only series it builds is F0 itself.
    def refuse(*args):
        raise AssertionError("the prepotential built a Fraction series")

    for target, name in ((PrimitiveFormResult, "j_components"),
                         (frobenius, "invert_coordinates"), (frobenius, "substitute")):
        monkeypatch.setattr(target, name, refuse)
    built = []
    original = SSeries.__init__

    def counted(series, *args):
        built.append(None)
        original(series, *args)

    result, data = solved_cache("E12", 6), milnor_cache("E12")
    monkeypatch.setattr(SSeries, "__init__", counted)
    f0 = prepotential(result, data).prepotential
    monkeypatch.setattr(SSeries, "__init__", original)
    assert len(built) == 1
    assert f0.to_records() == json.loads((GOLDEN / "E12.json").read_text())["terms"]
