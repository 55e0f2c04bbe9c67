"""The benchmark's deep-o6 workload as a Tier-1 test.

It computes E12 and U12 at order 6 through the library path, with the
checks that path records, and compares each record byte for byte with its
golden record in perfbench/records/deep-o6, which it only reads.  So the
flat-coordinate inversion and the J_(-2) substitution at order 6 are gated
outside the benchmark too.
"""

import json
from pathlib import Path

import pytest

from primform.frobenius import prepotential, prepotential_record
from primform.primitive import defect_is_zero

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "records" / "deep-o6"


@pytest.mark.parametrize("name", ["E12", "U12"])
def test_deep_o6_matches_golden_record(name, milnor_cache, solved_cache):
    data = milnor_cache(name)
    result = solved_cache(name, 6)
    checks = {"defect": "pass" if defect_is_zero(result) else "fail"}
    frob = prepotential(result, data)
    checks["integrability"] = "pass"
    record = prepotential_record(data, frob, name, checks)
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert text.encode() == (GOLDEN / f"{name}.json").read_bytes()
