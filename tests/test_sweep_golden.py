"""The benchmark's sweep-o4 workload as a Tier-1 test.

It runs `primform compute --singularity NAME --order 4` in process through
cli.main for all eight sweep-o4 entries and compares each record byte for
byte with its golden record in perfbench/records/sweep-o4, which it only
reads.  So the three-variable lattice reductions of W13, E14, Q10 and U12
are gated outside the benchmark too.
"""

from pathlib import Path

import pytest

from primform import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "records" / "sweep-o4"


@pytest.mark.parametrize("name", ["A4", "D4", "P8", "Q10", "U12", "E12", "E14", "W13"])
def test_sweep_o4_matches_golden_record(name, capsys):
    code = cli.main(["compute", "--singularity", name, "--order", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
