"""The benchmark's smoke workload as a Tier-1 test.

It computes A4, D4 and P8 at order 4 through the CLI and compares each
record byte for byte with its golden record in perfbench/records, then
verifies one of them, so a drift in a golden record fails here too.  The
traced pass must also read every per-layer metric and the same work
counters, so that a change to what the tracer reads off a result (such as
`result.J`) shows here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_smoke(*flags):
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/worker.py", "--workload", "smoke", "--seed", "1", *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_workload_matches_golden_records():
    result = run_smoke()
    assert result["attempted"] == 4
    assert result["failures"] == []


def test_traced_smoke_reads_every_layer_and_counter():
    result = run_smoke("--trace")
    assert result["failures"] == []
    layers = result["layers"]
    assert [name for name, value in layers.items() if value is None] == []
    counters = {
        name: layers[name]
        for name in (
            "primitive.j_terms",
            "brieskorn.cache_entries",
            "frobenius.f0_terms",
            "frobenius.wdvv_checked",
        )
    }
    assert counters == {
        "primitive.j_terms": 157,
        "brieskorn.cache_entries": 156,
        "frobenius.f0_terms": 22,
        "frobenius.wdvv_checked": 3776,
    }
