"""The benchmark's smoke workload as a Tier-1 test.

It computes A4, D4 and P8 at order 4 through the CLI and compares each
record byte for byte with its golden record in perfbench/records, then
verifies one of them, so a drift in a golden record fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_workload_matches_golden_records():
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/worker.py", "--workload", "smoke", "--seed", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] == 4
    assert result["failures"] == []
