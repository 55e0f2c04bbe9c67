"""Regenerate the benchmark's committed records.

    python3 perfbench/make_golden.py

Writes, through the same calls the workloads make:
  records/sweep-o4/<name>.json  `primform compute --order 4` output (golden)
  records/deep-o6/<name>.json   library-path record at order 6 (golden, and
                                the good inputs of verify-o6)
  records/verify-o6/Q10.json    order-6 record that verify-o6 perturbs

Records are only regenerated on purpose: a change to the engine must
reproduce them byte for byte, which is what the benchmark checks.
"""

from __future__ import annotations

import sys

import worker


def main() -> int:
    primform, cli = worker.import_engine()
    catalog = primform.load_catalog()
    outputs = {}
    for name in worker.SWEEP_O4:
        code, out = worker.compute_via_cli(cli, name, 4)
        if code != 0:
            raise SystemExit(f"error: compute {name} exited with {code}")
        outputs[("sweep-o4", name)] = out
    for name in worker.DEEP_O6:
        outputs[("deep-o6", name)] = worker.compute_via_library(primform, catalog[name], 6)
    name = worker.PERTURBED_O6
    outputs[("verify-o6", name)] = worker.compute_via_library(primform, catalog[name], 6)
    for (group, name), out in outputs.items():
        path = worker.golden_path(group, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(out)
        print(f"wrote {path.relative_to(worker.ROOT)} ({len(out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
