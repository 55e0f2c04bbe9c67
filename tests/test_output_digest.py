"""One sha256 over the output of `primform info`, `mirror`,
`catalog-selftest`, three `--help` pages and `verify`.

All in process through cli.main:
- `info --format json`, `mirror --format json` and `mirror` for every
  catalog entry;
- `catalog-selftest`;
- `compute --help`, `info --help` and `mirror --help`, formatted at 80
  columns (argparse's layout, so another Python's argparse may move it);
- `verify` on every golden record under perfbench/records/, read in place;
- `verify` on the Q10 order-6 record with 1 added to the coefficient of
  its first degree-5 term, written under tmp_path, so that the text of the
  WDVV violations is pinned too.

The digest covers each run's label, exit code, stdout and stderr; a record
is labelled by its path below the repository, not by where it is checked
out.  A change that claims byte-identical output must leave it as it is.
A change that means to alter an output updates the pin and says which
outputs moved.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from primform import cli
from primform.catalog import load_catalog

DIGEST = "a055449cd3dc146a058b6ef229f32703feea2e17fe81839fea0b658e7dd038de"

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "perfbench" / "records"


def _perturbed_q10(tmp_path) -> Path:
    record = json.loads((RECORDS / "verify-o6" / "Q10.json").read_text(encoding="utf-8"))
    term = next(t for t in record["terms"] if sum(t["exponents"]) == 5)
    term["coeff"] = str(Fraction(term["coeff"]) + 1)
    path = tmp_path / "Q10-perturbed.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def test_output_digest(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    runs = []
    for name in load_catalog():
        target = ["--singularity", name]
        runs += [["info", *target, "--format", "json"], ["mirror", *target, "--format", "json"]]
        runs.append(["mirror", *target])
    runs.append(["catalog-selftest"])
    runs += [[command, "--help"] for command in ("compute", "info", "mirror")]
    runs = [(" ".join(argv), argv) for argv in runs]
    for path in sorted(RECORDS.glob("*/*.json")):
        runs.append((f"verify {path.relative_to(ROOT).as_posix()}", ["verify", str(path)]))
    runs.append(("verify perturbed Q10 o6", ["verify", str(_perturbed_q10(tmp_path))]))

    digest = hashlib.sha256()
    for label, argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        for part in (label, str(code), captured.out, captured.err):
            digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == DIGEST
