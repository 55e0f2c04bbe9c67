"""One sha256 over the records of `primform compute --check-defect`.

Every catalog entry runs at orders 0-4, and W13 and S12, whose
substitutions are in three variables, run at order 6 as well; all in
process through cli.main.  The digest covers each run's arguments, exit
code, stdout and stderr, so a change that claims byte-identical records
must leave it as it is.  A change that means to alter a record updates the
pin and says which records moved.
"""

import hashlib

from primform import cli
from primform.catalog import load_catalog

DIGEST = "2ad0afe53311e0472e759dc0d5ea40814c08173a8ed39c4175ad98326d231ea6"


def test_compute_records_digest(capsys):
    runs = [(name, order) for name in load_catalog() for order in range(5)]
    runs += [("W13", 6), ("S12", 6)]
    digest = hashlib.sha256()
    for name, order in runs:
        argv = ["compute", "--singularity", name, "--order", str(order), "--check-defect"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        for part in (" ".join(argv), str(code), captured.out, captured.err):
            digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == DIGEST
