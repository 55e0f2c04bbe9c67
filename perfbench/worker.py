"""One pass of a benchmark workload, in a fresh single-threaded process.

    python3 -B perfbench/worker.py --workload sweep-o4 --seed 1 [--trace]

The process imports primform from the checkout's ``src``, loads the
catalog and the workload's inputs (together: set-up), then runs every
case of the workload once, one after the other, and prints one JSON line
with set-up time, pass time, peak resident memory, attempted and failed
cases, and (with --trace) the spans and per-layer metrics of the pass.

Host speed on a shared machine drifts by tens of percent within minutes,
in step on every CPU, so raw seconds from two runs minutes apart do not
compare.  The pass therefore times a fixed calibration chunk (small
Fraction products in a dict, like the engine's series work) right after
set-up and after every case, for CAL_SHARE of the case's time, so that the
chunks sample host speed in proportion to the time the cases ran.  It
reports pass time scaled to a host on which one chunk takes CAL_REF_S, by
the mean chunk time of the pass.  Set-up lasts only tens of milliseconds,
less than the host's jitter lasts, so it is scaled by the one chunk timed
right after it.  A change that makes the engine slower makes the scaled
times larger in the same proportion; the raw times are kept beside them.

Every case is one operation.  A case fails when its output differs from
its golden record byte for byte, when a verify exits with an unexpected
code, or when it raises; a failure is counted, never fatal.  Only set-up
errors (primform missing, inputs unreadable) end the process with a
nonzero code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = HERE / "records"
SCRATCH = HERE / "out"

SWEEP_O4 = ("A4", "D4", "P8", "Q10", "U12", "E12", "E14", "W13")
DEEP_O6 = ("E12", "U12")
VERIFY_GOOD_O6 = ("E12", "U12")
PERTURBED_O6 = "Q10"
PERTURBED_DEGREE = 5
SMOKE_O4 = ("A4", "D4", "P8")
SMOKE_VERIFY = "P8"

WORKLOADS = ("sweep-o4", "deep-o6", "verify-o6", "smoke")

# Reference time of one calibration chunk; it only sets the scale of the
# reported times.
CAL_REF_S = 0.07
CAL_SIDE = 12
# Calibration after a case runs for this share of the case's time, and at
# least one chunk: one chunk is too short to average out the host's
# sub-second jitter that a long case averages over.
CAL_SHARE = 0.1


def canonical(record: dict) -> bytes:
    """The CLI's canonical JSON encoding of a record."""
    return (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()


def golden_path(group: str, name: str) -> Path:
    return RECORDS / group / f"{name}.json"


# -- the calls each case makes ------------------------------------------------


def compute_via_cli(cli, name: str, order: int) -> tuple[int, bytes]:
    """`primform compute --singularity NAME --order N`, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["compute", "--singularity", name, "--order", str(order)])
    return code, out.getvalue().encode()


def compute_via_library(primform, entry, order: int) -> bytes:
    """The library path of the acceptance tables, without WDVV."""
    from primform import frobenius

    f = entry.weighted_polynomial()
    data = primform.milnor_basis(f)
    state = primform.build_unfolding(f, data, order)
    result = primform.solve_star(state)
    checks = {"defect": "pass" if primform.defect_is_zero(result) else "fail"}
    frob = primform.prepotential(result, data)
    checks["integrability"] = "pass"
    return canonical(frobenius.prepotential_record(data, frob, entry.name, checks))


def verify_via_cli(cli, path: Path) -> int:
    """`primform verify PATH`, output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(["verify", str(path)])


def perturb(record: dict, rng: random.Random) -> tuple[dict, list]:
    """Add 1 to one seed-chosen coefficient of total degree PERTURBED_DEGREE."""
    terms = record["terms"]
    candidates = [i for i, t in enumerate(terms) if sum(t["exponents"]) == PERTURBED_DEGREE]
    if not candidates:
        raise ValueError(f"record has no degree-{PERTURBED_DEGREE} term to perturb")
    chosen = rng.choice(candidates)
    terms[chosen]["coeff"] = str(Fraction(terms[chosen]["coeff"]) + 1)
    return record, terms[chosen]["exponents"]


# -- cases --------------------------------------------------------------------


class ComputeCase:
    def __init__(self, name, order, golden):
        self.label = f"compute {name} o{order}"
        self.name, self.order, self.golden = name, order, golden

    def run(self, env, tracer):
        with _maybe_span(tracer, "cli.compute"):
            code, out = compute_via_cli(env.cli, self.name, self.order)
        if code != 0:
            return f"exit code {code}"
        if out != self.golden:
            return "record differs from its golden record"
        return None


class DeepCase:
    def __init__(self, entry, order, golden):
        self.label = f"library {entry.name} o{order}"
        self.entry, self.order, self.golden = entry, order, golden

    def run(self, env, tracer):
        out = compute_via_library(env.primform, self.entry, self.order)
        if out != self.golden:
            return "record differs from its golden record"
        return None


class VerifyCase:
    def __init__(self, label, path, expected):
        self.label = f"verify {label}"
        self.path, self.expected = path, expected

    def run(self, env, tracer):
        with _maybe_span(tracer, "frobenius.verify"):
            code = verify_via_cli(env.cli, self.path)
        if code != self.expected:
            return f"exit code {code}, expected {self.expected}"
        return None


def _maybe_span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# -- set-up -------------------------------------------------------------------


class Env:
    """What set-up produces: the engine modules, the cases and the files to
    remove when the pass ends."""

    def __init__(self, primform, cli, cases, cleanup):
        self.primform, self.cli = primform, cli
        self.cases, self.cleanup = cases, cleanup


def import_engine():
    """Import primform from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "primform" / "__init__.py").is_file():
        raise SystemExit(f"error: no primform package under {src}")
    sys.path.insert(0, str(src))
    import primform
    import primform.cli

    if Path(primform.__file__).resolve().parent != (src / "primform").resolve():
        raise SystemExit(f"error: primform imported from {primform.__file__}, not {src}")
    return primform, primform.cli


def set_up(workload: str, seed: int) -> Env:
    primform, cli = import_engine()
    catalog = primform.load_catalog()
    rng = random.Random(seed)
    cleanup = []

    def read(group, name):
        return golden_path(group, name).read_bytes()

    if workload == "sweep-o4":
        cases = [ComputeCase(n, 4, read("sweep-o4", n)) for n in SWEEP_O4]
    elif workload == "deep-o6":
        cases = [DeepCase(catalog[n], 6, read("deep-o6", n)) for n in DEEP_O6]
    elif workload == "verify-o6":
        cases = [
            VerifyCase(f"{n} o6", golden_path("deep-o6", n), 0) for n in VERIFY_GOOD_O6
        ]
        record = json.loads(read("verify-o6", PERTURBED_O6))
        record, exps = perturb(record, rng)
        SCRATCH.mkdir(parents=True, exist_ok=True)
        path = SCRATCH / f"perturbed-{PERTURBED_O6}-{os.getpid()}.json"
        path.write_bytes(canonical(record))
        cleanup.append(path)
        cases.append(VerifyCase(f"{PERTURBED_O6} o6 perturbed at {exps}", path, 1))
    elif workload == "smoke":
        cases = [ComputeCase(n, 4, read("sweep-o4", n)) for n in SMOKE_O4]
        cases.append(VerifyCase(f"{SMOKE_VERIFY} o4", golden_path("sweep-o4", SMOKE_VERIFY), 0))
    else:
        raise SystemExit(f"error: unknown workload {workload!r}")
    rng.shuffle(cases)
    return Env(primform, cli, cases, cleanup)


# -- one pass -----------------------------------------------------------------


def calibration_chunk() -> float:
    """Seconds one fixed piece of work takes now.

    It multiplies two dense CAL_SIDE x CAL_SIDE arrays of small fractions
    into a dict, with the garbage collector off, so that a large engine
    heap left by earlier cases does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        a = {(i, j): Fraction(i + 1, j + 2) for i in range(CAL_SIDE) for j in range(CAL_SIDE)}
        product = {}
        for (i, j), u in a.items():
            for (k, m), v in a.items():
                key = (i + k, j + m)
                product[key] = product.get(key, 0) + u * v
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(samples: list, seconds: float) -> None:
    """Append calibration chunk times to SAMPLES until they add up to SECONDS."""
    spent = 0.0
    while not samples or spent < seconds:
        samples.append(calibration_chunk())
        spent += samples[-1]


def run_pass(env: Env, tracer) -> dict:
    failures = []
    case_s = {}
    calibration_s = []
    calibrate(calibration_s, 0.0)
    for case in env.cases:
        if tracer is not None:
            tracer.case = case.label
            tracer.last_result = None
        start = time.perf_counter()
        try:
            if tracer is None:
                problem = case.run(env, None)
            else:
                with tracer.span("case"):
                    problem = case.run(env, tracer)
        except Exception as exc:  # a wrong or crashing case is a counted failure
            problem = f"raised {exc!r}"
        case_s[case.label] = time.perf_counter() - start
        if problem is not None:
            failures.append(f"{case.label}: {problem}")
        if tracer is not None and tracer.last_result is not None:
            invert_separately(env.primform, tracer)
        calibrate(calibration_s, CAL_SHARE * case_s[case.label])
    raw_wall_s = sum(case_s.values())
    scale = CAL_REF_S / statistics.mean(calibration_s)
    return {
        "wall_s": raw_wall_s * scale,
        "raw_wall_s": raw_wall_s,
        "scale": scale,
        "case_s": case_s,
        "calibration_s": calibration_s,
        "attempted": len(env.cases),
        "failures": failures,
    }


def invert_separately(primform, tracer) -> None:
    """Time flat_coordinates + invert_coordinates on the case's solved result.

    This runs after the case's timer stopped, so it adds to no pass time, and
    its series products are kept out of the pass's product totals.
    """
    result = tracer.last_result
    flat = getattr(primform, "flat_coordinates", None)
    invert = getattr(primform, "invert_coordinates", None)
    if flat is None or invert is None:
        tracer.missing.add("frobenius.invert")
        return
    order = getattr(result, "order", None)
    if order is None or order < 2:
        return
    calls, mul_s = tracer.mul_calls, tracer.mul_s
    with tracer.span("frobenius.invert"):
        invert(flat(result), order)
    tracer.mul_calls, tracer.mul_s = calls, mul_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    env = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    out = {"raw_setup_s": setup_s}
    try:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        out.update(run_pass(env, tracer))
        out["setup_s"] = setup_s * CAL_REF_S / out["calibration_s"][0]
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = tracing.summarize(
                tracer.spans, tracer.mul_calls, tracer.mul_s, tracer.counters, tracer.missing
            )
            out["spans"] = tracer.spans
    finally:
        for path in env.cleanup:
            path.unlink(missing_ok=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
