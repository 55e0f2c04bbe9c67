"""primform benchmark: closed-loop workloads, a golden-record gate, and a
per-layer trace.

    python3 perfbench/run.py --workload sweep-o4 --seed 1 --seconds 36 --trace 0

Each pass of a workload runs in a fresh single-threaded process
(perfbench/worker.py) with one client: the next case starts only when the
previous one has finished, and nothing is warmed up beyond import, because
every CLI user pays for cold caches.  Passes repeat until --seconds is used
up (at least MIN_PASSES of them), and the run reports medians over passes.

Workloads (inputs are fixed; the seed sets the case order and which
degree-5 coefficient verify-o6 perturbs):

  sweep-o4   `primform compute --order 4` through primform.cli.main for
             A4 D4 P8 Q10 U12 E12 E14 W13; mostly the WDVV check.
  deep-o6    E12 and U12 at order 6 through milnor_basis, build_unfolding,
             solve_star, defect_is_zero, prepotential, prepotential_record;
             solve and prepotential, no WDVV.
  verify-o6  `primform verify` on the E12 and U12 order-6 records (exit 0)
             and on a perturbed Q10 order-6 record (exit 1); WDVV at order 6.
  smoke      A4 D4 P8 at order 4 plus one verify, for a check in seconds.

With --trace 0 the run reports the end-to-end metrics wall_s (one pass),
setup_s (import, load_catalog and inputs, timed in each pass's process)
and peak_rss_mib.  wall_s and setup_s are scaled to a reference host speed
measured by a calibration chunk between cases (see worker.py); the raw
seconds are kept in the full result.  With --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones in raw seconds, so that each layer's share of trace.wall_s (the raw
wall time of a traced pass) reads directly; it adds trace.overhead_s =
traced wall_s - untraced wall_s, both scaled, and host.calibration_s, the
median raw time of one calibration chunk in the traced passes.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The line before it stamps the result with the Python version, nproc,
platform, commit, source digest and seed.  The full result, with every
pass, every failure and (traced) every span, is written to
perfbench/out/<workload>-seed<seed>-trace<t>.json when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("sweep-o4", "deep-o6", "verify-o6", "smoke")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# A run must end within 180 s; no pass starts that could end after this.
RUN_LIMIT_S = 165.0
WORKER_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_command(args, traced: bool) -> list[str]:
    cmd = [
        sys.executable, "-B", str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    if traced:
        cmd.append("--trace")
    return cmd


def run_worker(args, traced: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            worker_command(args, traced),
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run(args) -> dict:
    if not (ROOT / "src" / "primform" / "__init__.py").is_file():
        raise BenchError(f"no primform package under {ROOT / 'src'}")
    start = time.perf_counter()
    deadline = start + args.seconds

    passes = []
    while True:
        now = time.perf_counter()
        traced_next = bool(args.trace) and len(passes) % 2 == 1
        done_traced = sum(p["traced"] for p in passes)
        enough = len(passes) >= MIN_PASSES and (
            not args.trace or done_traced >= MIN_TRACED_PASSES
        )
        last = passes[-1]["elapsed_s"] if passes else 0.0
        if enough and now + last > deadline:
            break
        if now + 1.5 * last - start > RUN_LIMIT_S:
            if not passes or (args.trace and done_traced == 0):
                raise BenchError("passes are too slow to fit in one run")
            break
        timeout = min(WORKER_TIMEOUT_S, RUN_LIMIT_S - (now - start))
        result = run_worker(args, traced_next, timeout)
        result["traced"] = traced_next
        result["elapsed_s"] = time.perf_counter() - now
        passes.append(result)
    return summarize(args, passes)


def median_or_none(values, median=statistics.median):
    return None if any(v is None for v in values) else median(values)


def summarize(args, passes) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = []
    if args.trace:
        names = list(traced[0]["layers"])
        metrics = {}
        for name in names:
            timed = name.endswith("_s")
            # A count is reported as one of the values measured, never an average.
            median = statistics.median if timed else statistics.median_low
            metrics[name] = {
                "value": median_or_none([p["layers"][name] for p in traced], median),
                "unit": "s" if timed else "count",
            }
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        metrics["trace.wall_s"] = {
            "value": statistics.median(p["raw_wall_s"] for p in traced),
            "unit": "s",
        }
        metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        metrics["host.calibration_s"] = {
            "value": statistics.median(c for p in traced for c in p["calibration_s"]),
            "unit": "s",
        }
        counters = {
            name: sorted({json.dumps(p["layers"][name]) for p in traced})
            for name in names if not name.endswith("_s")
        }
        unsteady = {k: v for k, v in counters.items() if len(v) > 1}
        if unsteady:
            problems.append(f"work counters differ between passes: {unsteady}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "setup_s": {
                "value": statistics.median(p["setup_s"] for p in passes),
                "unit": "s",
            },
            "peak_rss_mib": {
                "value": statistics.median(p["peak_rss_mib"] for p in passes),
                "unit": "MiB",
            },
        }
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures + problems,
        "passes": passes,
    }


def source_digest() -> str:
    """SHA-256 over the engine's source files, for checkouts without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info = stamp(args)
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    fields = ("name", "start", "end", "parent", "case", "mul_s")
    spans = [
        dict(zip(fields, span), **{"pass": index})
        for index, p in enumerate(result["passes"])
        for span in p.pop("spans", [])
    ]
    OUT.mkdir(exist_ok=True)
    report = dict(result, stamp=info, spans=spans)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report) + "\n")
    print(json.dumps({"stamp": info}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
