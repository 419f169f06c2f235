"""Benchmark of ``mzdual``: cold-start wall time of three workloads, checked
against recorded reference values, and a traced run for per-layer metrics.

    python3 bench/run.py --workload thm11i-w4 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds ``src/mzdual``.  Every pass of
the workload runs in a fresh process (``child.py``), so the evaluation
cache starts empty as it does for every ``mzdual`` call, with
OpenBLAS/OpenMP/MKL pinned to one thread.  ``--trace 0`` times passes
until ``--seconds`` have gone by (at least one) plus extra set-up-only
processes, and reports medians.  ``--trace 1`` makes one untraced and one
traced pass and reports the per-layer metrics of ``tracing.py``.  The
last line of stdout is one JSON object; the lines before it are for
people.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import layer_metrics, read_spans
from workloads import WORKLOADS, ZETA3_OP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up-only processes per timed run, after one discarded warm-up that
# leaves the byte-code and page caches as an installed package has them
SETUP_SAMPLES = 5
# a run must end within 180 s, whatever the machine's load
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run the workload."""


def spawn(workload: str, seed: int, mode: str, deadline: float, spans: str | None = None) -> dict:
    """One fresh child process; its record plus its set-up time."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    start = time.monotonic()
    timeout = deadline - start
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} pass within {DEADLINE_S:.0f} s")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} did not end within the run's deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - start
    return record


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def judge(op: dict, ref: dict | None, zeta3: float) -> tuple[bool, bool]:
    """(failed, deviates) for one operation against its reference.

    A value deviates when it moved from the reference by more than the
    two runs' own error claims together: err_estimate for ``compute``, and
    the check's tol on the scale the check applies it for identity checks.
    Z(1:1,1:2) at (1, 1) is also held to zeta(3) within its err_estimate.
    """
    if ref is None:
        return True, True
    if "value" in ref:
        if op["value"] is None:
            return True, True
        value = _c(op["value"])
        deviates = abs(value - _c(ref["value"])) > ref["err"] + op["err"]
        if op["name"] == ZETA3_OP:
            # 2 ulp for rounding the 30-digit zeta(3) to a double
            deviates |= abs(value - zeta3) > op["err"] + 4.5e-16 * zeta3
        return deviates or op["rc"] != 0, deviates
    allow = (ref["tol"] + op["tol"]) * max(abs(_c(ref["rhs"])), 1.0)
    deviates = (abs(_c(op["lhs"]) - _c(ref["lhs"])) > allow
                or abs(_c(op["rhs"]) - _c(ref["rhs"])) > allow)
    inconclusive = "tolerance-not-reached" in op["note"]
    return deviates or not op["passed"] or inconclusive, deviates


def gate(record: dict, refs: dict, zeta3: float) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one pass.  An operation the
    program did not produce counts as attempted and failed."""
    failed, problems = 0, []
    names = [op["name"] for op in record["ops"]]
    if len(set(names)) != len(names):
        problems.append("an operation was reported twice")
    for op in record["ops"]:
        op_failed, deviates = judge(op, refs.get(op["name"]), zeta3)
        failed += op_failed
        if deviates:
            problems.append(f"{op['name']} deviates from its reference")
    missing = max(record["n_ops"], len(refs)) - len(names)
    if missing > 0:
        problems.append(f"{missing} operations produced no output")
        failed += missing
    return len(names) + max(missing, 0), failed, problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def environment() -> dict:
    import mpmath
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }


def timed_run(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list[dict]]:
    spawn(workload, seed, "setup", deadline)  # warm-up, discarded
    setups = [spawn(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(spawn(workload, seed, "run", deadline))
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return metrics, passes


def traced_run(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict]]:
    spawn(workload, seed, "setup", deadline)  # warm-up, discarded
    plain = spawn(workload, seed, "run", deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    traced = spawn(workload, seed, "trace", deadline, spans_path)
    for target in traced["missing"]:
        print(f"hook target missing, its layer is not reported: {target}")
    metrics = layer_metrics(read_spans(spans_path), set(traced["missing"].values()),
                            traced["cache_info"])
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return metrics, [plain, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description="mzdual benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "mzdual", "cli.py")):
        print(f"error: no mzdual source under {ROOT}/src", file=sys.stderr)
        return 2
    import mpmath

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    env = environment()
    print("environment:", json.dumps(env, sort_keys=True))
    recorded_eps = reference["environment"]["longdouble_eps"]
    if env["longdouble_eps"] != recorded_eps:
        print(f"warning: long double eps {env['longdouble_eps']:g} differs from the "
              f"reference machine's {recorded_eps:g}; times are not comparable")
    mpmath.mp.dps = 30
    zeta3 = float(mpmath.zeta(3))

    try:
        if args.trace:
            metrics, passes = traced_run(args.workload, args.seed, deadline)
        else:
            metrics, passes = timed_run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = failed = 0
    problems: list[str] = []
    for record in passes:
        a, f, p = gate(record, reference["workloads"][args.workload], zeta3)
        attempted, failed = attempted + a, failed + f
        problems += p
    if not args.trace:
        metrics["pass_ratio"] = (1.0 - failed / attempted, "ratio")
    for problem in sorted(set(problems)):
        print("incorrect:", problem)
    print(f"{args.workload} seed={args.seed}: {len(passes)} pass(es), "
          f"fail_ratio = {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
