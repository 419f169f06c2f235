"""Record the reference values the benchmark checks every pass against.

    python3 bench/record.py

Runs one cold pass of every workload (seed 0; the seed changes only the
order of the work) and writes ``reference.json``: each operation's values
with the error claim it came with, and a stamp of the machine and commit
they were recorded on.  Re-record only when a change is meant to move
values, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import time

from run import DEADLINE_S, HERE, ROOT, environment, spawn
from workloads import WORKLOADS

KEEP = {"value", "err", "converged", "rc", "lhs", "rhs", "tol", "passed", "note"}


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def main():
    stamp = environment()
    stamp["cpu_model"] = cpu_model()
    stamp["git_sha"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                      capture_output=True, check=True).stdout.strip()
    out = {"environment": stamp, "workloads": {}}
    for workload in WORKLOADS:
        record = spawn(workload, 0, "run", time.monotonic() + DEADLINE_S)
        ops = {op["name"]: {k: v for k, v in op.items() if k in KEEP} for op in record["ops"]}
        if len(ops) != record["n_ops"]:
            raise SystemExit(f"{workload}: {len(ops)} operations, expected {record['n_ops']}")
        out["workloads"][workload] = dict(sorted(ops.items()))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
