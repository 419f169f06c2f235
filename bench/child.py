"""One cold pass of a workload, in the fresh process ``run.py`` starts.

Set-up imports ``mzdual`` (and with it numpy and scipy) from the
checkout's ``src``, builds and parses the workload's command lines and
enumerates the words the suites will check.  Then every command runs
in-process through ``mzdual.cli.main``.  The last line on stdout is a JSON
record: the monotonic clock when set-up ended, the pass's wall time and
peak memory, and every operation's output.

    python3 bench/child.py --workload thm11i-w4 --seed 1 --mode run
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

from workloads import commands, expected_ops, op_name

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ops(argv: list[str], rc: int, out: str) -> list[dict]:
    """Operation records of one command's JSON output."""
    data = json.loads(out) if out.strip() else None
    if argv[0] == "compute":
        op = {"name": op_name(argv), "rc": rc, "value": None, "err": None}
        if data is not None:
            op.update(value=data["value"], err=data["err_estimate"], converged=data["converged"])
        return [op]
    if data is None:
        return []
    return [{"name": c["name"], "rc": rc, "lhs": c["lhs"], "rhs": c["rhs"], "tol": c["tol"],
             "passed": c["passed"], "note": c["note"]} for c in data["checks"]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", help="file the traced pass writes its spans to")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from mzdual import cli, words

    argvs = commands(args.workload, args.seed)
    parser = cli.build_parser()
    n_ops = 0
    for argv in argvs:
        parsed = parser.parse_args(argv)
        n_words = 0
        if parsed.command == "verify":
            n_words = len(words.words_up_to_weight(parsed.weight_max, parsed.depth_max))
        n_ops += expected_ops(argv, n_words)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    run_command = cli.main
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run_command = tracer.wrap(cli.main, "main", "command")
    outputs = []
    start = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = run_command(argv)
        outputs.append((argv, rc, buf.getvalue()))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "ready": ready,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "n_ops": n_ops,
        "ops": [op for argv, rc, out in outputs for op in _ops(argv, rc, out)],
    }
    if tracer is not None:
        tracer.write(args.spans)
        cached = getattr(sys.modules["mzdual.evaluators"], "_evaluate_cached", None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        record["cache_info"] = None if info is None else [info.hits, info.misses]
        record["missing"] = tracer.missing
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
