"""The benchmark's workloads: each is a list of ``mzdual`` command lines.

The seed permutes the order of the work (the pairs of the parameter grid,
the order of the sweep points) and never what is computed, so the counts
of work done are the same for every seed.  Every command asks for
``--output json`` and runs single-threaded (``--workers 1`` is the CLI's
default).
"""

from __future__ import annotations

import random

WORD = "1:1,1:2"
# the CLI's default 3x3 grid, spelled out so the seed can permute it
DEFAULT_GRID = [(a, b) for a in ("0.6", "1", "1.5") for b in ("0.6", "1", "1.5")]
# the reference for Z(1:1,1:2) at (1, 1), which is zeta(2,1) = zeta(3)
ZETA3_OP = "compute/Z/w=1:1,1:2/a=1.0/b=1"


def _verify(suite: str, grid: list[tuple[str, str]], *extra: str) -> list[str]:
    pairs = ";".join(f"{a}:{b}" for a, b in grid)
    return ["verify", "--suite", suite, "--weight-max", "4", *extra,
            "--grid", pairs, "--output", "json", "--no-timestamp"]


def _sweep_points() -> list[list[str]]:
    points = []
    for a in ("0.99", "0.999", "1.0", "1.001"):
        points.append(["--family", "Z", "--alpha", a, "--beta", "1", "--rel-tol", "1e-12"])
    points.append(["--family", "Z", "--alpha", "1+2i", "--beta", "0.7", "--max-n", "10000000"])
    for a in ("1+2i", "0.5+0.5i"):
        points.append(["--family", "zeta", "--alpha", a, "--rel-tol", "1e-12"])
    return [["compute", "--word", WORD, *p, "--output", "json"] for p in points]


def commands(workload: str, seed: int) -> list[list[str]]:
    """The command lines of one workload, in the order the seed gives."""
    rng = random.Random(seed)
    if workload == "thm11i-w4":
        grid = list(DEFAULT_GRID)
        rng.shuffle(grid)
        return [_verify("thm11i", grid)]
    if workload == "integral-d2":
        return [_verify("integral", [("1.5", "1")], "--depth-max", "2")]
    if workload == "param-sweep":
        points = _sweep_points()
        rng.shuffle(points)
        return points
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("thm11i-w4", "integral-d2", "param-sweep")


def op_name(argv: list[str]) -> str:
    """Name of the one operation a ``compute`` command performs."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    beta = opts.get("--beta")
    name = f"compute/{opts['--family']}/w={opts['--word']}/a={opts['--alpha']}"
    return name if beta is None else f"{name}/b={beta}"


def expected_ops(argv: list[str], n_words: int) -> int:
    """Operations one command performs, from the benchmark's own count of
    the words the suite enumerates."""
    if argv[0] == "compute":
        return 1
    opts = dict(zip(argv[1::2], argv[2::2]))
    pairs = len(opts["--grid"].split(";"))
    if opts["--suite"] == "thm11i":
        return n_words * 3 * pairs  # r = 0, 1, 2 (the CLI's default --r-max 2)
    if opts["--suite"] == "integral":
        return n_words * 2 * pairs  # families Z and zeta, all pairs real in [1, 2]
    raise ValueError(f"no operation count for suite {opts['--suite']!r}")
