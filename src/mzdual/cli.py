"""Command-line interface: compute series values, apply word operators,
and run verification suites.

Exit codes: 0 success (verify: all checks passed), 1 verify found a
failing identity or a check whose evaluation overflowed (its tol is not
finite), 2 any invalid input to any subcommand (bad arguments,
words, parameters or r-vectors, and a series the kernel rejects), 3 the
evaluator stopped before reaching the requested tolerance: it hit max_n,
or a block of terms overflowed float64 first.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .evaluators import FAMILIES, Params, eval_family
from .nested_sum import _MAX_N, _N_START, EvalConfig, KernelError
from .verifier import DEFAULT_GRID, SUITE_NAMES, SuiteConfig, run_suite
from .words import dual, parse_word, sigma_b1, sigma_b2, sigma_eps

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_NO_TOLERANCE = 3


def parse_complex(text: str) -> complex:
    """Accept '1.5' or '1.5+0.3i' (also 'i' spelled 'j')."""
    cleaned = text.strip().replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


def parse_rvector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad r-vector: {text!r}")


def parse_grid(text: str) -> tuple[tuple[complex, complex], ...]:
    """'default', a value list forming a square grid, or ';'-separated
    'a:b' pairs."""
    if text == "default":
        return DEFAULT_GRID
    if ":" in text:
        pairs = []
        for chunk in text.split(";"):
            a, _, b = chunk.partition(":")
            pairs.append((parse_complex(a), parse_complex(b)))
        return tuple(pairs)
    values = [parse_complex(v) for v in text.split(",")]
    return tuple((a, b) for a in values for b in values)


def _print_json(obj) -> None:
    """Print obj as strict JSON with sorted keys: null for each float that is not finite."""
    strict = json.loads(json.dumps(obj), parse_constant=lambda token: None)
    print(json.dumps(strict, sort_keys=True, allow_nan=False))


_SIGMA_OPS = {"b1": sigma_b1, "eps": sigma_eps, "b2": sigma_b2}
_WORD_HELP = "cut:exponent blocks such as 1:1,1/2:2, or letters over 1, h, 0 such as 1h0"


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mzdual",
        description="parametrized multiple series: evaluation, word duality, identity verification",
    )
    sub = top.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate one series value")
    comp.add_argument("--family", choices=list(FAMILIES), required=True,
                      help="series family; zeta is the multiple Hurwitz value")
    comp.add_argument("--word", required=True, help=_WORD_HELP)
    comp.add_argument("--alpha", type=parse_complex, required=True,
                      help="first slot: the Pochhammer base of Z, Zstar and Hstar, "
                           "the shift of zeta")
    comp.add_argument("--beta", type=parse_complex, default=None,
                      help="second slot of Z and Zstar; defaults to --alpha")
    comp.add_argument("--r-vector", type=parse_rvector, default=None,
                      help="comma-separated non-negative integers (starred families)")
    comp.add_argument("--rel-tol", type=float, default=EvalConfig.rel_tol,
                      help="the kernel's relative tolerance, in (0, 1), used as given "
                           "(verify --tol is divided by 30 and clamped to [1e-12, 1e-9])")
    comp.add_argument("--max-n", type=int, default=EvalConfig.max_n,
                      help=f"most terms streamed, {_N_START} to {_MAX_N}: N starts at "
                      f"{_N_START} (more for large parameters) and doubles, to at most "
                      f"max_n, while the error exceeds the tolerance")
    comp.add_argument("--output", choices=["table", "json"], default="table",
                      help="json: value as [re, im], err_estimate, n_used and converged, "
                           "null for a float that is not finite")

    du = sub.add_parser("dual", help="print the dual of a word")
    du.add_argument("--word", required=True, help=_WORD_HELP)
    du.add_argument("--output", choices=["table", "json"], default="table",
                    help="json: word, dual and dual_letters")

    sg = sub.add_parser("sigma", help="apply a weight-raising operator")
    sg.add_argument("--op", choices=list(_SIGMA_OPS), required=True,
                    help="b1: binomial, as Z's derivative in beta; eps: unit coefficients on "
                         "the blocks before a cut 1 and the last; b2: binomial on every block")
    sg.add_argument("--word", required=True, help=_WORD_HELP)
    sg.add_argument("--r", type=int, required=True, help="weight added, >= 0")
    sg.add_argument("--output", choices=["table", "json"], default="json",
                    help="json: one {coeff_num, coeff_den, word} record per term")

    ver = sub.add_parser("verify", help="run an identity verification suite")
    ver.add_argument("--suite", choices=list(SUITE_NAMES), required=True,
                     help="duality is thm11i at r = 0, sum_formula is thm11i on dual(1:k1); "
                          "all runs each identity once")
    ver.add_argument("--weight-max", type=int, default=SuiteConfig.weight_max,
                     help="largest word weight checked, >= 2")
    ver.add_argument("--depth-max", type=int, default=SuiteConfig.depth_max,
                     help="largest word depth checked, >= 1; every depth if not given")
    ver.add_argument("--r-max", type=int, default=SuiteConfig.r_max,
                     help="largest r; the derivative suite checks r = 1..r_max")
    ver.add_argument("--grid", type=parse_grid, default=SuiteConfig.params_grid,
                     help="'default', value list (square grid), or 'a:b;a:b' pairs")
    ver.add_argument("--tol", type=float, default=SuiteConfig.tol,
                     help="sets the kernel's rel_tol to tol/30, clamped to [1e-12, 1e-9]; "
                          "each check passes only within its own tol, derived from its error "
                          "estimates, and fails when that tol is not finite")
    ver.add_argument("--even-only", action="store_true",
                     help="restrict to even r (the even-r equivalence mode)")
    ver.add_argument("--workers", type=int, default=1,
                     help="worker processes, each evaluating a contiguous slice of the suite's "
                          "distinct values; capped at the values and the CPUs this process may use")
    ver.add_argument("--output", choices=["table", "json", "csv"], default="table",
                     help="json: the config and every check; csv: one row per check")
    ver.add_argument("--no-timestamp", action="store_true",
                     help="leave the timestamp out of the json report, "
                          "so that reruns are byte-identical")
    return top


def _cmd_compute(args) -> int:
    family = FAMILIES[args.family]
    if args.r_vector is not None and not family.reads_r:
        raise ValueError(f"--r-vector does not apply to family {args.family}")
    if args.beta is not None and not family.reads_beta:
        raise ValueError(f"--beta does not apply to family {args.family}")
    word = parse_word(args.word)
    p = Params(args.alpha, args.beta)
    cfg = EvalConfig(rel_tol=args.rel_tol, max_n=args.max_n)
    rv = args.r_vector if args.r_vector is not None else (0,) * word.depth
    res = eval_family(args.family, word, rv, p, cfg)
    value = complex(res.value)
    if args.output == "json":
        _print_json({**res._asdict(), "value": [value.real, value.imag]})
    else:
        shown = f"{value.real:.12g}" if value.imag == 0 else f"{value.real:.12g}{value.imag:+.12g}i"
        print(f"value        = {shown}")
        print(f"err_estimate = {res.err_estimate:.3e}")
        print(f"n_used       = {res.n_used}")
    if not res.converged:
        print(f"warning: tolerance not reached in {res.n_used} terms", file=sys.stderr)
        return EXIT_NO_TOLERANCE
    return EXIT_OK


def _cmd_dual(args) -> int:
    word = parse_word(args.word)
    image = dual(word)
    if args.output == "json":
        _print_json({"word": str(word), "dual": str(image), "dual_letters": image.letters()})
    else:
        print(f"{image}  (letters: {image.letters()})")
    return EXIT_OK


def _cmd_sigma(args) -> int:
    image = _SIGMA_OPS[args.op](parse_word(args.word), args.r)
    if args.output == "json":
        _print_json(image.to_json())
    else:
        print(repr(image) if len(image) else "0")
    return EXIT_OK


def _cmd_verify(args) -> int:
    sc = SuiteConfig(
        weight_max=args.weight_max,
        depth_max=args.depth_max,
        r_max=args.r_max,
        params_grid=args.grid,
        tol=args.tol,
        even_r_only=args.even_only,
    )
    report = run_suite(args.suite, sc, workers=args.workers)
    if args.output == "json":
        _print_json(report.to_json(include_timestamp=not args.no_timestamp))
    elif args.output == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_table())
    return EXIT_OK if report.passed else EXIT_FAILED_CHECK


_COMMANDS = {"compute": _cmd_compute, "dual": _cmd_dual, "sigma": _cmd_sigma, "verify": _cmd_verify}


# one parser per process: building it costs about as much as a small compute
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KernelError) as exc:  # WordError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
