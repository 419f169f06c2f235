"""Numerical certification of the duality and derivative identities.

Every check compares two independently computed sides of one identity
and records the deviation together with a tolerance tied to the actual
truncation quality (10x the summed error estimates, floored at 1e-9),
so a pass means the deviation is explained by truncation alone.  A check
whose tol is not finite (an evaluation overflowed) fails.

The quadrature and derivative checks cross-validate the integral
representation and the derivative calculus behind the starred expansion.
Each series identity is stated once, as an exact relation in `RELATIONS`.
The `duality` suite is the thm11i suite at r = 0, `sum_formula` is it on
the words dual to 1:k1, and `all` runs each identity once.

A suite plans every check before anything is evaluated: its name and two
sides, each a (keys, assemble) pair, the side assemble([value of each key]).
A key is a NestedSumSpec or the arguments of one tanh-sinh rule's
`_simplex_integral`.  Each distinct key is evaluated once, in first-read
order, in-process or in contiguous slices across the workers; the calling
process assembles every check from one dict.  A `check_*` is the one-check case.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Literal, Sequence

import numpy as np

from . import evaluators
from .evaluators import Params, compile_terms, family_spec, sum_results
from .nested_sum import EvalConfig, EvalResult, NestedSumSpec, _validate_params, first_states
from .words import (
    Cut,
    LinComb,
    Word,
    compositions,
    dual,
    sigma_b1,
    sigma_b2,
    sigma_eps,
    v_prime_monomials,
    v_y_monomials,
    words_up_to_weight,
)

TOL_FLOOR = 1e-9


@dataclass(frozen=True)
class IdentityCheck:
    """Record of one verified identity instance."""

    name: str
    lhs: complex
    rhs: complex
    abs_dev: float
    rel_dev: float
    tol: float
    n_used: int
    passed: bool
    note: str = ""

    def to_json(self) -> dict:
        lhs, rhs = complex(self.lhs), complex(self.rhs)
        return {**asdict(self), "lhs": [lhs.real, lhs.imag], "rhs": [rhs.real, rhs.imag]}


def _make_check(name: str, lhs: EvalResult, rhs: EvalResult) -> IdentityCheck:
    diff = sum_results(((1, lhs), (-1, rhs)))
    rv = complex(rhs.value)
    abs_dev = abs(diff.value)
    scale = abs(rv)
    rel_dev = abs_dev / scale if scale > 0 else abs_dev
    tol = max(TOL_FLOOR, 10.0 * diff.err_estimate / max(scale, 1.0))
    dev = rel_dev if scale >= 1.0 else abs_dev
    return IdentityCheck(
        name=name,
        lhs=complex(lhs.value),
        rhs=rv,
        abs_dev=abs_dev,
        rel_dev=rel_dev,
        tol=tol,
        n_used=diff.n_used,
        passed=bool(dev <= tol < math.inf),
        note="" if diff.converged else "tolerance-not-reached",
    )


def _values(keys: list, cfg: EvalConfig) -> list:
    # each spec's value from its first states, streamed with the others of its stack, then
    # each quadrature's, (letters, alpha, beta, family, h, kmax); evaluate and
    # _simplex_integral are looked up when a value is made
    specs = [k for k in keys if isinstance(k, NestedSumSpec)]
    series = [None] * len(specs)
    for j, states in first_states(specs, cfg):
        series[j] = evaluators.evaluate(specs[j], cfg, states)
    series = iter(series)
    return [next(series) if isinstance(k, NestedSumSpec) else _simplex_integral(*k[:4], h=k[4], kmax=k[5])
            for k in keys]


def _run(plans: list[tuple], cfg: EvalConfig, workers: int = 1) -> list[IdentityCheck]:
    """Evaluate each distinct key once, in first-read order, in-process or in contiguous
    slices across at most one worker per CPU and per key; then assemble every check."""
    keys = list(dict.fromkeys(k for _, *sides in plans for ks, _ in sides for k in ks))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1, len(keys))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        cuts = [len(keys) * i // workers for i in range(workers + 1)]
        # a fork-started pool starts all max_workers processes at once
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_values, [keys[i:j] for i, j in zip(cuts, cuts[1:])], [cfg] * workers)
            values = [v for part in parts for v in part]
    else:
        values = _values(keys, cfg)
    got = dict(zip(keys, values))
    return [_make_check(name, *(assemble([got[k] for k in ks]) for ks, assemble in sides))
            for name, *sides in plans]


def _series(terms: list[tuple[float, NestedSumSpec]]) -> tuple:
    # the side sum coeff * value over compile_terms' (coeff, spec) pairs, in order
    coeffs = [c for c, _ in terms]
    return tuple(spec for _, spec in terms), lambda vals: sum_results(zip(coeffs, vals))


def _fmt_param(x: complex, sign: str = "") -> str:
    # each part in its short :g form where that reads back as the same
    # float, else in its repr, so distinct values get distinct names
    x = complex(x)
    if x.imag:
        return f"{_fmt_param(x.real)}{_fmt_param(x.imag, '+')}i"
    short = f"{x.real:{sign}g}"
    return short if float(short) == x.real else f"{x.real:{sign}}"


# ---------------------------------------------------------------------------
# Series-series identity checks
# ---------------------------------------------------------------------------


def starred_rvectors(dual_word: Word, r: int) -> list[tuple[int, ...]]:
    """Admissible r-vectors for the starred expansion of a dual word.

    All compositions of r over the q slots, except that the first slot is
    pinned to 0 when the dual's first inner cut is 1/2 (its unit-or-zero
    binomial kills every other term); for q = 1 the closing cut is 1, so
    the single slot is always live, and for q = 0 there is no slot.
    """
    q = dual_word.depth
    first_live = q <= 1 or dual_word.inner_cut(1) is Cut.ONE
    if first_live:
        return [tuple(c) for c in compositions(r, q)]
    return [(0,) + tuple(c) for c in compositions(r, q - 1)]


def _lincomb_terms(lc: LinComb, family: str) -> tuple:
    return tuple((c, family, v, (), False) for v, c in lc)


def _starred_terms(dw: Word, r: int) -> tuple:
    # Z*(dw; rv) at (b, a) over the admissible r-vectors
    return tuple((1, "Zstar", dw, rv, True) for rv in starred_rvectors(dw, r))


def _apply_linear(op: Callable[[Word, int], LinComb], lc: LinComb, r: int) -> LinComb:
    return LinComb((v, c * cv) for w, c in lc for v, cv in op(w, r))


def _prop24(w: Word, r: int) -> tuple[tuple, tuple]:
    dw = dual(w)
    lhs, rhs = LinComb(), LinComb()
    for l in range(r + 1):
        lhs = lhs + _apply_linear(sigma_eps, v_y_monomials(w, l), r - l)
        rhs = rhs + _apply_linear(sigma_eps, v_prime_monomials(dw, l), r - l)
    return _lincomb_terms(lhs, "Z"), _lincomb_terms(rhs, "Z")


def _thm31(w: Word, r: int) -> tuple[tuple, tuple]:
    dw = dual(w)
    rhs = tuple((1, "Hstar", dw, rv, False) for rv in compositions(r, dw.depth))
    return _lincomb_terms(sigma_b2(w, r), "zeta"), rhs


# Each identity as one exact relation (w, r) -> (lhs, rhs): each side a tuple of
# (coeff, family, word, r-vector, swapped) terms, coeff an int or a Fraction,
# the r-vector () for Z and zeta, a swapped term read at (b, a).  The word
# operators are looked up in this module when a relation runs.
RELATIONS: dict[str, Callable[[Word, int], tuple[tuple, tuple]]] = {
    # Theorem 1.1(i): the binomial image at (a, b), the starred dual at (b, a)
    "thm11i": lambda w, r: (_lincomb_terms(sigma_b1(w, r), "Z"), _starred_terms(dual(w), r)),
    # Theorem 1.1(ii), Ohno's relation: sigma_eps commutes with dualization
    "thm11ii": lambda w, r: (_lincomb_terms(sigma_eps(w, r), "Z"),
                             _lincomb_terms(sigma_eps(dual(w), r), "Z")),
    # Proposition 2.4: the slot expansion against the letter insertion
    "prop24": _prop24,
    # Theorem 3.1: the all-blocks binomial image against the starred Hurwitz dual
    "thm31": _thm31,
}
# whether an identity has two parameters: it runs on the grid's pairs and its
# check names b; the others run on the distinct first slots
_TWO_PARAMETERS = {"thm11i": True, "thm11ii": False, "prop24": False, "thm31": False}


def check_identity(
    identity: str, w: Word, r: int, p: Params, cfg: EvalConfig = EvalConfig()
) -> IdentityCheck:
    """The two sides of ``RELATIONS[identity](w, r)`` at p.  A one-parameter
    identity takes p = Params(a) alone: its check's name does not say b."""
    if identity not in RELATIONS:
        raise ValueError(f"unknown identity {identity!r}; choose from {tuple(RELATIONS)}")
    return _run([_identity_plan(identity, w, r, p, RELATIONS[identity](w, r))], cfg)[0]


def _identity_plan(identity: str, w: Word, r: int, p: Params, sides: tuple) -> tuple:
    # the check of the relation's sides, derived once for (w, r), at p
    two = _TWO_PARAMETERS[identity]
    if not two and p.beta != p.alpha:
        raise ValueError(f"{identity} has one parameter, got a={p.alpha} and b={p.beta}")
    b = f"/b={_fmt_param(p.beta)}" if two else ""
    name = f"{identity}/w={w}/r={r}/a={_fmt_param(p.alpha)}{b}"
    return name, *(_series(compile_terms(side, p)) for side in sides)


# ---------------------------------------------------------------------------
# Iterated-integral cross-check (tanh-sinh tensor quadrature)
# ---------------------------------------------------------------------------

_ROWS = 1024  # multisets per chunk of the inner sums
INTEGRAL_WEIGHT_MAX = 4  # the quadrature's dimension, and so the words' weight, at most


def _in_integral_box(*params: complex) -> bool:
    # real and in [1, 2], where the integrand's endpoint singularities stay integrable
    return all(not complex(x).imag and 1 <= complex(x).real <= 2 for x in params)


def _tanh_sinh_nodes(h: float, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(-kmax, kmax + 1, dtype=np.float64)
    u = 0.5 * math.pi * np.sinh(k * h)
    x = 0.5 * (1.0 + np.tanh(u))
    w = 0.25 * math.pi * h * np.cosh(k * h) / np.cosh(u) ** 2
    keep = (w > 1e-18) & (x > 1e-15) & (x < 1.0 - 1e-15)
    return x[keep], w[keep]


def _multisets(x: np.ndarray, k: int) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """For each size j = 0..k, the sorted multisets c of j node indices, row r
    the one of colex rank sum_j C(c_j + j, j + 1), and the products of their
    nodes in index order; size k, whose rows nothing reads, has None."""
    rows, t, tables = np.zeros((1, 0), np.int32), np.ones(1), []
    for j in range(k):
        tables.append((rows, t))
        # the rows of size j whose largest index is at most m are the first C(m + j, j)
        head = np.concatenate([np.arange(math.comb(m + j, j)) for m in range(len(x))])
        last = np.cumsum(head == 0, dtype=np.int32) - 1  # the new largest index m
        rows = np.column_stack((rows.take(head, 0), last)) if j < k - 1 else None
        t = t[head] * x[last]
    tables.append((None, t))
    return tables


def _insert_ranks(rows: np.ndarray, n_nodes: int) -> np.ndarray:
    """ranks[r, i], the colex rank of rows[r] with node i inserted: the
    entries up to i keep their places, the others move one up."""
    k = rows.shape[1]
    binom = np.array([[math.comb(a, b) for b in range(k + 2)] for a in range(n_nodes + k)], np.int32)
    i, j = np.arange(n_nodes, dtype=np.int32), np.arange(k, dtype=np.int32)
    below = rows[:, :, None] <= i
    at = below.sum(1, dtype=np.int32)  # the place of i: how many entries are <= i
    stay, move = binom[rows + j, j + 1][:, :, None], binom[rows + j + 1, j + 2][:, :, None]
    return np.where(below, stay, move).sum(1, dtype=np.int32) + binom[i + at, at + 1]


def _simplex_integral(
    letters: str, alpha: float, beta: float, family: str, h: float, kmax: int
) -> float:
    """Iterated integral over the ordered simplex, mapped to the cube by
    nested products t_j = u_j * t_{j+1}, t_{n-1} = u_{n-1}.

    A power of t_j is a product of node powers, so the 1/t of letters 0
    and h, the Jacobian t_1...t_{n-1} and the endpoint powers are folded
    into the weights: node u_i carries the exponent summed over t_0...t_i.
    Left at the points, (1 - t_0)^p0 and 1/(1 - t_j) of inner 1 and h
    see the outer nodes only through their multiset M, so each inner sum is
    a table over multisets: F_0(M) = sum_i w_0[i] (1 - x_i t(M))^p0 on
    |M| = n - 1, F_j(M) = sum_i w_j[i] F_{j-1}(M + i) / (1 - t(M + i))^pole_j,
    and the integral is sum_i w_{n-1}[i] F_{n-2}({i}): N C(N + n - 2, n - 1)
    powers for N nodes, not N^n, in chunks of _ROWS multisets, read at the
    ranks of M + i that :func:`_rule_tables` builds once per rule.  All words
    of one weight share F_0 (they begin with the letter 1), so it is memoized.
    """
    x, wts, ts, ranks = _rule_tables(h, kmax)
    n = len(letters)
    expo = [(j > 0) - (l != "1") for j, l in enumerate(letters)]
    pole = [l != "0" for l in letters]  # the 1/(1 - t) of letters 1 and h
    if family == "Z":
        expo[0] += beta - 1.0
        expo[-1] += 1.0 - beta
        p0, p_out = 1.0 - alpha - pole[0], alpha - 1.0
    else:
        expo[0] += alpha - 1.0
        p0, p_out = -float(pole[0]), 0.0
    w = [wts * x**c for c in np.cumsum(expo)]
    # the powers of 1 - t_{n-1} go with the outer nodes' weights
    w[-1] = w[-1] * (1.0 - x) ** (p_out - pole[-1])
    f_prev = _first_sums(h, kmax, n, expo[0], p0)
    for j in range(1, n - 1):
        if pole[j]:  # out of place: f_prev may be the memo's array
            f_prev = f_prev / (1.0 - ts[n - j])
        rank = ranks[n - 1 - j]  # the multisets of size n - 1 - j, node i inserted
        f = np.empty(len(rank))
        for s in range(0, len(rank), _ROWS):
            f[s : s + _ROWS] = f_prev[rank[s : s + _ROWS]] @ w[j]
        f_prev = f
    return float(f_prev @ w[-1])


@functools.lru_cache(maxsize=2)
def _rule_tables(h: float, kmax: int) -> tuple[np.ndarray, np.ndarray, list, list]:
    """The rule's nodes and weights, the node products t of the multisets of
    each size < INTEGRAL_WEIGHT_MAX and the :func:`_insert_ranks` of each size
    < INTEGRAL_WEIGHT_MAX - 1; read-only.  They are pure functions of (h, kmax),
    so one build serves every word, family and pair; 2 entries hold both rules."""
    x, wts = _tanh_sinh_nodes(h, kmax)
    tables = _multisets(x, INTEGRAL_WEIGHT_MAX - 1)
    ranks = [np.empty((len(rows), len(x)), np.int32) for rows, _ in tables[:-1]]
    for (rows, _), r in zip(tables, ranks):  # chunk by chunk, to keep the peak down
        for s in range(0, len(rows), _ROWS):
            r[s : s + _ROWS] = _insert_ranks(rows[s : s + _ROWS], len(x))
    ts = [t for _, t in tables]
    for a in (x, wts, *ts, *ranks):
        a.flags.writeable = False
    return x, wts, ts, ranks


@functools.lru_cache(maxsize=2)
def _first_sums(h: float, kmax: int, n: int, e0: float, p0: float) -> np.ndarray:
    """F_0(M) = sum_i w_0[i] (1 - x_i t(M))^p0 over the multisets M of size
    n - 1, with w_0 = wts * x^e0 and t(M) from the rule's tables, which are
    built once per process; read-only.  The integral suite asks for it by
    weight, rules alternating, so 2 entries hold its working set."""
    x, wts, ts, _ = _rule_tables(h, kmax)
    w0, t = wts * x**e0, ts[n - 1]
    f = np.empty(len(t))
    for s in range(0, len(t), _ROWS):  # t_0 = x_i t(M), then in place (1 - t_0)^p0
        g = np.multiply.outer(t[s : s + _ROWS], x)
        np.subtract(1.0, g, out=g)
        g **= p0
        f[s : s + _ROWS] = g @ w0
    f.flags.writeable = False
    return f


def check_integral_repr(w: Word, p: Params, family: Literal["Z", "zeta"] = "Z",
                        cfg: EvalConfig = EvalConfig()) -> IdentityCheck:
    """Quadrature of the iterated-integral representation against the series.

    Limited to the quadrature's domain: the families Z and zeta, weight <=
    INTEGRAL_WEIGHT_MAX and the parameters in :func:`_in_integral_box`.  The
    fine rule of :func:`_simplex_integral` is within 4.4e-11 of the closed forms
    zeta(2..4), pi^4/360 and Hurwitz zeta(s, a); its error estimate is the gap
    to the coarse rule, so the tol is derived from that gap and the series'
    estimate, as in every other check.
    """
    return _run([_integral_plan(w, p, family)], cfg)[0]


def _integral_plan(w: Word, p: Params, family: str) -> tuple:
    if family not in ("Z", "zeta"):
        raise ValueError(f"integral check has no family {family!r}; choose from ('Z', 'zeta')")
    if w.is_empty:  # no integral: the quadrature's dimension is the weight
        raise ValueError("integral check needs a nonempty word")
    if w.weight > INTEGRAL_WEIGHT_MAX:
        raise ValueError(f"integral check limited to weight <= {INTEGRAL_WEIGHT_MAX}")
    if not _in_integral_box(p.alpha, p.beta):
        raise ValueError("integral check requires real parameters in [1, 2]")
    a, b = complex(p.alpha).real, complex(p.beta).real
    rules = ((w.letters(), a, b, family, 0.16, 24), (w.letters(), a, b, family, 0.08, 48))
    name = f"integral/{family}/w={w}/a={_fmt_param(a)}/b={_fmt_param(b)}"
    quadrature = (rules, lambda v: EvalResult(v[1], abs(v[1] - v[0]), 0, True))  # the fine rule
    return name, quadrature, ((family_spec(family, w, (), p),), lambda v: v[0])


# ---------------------------------------------------------------------------
# Derivative cross-link: Taylor coefficients from a Cauchy circle
# ---------------------------------------------------------------------------

CIRCLE_POINTS = 48


def _taylor_coefficients(dw: Word, rs: Sequence[int], p: Params) -> list[tuple]:
    """For each r of rs, the side (-1)^r times the r-th Taylor coefficient of
    x -> Z(dw; x, beta) at x = alpha, by the trapezoid rule on the circle
    |x - alpha| = Re(alpha)/3: its keys are the specs at the points the rule
    reads, compiled once for every r.

    The map is analytic on Re x > 0, so the rule's error falls like
    3^-CIRCLE_POINTS.  The rule adds the points z up through
    :func:`sum_results` with the weights z^-r / (N rho^r) (rho the radius),
    and the rule on every second point with twice those.  The estimate is
    the gap between the two plus the full rule's own, the mean evaluation
    error over rho^r.  For real parameters f(conj x) = conj f(x), so half
    the circle is evaluated.
    """
    n, x0 = CIRCLE_POINTS, complex(p.alpha)
    rho, roots = x0.real / 3, np.exp(2j * np.pi * np.arange(n) / n)
    real = not (x0.imag or complex(p.beta).imag)
    keys = tuple(family_spec("Z", dw, (), Params(complex(x0 + rho * z), p.beta))
                 for z in roots[: n // 2 + 1 if real else n])

    def coefficient(r: int, vals: list[EvalResult]) -> EvalResult:
        if real:  # the points n/2 + 1 ... n - 1 mirror n/2 - 1 ... 1
            vals = vals + [v._replace(value=complex(v.value).conjugate()) for v in vals[n // 2 - 1 : 0 : -1]]
        weights = roots**-r / (n * rho**r)
        full = sum_results(zip(weights.tolist(), vals))
        half = sum_results(zip((2 * weights[::2]).tolist(), vals[::2]))
        coeff = complex(full.value)
        err = abs(coeff - complex(half.value)) + full.err_estimate
        return full._replace(value=(-1) ** r * (coeff.real if real else coeff), err_estimate=err)

    return [(keys, functools.partial(coefficient, r)) for r in rs]


def check_derivative_crosslink(
    w: Word, r: int, p: Params, cfg: EvalConfig = EvalConfig()
) -> IdentityCheck:
    """(-1)^r times the r-th Taylor coefficient in x of Z(dual w; x, a) at
    x = b against the starred sum of dual w at (b, a)."""
    if r < 1:
        raise ValueError("derivative cross-link needs r >= 1")
    dw = dual(w)
    return _run(_derivative_plans_at(w, dw, {r: _starred_terms(dw, r)}, p), cfg)[0]


def _derivative_plans_at(w: Word, dw: Word, starred: dict, p: Params) -> list[tuple]:
    # the check of each r of starred at p, from dw = dual(w) and the starred terms
    # of dw at r, each derived once for every pair; their left sides read one circle
    names = [f"derivative/w={w}/r={r}/a={_fmt_param(p.alpha)}/b={_fmt_param(p.beta)}" for r in starred]
    rhs = [_series(compile_terms(terms, p)) for terms in starred.values()]  # thm11i's right sides
    return list(zip(names, _taylor_coefficients(dw, list(starred), p.swapped()), rhs))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

DEFAULT_GRID = tuple(
    (a, b) for a in (0.6, 1.0, 1.5) for b in (0.6, 1.0, 1.5)
)


@dataclass(frozen=True)
class SuiteConfig:
    """Enumeration bounds and tolerance for a verification suite."""

    weight_max: int = 4
    depth_max: int | None = None
    r_max: int = 2
    params_grid: tuple[tuple[complex, complex], ...] = DEFAULT_GRID
    tol: float = 1e-6
    even_r_only: bool = False

    def __post_init__(self):
        if self.weight_max < 2:
            raise ValueError("weight_max must be >= 2")
        if not self.tol > 0:  # NaN fails too
            raise ValueError("tol must be > 0")
        for alpha, beta in self.params_grid:
            _validate_params(alpha, beta)
        # a repeated pair would run every check of the grid again
        object.__setattr__(self, "params_grid", tuple(dict.fromkeys(self.params_grid)))
        if self.r_max < 0:
            raise ValueError("r_max must be >= 0")
        if self.depth_max is not None and self.depth_max < 1:
            raise ValueError("depth_max must be >= 1")

    def r_values(self) -> list[int]:
        step = 2 if self.even_r_only else 1
        return list(range(0, self.r_max + 1, step))

    def alphas(self) -> list[complex]:
        return list(dict.fromkeys(a for a, _ in self.params_grid))

    def eval_config(self) -> EvalConfig:
        rel = min(max(self.tol / 30.0, 1e-12), 1e-9)
        return EvalConfig(rel_tol=rel)


@dataclass
class VerificationReport:
    """Aggregated suite outcome; serializes to JSON, CSV and a text table."""

    suite: str
    config: SuiteConfig
    checks: list[IdentityCheck] = field(default_factory=list)
    """In name order: `run_suite` sorts them, and every writer keeps that order."""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def to_json(self, include_timestamp: bool = True) -> dict:
        out = {
            "schema": 1,
            "suite": self.suite,
            "passed": self.passed,
            "n_checks": len(self.checks),
            "n_failed": self.n_failed,
            "config": {
                **asdict(self.config),
                "params_grid": [[_fmt_param(a), _fmt_param(b)] for a, b in self.config.params_grid],
            },
            "checks": [c.to_json() for c in self.checks],
        }
        if include_timestamp:
            out["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return out

    def to_csv(self) -> str:
        out = io.StringIO()
        rows = csv.writer(out, lineterminator="\n")  # quotes the names with commas
        rows.writerow("name lhs_re lhs_im rhs_re rhs_im rel_dev tol passed".split())
        for c in self.checks:
            lv, rv = complex(c.lhs), complex(c.rhs)
            rows.writerow([c.name, lv.real, lv.imag, rv.real, rv.imag, c.rel_dev, c.tol,
                           str(c.passed).lower()])
        return out.getvalue()

    def to_table(self) -> str:
        width = max((len(c.name) for c in self.checks), default=10)
        lines = [f"{'check':<{width}}  {'rel_dev':>10}  {'tol':>10}  status"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name:<{width}}  {c.rel_dev:>10.3e}  {c.tol:>10.3e}  {status}"
            )
        lines.append(
            f"-- {self.suite}: {len(self.checks) - self.n_failed}/{len(self.checks)} passed"
        )
        return "\n".join(lines)


def _identity_plans(name: str, sc: SuiteConfig, words: list[Word]) -> list[tuple]:
    # each relation derived once and compiled at every pair; a one-parameter
    # identity runs on the distinct first slots
    grid = sc.params_grid if _TWO_PARAMETERS[name] else [(a, a) for a in sc.alphas()]
    sides = {(w, r): RELATIONS[name](w, r) for w in words for r in sc.r_values()}
    return [_identity_plan(name, w, r, Params(a, b), sides[w, r])
            for a, b in grid for w in words for r in sc.r_values()]


def _integral_plans(sc: SuiteConfig, words: list[Word]) -> list[tuple]:
    # the quadrature's domain only; the zeta integrand and series do not depend on b, so
    # its check runs at the least b of each a.  Pair, then family, then word (in weight
    # order): the words sharing a first inner sum are evaluated together, so the 2-entry
    # memo `_first_sums` misses once per weight and rule; `_rule_tables`, a function of
    # the rule alone, misses once per rule and process (each worker builds its own)
    box = [(a, b) for a, b in sc.params_grid if _in_integral_box(a, b)]
    least_b = {a: min((b for a2, b in box if a2 == a), key=lambda b: complex(b).real)
               for a, _ in box}
    return [_integral_plan(w, Params(a, b), family)
            for a, b in box for family in ("Z", "zeta") if family == "Z" or b == least_b[a]
            for w in words if w.weight <= INTEGRAL_WEIGHT_MAX]


def _derivative_plans(sc: SuiteConfig, words: list[Word]) -> list[tuple]:
    # the r >= 1 checks of a pair and word read the same circle points, compiled once
    rs = [r for r in sc.r_values() if r >= 1]
    duals = {w: dual(w) for w in words}
    starred = {w: {r: _starred_terms(dw, r) for r in rs} for w, dw in duals.items()}
    return [plan for a, b in sc.params_grid for w in words
            for plan in _derivative_plans_at(w, duals[w], starred[w], Params(a, b))]


# duality and the sum formula are Theorem 1.1(i) instances, so their suites
# are views of the thm11i plans: r = 0, and the words whose dual is 1:k1
_SUITES = {
    "duality": lambda sc, words: _identity_plans("thm11i", replace(sc, r_max=0), words),
    **{name: functools.partial(_identity_plans, name) for name in RELATIONS},
    "sum_formula": lambda sc, words: _identity_plans("thm11i", sc, [w for w in words if dual(w).depth == 1]),
    "integral": _integral_plans,
    "derivative": _derivative_plans,
    "all": lambda sc, words: [plan for name in RELATIONS for plan in _identity_plans(name, sc, words)],
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(which: str, sc: SuiteConfig, workers: int = 1) -> VerificationReport:
    """Run one identity suite over the configured word/r/parameter grid:
    plan every check, evaluate each distinct value once, assemble the checks.

    Check failures are recorded, never raised; the checks are sorted by
    name, so the report does not depend on how the workers shared the values.
    """
    if which not in SUITE_NAMES:
        raise ValueError(f"unknown suite {which!r}; choose from {SUITE_NAMES}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    plans = _SUITES[which](sc, words_up_to_weight(sc.weight_max, sc.depth_max))
    if not plans:
        raise ValueError(f"suite {which!r} has no checks to run under {sc}")
    checks = sorted(_run(plans, sc.eval_config(), workers), key=lambda c: c.name)
    return VerificationReport(suite=which, config=sc, checks=checks)
