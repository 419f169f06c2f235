"""Numerical certification of the duality and derivative identities.

Every check compares two independently computed sides of one identity
and records the deviation together with a tolerance tied to the actual
truncation quality (10x the summed error estimates, floored at 1e-9),
so a pass means the deviation is explained by truncation alone.

The quadrature and finite-difference checks are cross-validations of the
integral representation and of the derivative calculus behind the
starred expansion; they run at their own, much looser, pinned
tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .evaluators import (
    Params,
    eval_Hstar,
    eval_Z,
    eval_Zstar,
    eval_hurwitz,
    eval_lincomb,
    sum_results,
)
from .nested_sum import EvalConfig, EvalResult
from .words import (
    Cut,
    LinComb,
    Word,
    compositions,
    dual,
    parse_word,
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
        return {
            "name": self.name,
            "lhs": [complex(self.lhs).real, complex(self.lhs).imag],
            "rhs": [complex(self.rhs).real, complex(self.rhs).imag],
            "abs_dev": self.abs_dev,
            "rel_dev": self.rel_dev,
            "tol": self.tol,
            "n_used": self.n_used,
            "passed": self.passed,
            "note": self.note,
        }


def _make_check(
    name: str,
    lhs: EvalResult,
    rhs: EvalResult,
    tol: float | None = None,
    note: str = "",
) -> IdentityCheck:
    lv, rv = complex(lhs.value), complex(rhs.value)
    abs_dev = abs(lv - rv)
    scale = abs(rv)
    rel_dev = abs_dev / scale if scale > 0 else abs_dev
    if tol is None:
        err_sum = lhs.err_estimate + rhs.err_estimate
        tol = max(TOL_FLOOR, 10.0 * err_sum / max(scale, 1.0))
    dev = rel_dev if scale >= 1.0 else abs_dev
    if not (lhs.converged and rhs.converged):
        note = (note + " tolerance-not-reached").strip()
    return IdentityCheck(
        name=name,
        lhs=lv,
        rhs=rv,
        abs_dev=abs_dev,
        rel_dev=rel_dev,
        tol=tol,
        n_used=max(lhs.n_used, rhs.n_used),
        passed=bool(dev <= tol),
        note=note,
    )


def _fmt_param(x: complex) -> str:
    x = complex(x)
    if x.imag == 0:
        return f"{x.real:g}"
    return f"{x.real:g}{x.imag:+g}i"


# ---------------------------------------------------------------------------
# Series-series identity checks
# ---------------------------------------------------------------------------


def check_duality(w: Word, p: Params, cfg: EvalConfig = EvalConfig()) -> IdentityCheck:
    """Two-parameter duality: the word at (a, b) against its dual at (b, a)."""
    lhs = eval_Z(w, p, cfg)
    rhs = eval_Z(dual(w), p.swapped(), cfg)
    name = f"duality/w={w}/a={_fmt_param(p.alpha)}/b={_fmt_param(p.beta)}"
    return _make_check(name, lhs, rhs)


def starred_rvectors(dual_word: Word, r: int) -> list[tuple[int, ...]]:
    """Admissible r-vectors for the starred expansion of a dual word.

    All compositions of r over the q slots, except that the first slot is
    pinned to 0 when the dual's first inner cut is 1/2 (its unit-or-zero
    binomial kills every other term); for q = 1 the closing cut is 1, so
    the single slot is always live.
    """
    q = dual_word.depth
    first_live = q == 1 or dual_word.inner_cut(1) is Cut.ONE
    if first_live:
        return [tuple(c) for c in compositions(r, q)]
    return [(0,) + tuple(c) for c in compositions(r, q - 1)]


def _zstar_side(dw: Word, r: int, p: Params, cfg: EvalConfig) -> EvalResult:
    # sum of starred evaluations over the admissible r-vectors; params
    # arrive already in (pochhammer-base, weight-base) order
    return sum_results((1.0, eval_Zstar(dw, rv, p, cfg)) for rv in starred_rvectors(dw, r))


def check_thm11_i(
    w: Word, r: int, p: Params, cfg: EvalConfig = EvalConfig()
) -> IdentityCheck:
    """Binomial-operator image at (a, b) against the starred sum of the dual
    at (b, a)."""
    lhs = eval_lincomb(sigma_b1(w, r), "Z", p, cfg)
    rhs = _zstar_side(dual(w), r, p.swapped(), cfg)
    name = f"thm11i/w={w}/r={r}/a={_fmt_param(p.alpha)}/b={_fmt_param(p.beta)}"
    return _make_check(name, lhs, rhs)


def check_thm11_ii(
    w: Word, r: int, alpha: complex, cfg: EvalConfig = EvalConfig()
) -> IdentityCheck:
    """Unit-coefficient operator commutes with dualization on the diagonal
    (a, a)."""
    p = Params(alpha)
    lhs = eval_lincomb(sigma_eps(w, r), "Z", p, cfg)
    rhs = eval_lincomb(sigma_eps(dual(w), r), "Z", p, cfg)
    name = f"thm11ii/w={w}/r={r}/a={_fmt_param(alpha)}"
    return _make_check(name, lhs, rhs)


def _apply_linear(op: Callable[[Word, int], LinComb], lc: LinComb, r: int) -> LinComb:
    out = LinComb()
    for w, c in lc:
        out = out + c * op(w, r)
    return out


def check_prop24(
    w: Word, r: int, alpha: complex, cfg: EvalConfig = EvalConfig()
) -> IdentityCheck:
    """Slot-expansion side against letter-insertion side of the diagonal
    derivative expansion."""
    p = Params(alpha)
    dw = dual(w)
    lhs_lc = LinComb()
    rhs_lc = LinComb()
    for l in range(r + 1):
        lhs_lc = lhs_lc + _apply_linear(sigma_eps, v_y_monomials(w, l), r - l)
        rhs_lc = rhs_lc + _apply_linear(sigma_eps, v_prime_monomials(dw, l), r - l)
    lhs = eval_lincomb(lhs_lc, "Z", p, cfg)
    rhs = eval_lincomb(rhs_lc, "Z", p, cfg)
    name = f"prop24/w={w}/r={r}/a={_fmt_param(alpha)}"
    return _make_check(name, lhs, rhs)


def check_thm31(
    w: Word, r: int, alpha: complex, cfg: EvalConfig = EvalConfig()
) -> IdentityCheck:
    """Hurwitz-family identity: the all-blocks binomial image against the
    composition sum of the starred Hurwitz-dual family."""
    p = Params(alpha)
    lhs = eval_lincomb(sigma_b2(w, r), "zeta", p, cfg)
    dw = dual(w)
    rhs = sum_results((1.0, eval_Hstar(dw, rv, alpha, cfg)) for rv in compositions(r, dw.depth))
    name = f"thm31/w={w}/r={r}/a={_fmt_param(alpha)}"
    return _make_check(name, lhs, rhs)


def check_sum_formula(
    k1: int, r: int, p: Params, cfg: EvalConfig = EvalConfig()
) -> IdentityCheck:
    """Depth-aggregated instance: the composition sum over bumped all-ones
    words equals a single explicit series (the starred depth-1 value)."""
    if k1 < 2:
        raise ValueError("k1 must be >= 2")
    base = parse_word(f"1:{k1}")
    lhs = eval_lincomb(sigma_b1(dual(base), r), "Z", p, cfg)
    rhs = eval_Zstar(base, (r,), p.swapped(), cfg)
    name = f"sum_formula/k1={k1}/r={r}/a={_fmt_param(p.alpha)}/b={_fmt_param(p.beta)}"
    return _make_check(name, lhs, rhs)


# ---------------------------------------------------------------------------
# Iterated-integral cross-check (tanh-sinh tensor quadrature)
# ---------------------------------------------------------------------------

QUAD_TOL = 1e-3
_OMEGA = {
    "1": lambda t: 1.0 / (1.0 - t),
    "h": lambda t: 1.0 / (t * (1.0 - t)),
    "0": lambda t: 1.0 / t,
}


def _tanh_sinh_nodes(h: float, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(-kmax, kmax + 1, dtype=np.float64)
    u = 0.5 * math.pi * np.sinh(k * h)
    x = 0.5 * (1.0 + np.tanh(u))
    w = 0.25 * math.pi * h * np.cosh(k * h) / np.cosh(u) ** 2
    keep = (w > 1e-18) & (x > 1e-15) & (x < 1.0 - 1e-15)
    return x[keep], w[keep]


def _simplex_integral(
    letters: str, alpha: float, beta: float, family: str, h: float, kmax: int
) -> float:
    """Iterated integral over the ordered simplex, mapped to the cube by
    nested products t_j = u_j * t_{j+1}."""
    x, wts = _tanh_sinh_nodes(h, kmax)
    dim = len(letters)
    total = 0.0
    # chunk over the outermost (largest t) variable to bound memory
    shape_rest = [len(x)] * (dim - 1)
    grids = np.meshgrid(*([x] * (dim - 1)), indexing="ij") if dim > 1 else []
    wrest = np.ones(shape_rest)
    for i, g in enumerate(grids):
        shape = [1] * (dim - 1)
        shape[i] = len(x)
        wrest = wrest * wts.reshape(shape)
    for i_out, t_last in enumerate(x):
        # t arrays from the last letter inward: t[dim-1] = t_last
        ts = [None] * dim
        ts[dim - 1] = np.full(shape_rest or (1,), t_last)
        for j in range(dim - 2, -1, -1):
            ts[j] = ts[j + 1] * grids[j]
        f = np.ones(shape_rest or (1,))
        jac = np.ones(shape_rest or (1,))
        for j in range(dim):
            f = f * _OMEGA[letters[j]](ts[j])
            if j < dim - 1:
                jac = jac * ts[j + 1]
        t0, tn = ts[0], ts[dim - 1]
        if family == "Z":
            f = f * (1.0 - t0) ** (1.0 - alpha) * t0 ** (beta - 1.0)
            f = f * tn ** (1.0 - beta) * (1.0 - tn) ** (alpha - 1.0)
        else:
            f = f * t0 ** (alpha - 1.0)
        total += wts[i_out] * float(np.sum(f * jac * wrest))
    return total


def check_integral_repr(
    w: Word,
    p: Params,
    family: Literal["Z", "zeta"] = "Z",
    cfg: EvalConfig = EvalConfig(),
) -> IdentityCheck:
    """Quadrature of the iterated-integral representation against the series.

    Limited to words of weight <= 4 and real parameters in [1, 2] (the
    integrand's endpoint singularities stay integrable there); this is a
    smoke test at a pinned 1e-3 tolerance.
    """
    if w.weight > 4:
        raise ValueError("integral check limited to weight <= 4 (dimension <= 4)")
    alpha, beta = complex(p.alpha), complex(p.beta)
    if alpha.imag or beta.imag or not (1 <= alpha.real <= 2 and 1 <= beta.real <= 2):
        raise ValueError("integral check requires real parameters in [1, 2]")
    a, b = alpha.real, beta.real
    letters = w.letters()
    coarse = _simplex_integral(letters, a, b, family, h=0.16, kmax=24)
    fine = _simplex_integral(letters, a, b, family, h=0.08, kmax=48)
    quad_err = abs(fine - coarse)
    if family == "Z":
        series = eval_Z(w, p, cfg)
    else:
        series = eval_hurwitz(w, p.alpha, cfg)
    quad = EvalResult(fine, quad_err, 0, quad_err <= QUAD_TOL)
    note = "" if quad_err <= QUAD_TOL else f"quadrature non-convergence ({quad_err:.2g})"
    name = f"integral/{family}/w={w}/a={a:g}/b={b:g}"
    return _make_check(name, quad, series, tol=QUAD_TOL, note=note)


# ---------------------------------------------------------------------------
# Finite-difference cross-link of the derivative calculus
# ---------------------------------------------------------------------------

FD_STEP = 1e-3
FD_TOL = {1: 1e-4, 2: 1e-3}


def check_derivative_crosslink(
    w: Word, r: int, p: Params, cfg: EvalConfig | None = None
) -> IdentityCheck:
    """Finite-difference derivative of the dual side against the starred sum.

    The first-slot derivative of the dual evaluation, scaled by
    (-1)^r / r!, must equal the sum of starred evaluations over the
    admissible r-vectors; central order-4 stencils with step 1e-3.
    """
    if r not in (1, 2):
        raise ValueError("derivative cross-link supports r in {1, 2}")
    alpha, beta = complex(p.alpha), complex(p.beta)
    if alpha.imag or beta.imag:
        raise ValueError("derivative cross-link requires real parameters")
    if cfg is None:
        cfg = EvalConfig(rel_tol=1e-12)
    dw = dual(w)
    a, b = alpha.real, beta.real
    h = FD_STEP

    def f(x: float) -> float:
        return float(complex(eval_Z(dw, Params(x, a), cfg).value).real)

    if r == 1:
        deriv = (-f(b + 2 * h) + 8 * f(b + h) - 8 * f(b - h) + f(b - 2 * h)) / (12 * h)
    else:
        deriv = (
            -f(b + 2 * h)
            + 16 * f(b + h)
            - 30 * f(b)
            + 16 * f(b - h)
            - f(b - 2 * h)
        ) / (12 * h * h)
    scaled = (-1) ** r / math.factorial(r) * deriv
    stencil_noise = 34.0 * 1e-13 / (12 * h**r)  # eval noise through the stencil
    lhs = EvalResult(scaled, stencil_noise, 0, True)
    rhs = _zstar_side(dw, r, Params(b, a), cfg)
    name = f"derivative/w={w}/r={r}/a={a:g}/b={b:g}"
    return _make_check(name, lhs, rhs, tol=FD_TOL[r])


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
        if self.tol <= 0:
            raise ValueError("tol must be > 0")

    def r_values(self) -> list[int]:
        step = 2 if self.even_r_only else 1
        return list(range(0, self.r_max + 1, step))

    def alphas(self) -> list[complex]:
        seen = []
        for a, _ in self.params_grid:
            if a not in seen:
                seen.append(a)
        return seen

    def eval_config(self) -> EvalConfig:
        rel = min(max(self.tol / 30.0, 1e-12), 1e-9)
        return EvalConfig(rel_tol=rel)


@dataclass
class VerificationReport:
    """Aggregated suite outcome; serializes to JSON, CSV and a text table."""

    suite: str
    config: SuiteConfig
    checks: list[IdentityCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def sorted_checks(self) -> list[IdentityCheck]:
        return sorted(self.checks, key=lambda c: c.name)

    def to_json(self, include_timestamp: bool = True) -> dict:
        out = {
            "schema": 1,
            "suite": self.suite,
            "passed": self.passed,
            "n_checks": len(self.checks),
            "n_failed": self.n_failed,
            "config": {
                "weight_max": self.config.weight_max,
                "depth_max": self.config.depth_max,
                "r_max": self.config.r_max,
                "params_grid": [
                    [_fmt_param(a), _fmt_param(b)] for a, b in self.config.params_grid
                ],
                "tol": self.config.tol,
                "even_r_only": self.config.even_r_only,
            },
            "checks": [c.to_json() for c in self.sorted_checks()],
        }
        if include_timestamp:
            out["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return out

    def to_csv(self) -> str:
        lines = ["name,lhs_re,lhs_im,rhs_re,rhs_im,rel_dev,tol,passed"]
        for c in self.sorted_checks():
            lv, rv = complex(c.lhs), complex(c.rhs)
            lines.append(
                f"{c.name},{lv.real!r},{lv.imag!r},{rv.real!r},{rv.imag!r},"
                f"{c.rel_dev!r},{c.tol!r},{str(c.passed).lower()}"
            )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        width = max((len(c.name) for c in self.checks), default=10)
        lines = [f"{'check':<{width}}  {'rel_dev':>10}  {'tol':>10}  status"]
        for c in self.sorted_checks():
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name:<{width}}  {c.rel_dev:>10.3e}  {c.tol:>10.3e}  {status}"
            )
        lines.append(
            f"-- {self.suite}: {len(self.checks) - self.n_failed}/{len(self.checks)} passed"
        )
        return "\n".join(lines)


# A suite's task generator lists its (check, args) pairs.  Each names its
# check in its own body, so the check is looked up in this module when the
# suite runs, not bound when the module is imported.  The parameters run
# outermost: the series of one pair share their Gamma-ratio blocks, which
# the kernel keeps only for the pairs it saw last.


def _duality_tasks(sc: SuiteConfig, words: list[Word], cfg: EvalConfig) -> list[tuple]:
    return [(check_duality, (w, Params(a, b), cfg)) for a, b in sc.params_grid for w in words]


def _thm11i_tasks(sc: SuiteConfig, words: list[Word], cfg: EvalConfig) -> list[tuple]:
    return [(check_thm11_i, (w, r, Params(a, b), cfg))
            for a, b in sc.params_grid for w in words for r in sc.r_values()]


def _diagonal_tasks(check, sc: SuiteConfig, words: list[Word], cfg: EvalConfig) -> list[tuple]:
    # the one-parameter identities run on the distinct first-slot values
    return [(check, (w, r, a, cfg)) for a in sc.alphas() for w in words for r in sc.r_values()]


def _sum_formula_tasks(sc: SuiteConfig, words: list[Word], cfg: EvalConfig) -> list[tuple]:
    return [(check_sum_formula, (k1, r, Params(a, b), cfg))
            for a, b in sc.params_grid for k1 in range(2, sc.weight_max + 1) for r in sc.r_values()]


def _real_pairs(sc: SuiteConfig) -> list[tuple[complex, complex]]:
    return [(a, b) for a, b in sc.params_grid if not (complex(a).imag or complex(b).imag)]


def _integral_tasks(sc: SuiteConfig, words: list[Word], cfg: EvalConfig) -> list[tuple]:
    # the quadrature takes words of weight <= 4 and real parameters in [1, 2]
    return [(check_integral_repr, (w, Params(a, b), family, cfg))
            for a, b in _real_pairs(sc) if 1 <= complex(a).real <= 2 and 1 <= complex(b).real <= 2
            for w in words if w.weight <= 4
            for family in ("Z", "zeta")]


def _derivative_tasks(sc: SuiteConfig, words: list[Word], cfg: EvalConfig) -> list[tuple]:
    # the stencils take words of weight <= 4, r in {1, 2} and real parameters
    return [(check_derivative_crosslink, (w, r, Params(a, b), None))
            for a, b in _real_pairs(sc)
            for w in words if w.weight <= 4
            for r in range(1, min(sc.r_max, 2) + 1)]


_SERIES_SUITES = {
    "duality": _duality_tasks,
    "thm11i": _thm11i_tasks,
    "thm11ii": lambda sc, words, cfg: _diagonal_tasks(check_thm11_ii, sc, words, cfg),
    "prop24": lambda sc, words, cfg: _diagonal_tasks(check_prop24, sc, words, cfg),
    "thm31": lambda sc, words, cfg: _diagonal_tasks(check_thm31, sc, words, cfg),
    "sum_formula": _sum_formula_tasks,
}
_SUITES = {
    **_SERIES_SUITES,
    "integral": _integral_tasks,
    "derivative": _derivative_tasks,
    "all": lambda sc, words, cfg: [
        task for tasks in _SERIES_SUITES.values() for task in tasks(sc, words, cfg)
    ],
}
SUITE_NAMES = tuple(_SUITES)


def _run_task(task: tuple) -> IdentityCheck:
    check, args = task
    return check(*args)


def run_suite(which: str, sc: SuiteConfig, workers: int = 1) -> VerificationReport:
    """Run one identity suite over the configured word/r/parameter grid.

    Check failures are recorded, never raised; the report aggregation is
    sorted by name, so results are deterministic regardless of execution
    order (checks are independent and may run in parallel).
    """
    if which not in SUITE_NAMES:
        raise ValueError(f"unknown suite {which!r}; choose from {SUITE_NAMES}")
    words = words_up_to_weight(sc.weight_max, sc.depth_max)
    tasks = _SUITES[which](sc, words, sc.eval_config())
    report = VerificationReport(suite=which, config=sc)
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            report.checks.extend(pool.map(_run_task, tasks, chunksize=4))
    else:
        report.checks.extend(map(_run_task, tasks))
    report.checks.sort(key=lambda c: c.name)
    return report
