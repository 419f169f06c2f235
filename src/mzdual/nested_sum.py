"""Numerical kernel for nested multiple series.

A :class:`NestedSumSpec` describes one nested sum: a chain of integer
indices ``0 <= m_1 (< or <=) m_2 ... m_D < inf``, a per-index weight
``(m + alpha)^-a (m + beta)^-b`` with optional Pochhammer-ratio
prefactors, and the strict/weak relation linking consecutive indices.

Evaluation is a single streaming pass, innermost index first: level 1
accumulates prefix sums of its weighted terms, and each subsequent level
multiplies its own weight by the prefix of the previous level (shifted by
one for a strict link).  Work is O(N * depth) and fully vectorized; the
running outer partial sum is recorded at geometrically spaced marks.

The infinite tail is removed by fitting the recorded partial sums against
exact tail functions sum_{m>M} m^-s log^t m (computed in closed form via
Euler-Maclaurin).  The exponent/log-power basis is derived from a small
symbolic analysis of the spec: each level's term behaviour m^e log^t m is
propagated through the prefix sums, so slowly decaying tails with log
factors (weight-1 inner blocks) extrapolate correctly.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, loggamma


class KernelError(Exception):
    """Base class for kernel failures."""


class InvalidParamsError(KernelError):
    """Parameters outside the supported domain (Re(alpha), Re(beta) > 0)."""


class NonConvergentError(KernelError):
    """The outermost index decays with exponent <= 1."""


class Link(enum.Enum):
    STRICT = "<"
    WEAK = "<="


class Prefactor(enum.Enum):
    """Pochhammer-ratio prefactors attachable to a single index m."""

    POCH_FIRST = "poch_first"            # (alpha)_m / m!
    POCH_LAST = "poch_last"              # m! / (alpha)_{m+1}
    POCH_FIRST_ZSTAR = "poch_first_zstar"  # (beta)_m / m!
    POCH_LAST_ZSTAR = "poch_last_zstar"    # m! (m+alpha) / (beta)_{m+1}
    POCH_LAST_HSTAR = "poch_last_hstar"    # (m+1)! / (alpha)_{m+1}


@dataclass(frozen=True)
class IndexWeight:
    """Weight of one summation index: (m+alpha)^-a (m+beta)^-b * prefactors."""

    a: int = 0
    b: int = 0
    prefactors: tuple[Prefactor, ...] = ()


@dataclass(frozen=True)
class NestedSumSpec:
    """Declarative description of one nested series.

    ``links[i]`` relates index i and i+1 (STRICT: m_i < m_{i+1}).  The
    first index starts at 0, or at 1 when ``start_strict`` is set.
    """

    indices: tuple[IndexWeight, ...]
    links: tuple[Link, ...]
    alpha: complex
    beta: complex = 1.0
    start_strict: bool = False

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError("spec needs at least one index")
        if len(self.links) != len(self.indices) - 1:
            raise ValueError(
                f"need {len(self.indices) - 1} links, got {len(self.links)}"
            )
        # keep real parameters as floats so array dtypes stay real
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if isinstance(v, complex) and v.imag == 0:
                object.__setattr__(self, name, v.real)

    @property
    def depth(self) -> int:
        return len(self.indices)



@dataclass(frozen=True)
class EvalConfig:
    """Truncation and precision policy for :func:`evaluate`."""

    n_initial: int = 4096
    growth: int = 4
    rel_tol: float = 1e-10
    max_n: int = 10**8

    def __post_init__(self):
        if self.n_initial < 2:
            raise ValueError("n_initial must be >= 2")
        if self.growth < 2:
            raise ValueError("growth must be >= 2")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must be in (0, 1)")


class EvalResult(NamedTuple):
    value: complex
    err_estimate: float
    n_used: int
    converged: bool


# ---------------------------------------------------------------------------
# Exact tails of m^-s log^t m via Euler-Maclaurin
# ---------------------------------------------------------------------------


def _ext(x: complex) -> np.generic:
    # x as an extended-precision scalar, complex only when x is
    return np.clongdouble(x) if isinstance(x, complex) else np.longdouble(x)


def _log_poly_derivative(e: complex, coeffs: list[complex]) -> tuple[complex, list[complex]]:
    # d/dx [x^-e * sum_j coeffs[j] log^j x] = x^-(e+1) * (new poly)
    out = [0.0] * len(coeffs)
    for j, c in enumerate(coeffs):
        out[j] -= e * c
        if j >= 1:
            out[j - 1] += j * c
    return e + 1.0, out


def _eval_log_poly(e: complex, coeffs: list[complex], a: np.ndarray, la: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(a)
    for c in reversed(coeffs):
        acc = acc * la + c
    return acc * a ** -_ext(e)

# Euler-Maclaurin odd-derivative corrections: -B_{2k}/(2k)! * f^(2k-1)(a)
_EM_CORRECTIONS = (
    (-1.0 / 12.0, 1),
    (1.0 / 720.0, 3),
    (-1.0 / 30240.0, 5),
    (1.0 / 1209600.0, 7),
)


def tail_powers_log(s: complex, t: int, ms: np.ndarray) -> np.ndarray:
    """sum_{k>m} k^-s log^t k for each m in ms, in extended precision.

    Euler-Maclaurin at a = m+1 with corrections through the 7th derivative
    (error ~ a^-(Re s+9), negligible for m >= 32); the integral term has the
    closed form a^(1-s) * sum_j t!/(t-j)! log^(t-j)(a) / (s-1)^(j+1).  The
    form holds for complex s, which gives a complex (clongdouble) array.
    """
    if s.real <= 1:
        raise ValueError("tail requires Re s > 1")
    a = np.asarray(ms, dtype=np.longdouble) + 1
    la = np.log(a)
    integral = np.zeros_like(a)
    fall = 1.0  # t! / (t-j)!
    for j in range(t + 1):
        integral = integral + fall * la ** (t - j) / _ext(s - 1.0) ** (j + 1)
        fall *= t - j
    total = integral * a ** _ext(1.0 - s)
    e, coeffs = s, [0.0] * t + [1.0]
    total += 0.5 * _eval_log_poly(e, coeffs, a, la)
    order = 0
    for factor, target in _EM_CORRECTIONS:
        while order < target:
            e, coeffs = _log_poly_derivative(e, coeffs)
            order += 1
        total += factor * _eval_log_poly(e, coeffs, a, la)
    return total


# ---------------------------------------------------------------------------
# Asymptotic analysis: term behaviour m^e log^t m per level
# ---------------------------------------------------------------------------

_RESONANCE_TOL = 1e-6

# A behaviour entry (e, t) stands for m^e log^t m; e is complex when a
# Pochhammer base is, and a plain float otherwise.
Behaviour = list[tuple[complex, int]]


def _exponent(x: complex) -> complex:
    # keep an exponent a float unless it has an imaginary part
    x = complex(x)
    return x if x.imag else x.real


def _prefactor_exponent(pf: Prefactor, alpha: complex, beta: complex) -> complex:
    a, b = complex(alpha), complex(beta)
    return {
        Prefactor.POCH_FIRST: a - 1.0,
        Prefactor.POCH_LAST: -a,
        Prefactor.POCH_FIRST_ZSTAR: b - 1.0,
        Prefactor.POCH_LAST_ZSTAR: 1.0 - b,
        Prefactor.POCH_LAST_HSTAR: 1.0 - a,
    }[pf]


def _merge_behaviour(entries: Behaviour, keep: int = 12) -> Behaviour:
    # group near-equal exponents, keep the highest log power per group;
    # the order is by real part, which sets the size of m^e
    entries = sorted(
        ((_exponent(e), t) for e, t in entries), key=lambda et: (-et[0].real, -et[1])
    )
    out: Behaviour = []
    for e, t in entries:
        for i, (e0, t0) in enumerate(out):
            if abs(e - e0) < 1e-9:
                if t > t0:
                    out[i] = (e0, t)
                break
        else:
            out.append((e, t))
    if out:
        lead = out[0][0].real
        out = [(e, t) for e, t in out if e.real > lead - 3.2]
    return out[:keep]


def _prefix_behaviour(entries: Behaviour) -> Behaviour:
    # behaviour of P(m) = sum_{k<=m} of a term behaving like m^e log^t m;
    # only e = -1 itself resonates with the constant (e = -1 + 2i does not)
    out: Behaviour = [(0.0, 0)]
    for e, t in entries:
        if abs(e + 1.0) < _RESONANCE_TOL:
            out.append((0.0, t + 1))
            out.append((-1.0, t))
        else:
            out.append((e + 1.0, t))
            if e.real > -1.0 - _RESONANCE_TOL:
                out.append((e, t))
    return _merge_behaviour(out)


def term_behaviour(spec: NestedSumSpec) -> Behaviour:
    """Asymptotic behaviour (exponent, log power) of the outermost terms.

    The leading exponent e* determines the decay s = -Re e* of the outer
    series; convergence requires s > 1.
    """
    prefix: Behaviour | None = None
    current: Behaviour = []
    for iw in spec.indices:
        own = complex(-(iw.a + iw.b))
        for pf in iw.prefactors:
            own += _prefactor_exponent(pf, spec.alpha, spec.beta)
        if prefix is None:
            current = [(own, 0), (own - 1.0, 0), (own - 2.0, 0)]
        else:
            current = [(own + e, t) for e, t in prefix]
        current = _merge_behaviour(current)
        prefix = _prefix_behaviour(current)
    return current


# every tail exponent and its integer steps that the tail basis covers
_EXTRAPOLATION_TERMS = 3


def _tail_basis(behaviour: Behaviour) -> tuple[tuple[complex, int], ...]:
    """Candidate (s, t) pairs for the tail fit, most important first, from
    the :func:`term_behaviour` of the outermost terms.

    Each exponent e contributes s = -e and its steps s + 1, s + 2, every
    one with log powers t..0: the expansions of the Pochhammer ratios and
    of (m + beta)^-b step every exponent by integers, not only the lead.
    """
    cand: dict[tuple[complex, int], None] = {}
    for e, t in behaviour:
        for j in range(_EXTRAPOLATION_TERMS):
            s = complex(-e + j)
            s = _exponent(complex(round(s.real, 9), round(s.imag, 9)))
            if s.real > 1.0 + 1e-9:
                for tt in range(t, -1, -1):
                    cand.setdefault((s, tt), None)
    return tuple(sorted(cand, key=lambda st: (st[0].real, -st[1], st[0].imag)))


# ---------------------------------------------------------------------------
# Weight arrays
# ---------------------------------------------------------------------------


def _int_power(base: np.ndarray, k: int) -> np.ndarray:
    # base^-k for small positive integer k, via reciprocal and multiplies
    inv = 1.0 / base
    out = inv.copy()
    for _ in range(k - 1):
        out *= inv
    return out


# Stirling correction B_2n / (2n (2n-1) z^(2n-1)) coefficients, n = 1..4
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)
_LGDIFF_CROSSOVER = 64.0


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    inv2 = 1.0 / (z * z)
    acc = np.zeros_like(z)
    for c in reversed(_STIRLING):
        acc = (acc + c) * inv2
    return acc * z  # sum c_n z^(1-2n)


def _log1p(u: np.ndarray) -> np.ndarray:
    # log(1 + u) to full relative accuracy for small real or complex u;
    # numpy's complex log of 1 + u loses about eps / |u| relative
    if not np.iscomplexobj(u):
        return np.log1p(u)
    x, y = u.real, u.imag
    return 0.5 * np.log1p(2.0 * x + x * x + y * y) + 1j * np.arctan2(y, 1.0 + x)


def lgamma_diff(z: np.ndarray, d: complex) -> np.ndarray:
    """loggamma(z + d) - loggamma(z) for z >= 1, without cancellation.

    A naive difference of two log-gammas loses ~ |loggamma(z)| * eps
    absolutely, which at z ~ 1e7 corrupts the 1e-8 digits of the
    exponent of every Pochhammer ratio.  For z above a crossover the
    difference of the Stirling expansions is formed term by term, every
    piece O(d log z); below it the direct difference is already accurate.
    Real d gives a real array, complex d a complex one.
    """
    z = np.asarray(z, dtype=np.float64)
    d = complex(d)
    lgamma = loggamma
    if d.imag == 0:
        d, lgamma = d.real, gammaln
    small = z < _LGDIFF_CROSSOVER
    out = np.empty(z.shape, dtype=np.result_type(z, d))
    if small.any():
        zs = z[small]
        out[small] = lgamma(zs + d) - lgamma(zs)
    big = ~small
    if big.any():
        zb = z[big]
        zd = zb + d
        out[big] = (
            (zb - 0.5) * _log1p(d / zb)
            + d * np.log(zd)
            - d
            + _stirling_tail(zd)
            - _stirling_tail(zb)
        )
    return out


def _lgamma_value(shift: complex) -> complex:
    if complex(shift).imag == 0:
        return float(gammaln(complex(shift).real))
    return complex(loggamma(complex(shift)))


def _prefactor_array(pf: Prefactor, x: np.ndarray, alpha: complex, beta: complex) -> np.ndarray:
    z = x + 1.0  # z = m + 1 >= 1
    if pf is Prefactor.POCH_FIRST:
        # (alpha)_m / m! = Gamma(m+alpha) / (Gamma(alpha) Gamma(m+1))
        return np.exp(lgamma_diff(z, alpha - 1.0) - _lgamma_value(alpha))
    if pf is Prefactor.POCH_LAST:
        # m! / (alpha)_{m+1} = Gamma(alpha) Gamma(m+1) / Gamma(m+1+alpha)
        return np.exp(_lgamma_value(alpha) - lgamma_diff(z, alpha))
    if pf is Prefactor.POCH_FIRST_ZSTAR:
        return np.exp(lgamma_diff(z, beta - 1.0) - _lgamma_value(beta))
    if pf is Prefactor.POCH_LAST_ZSTAR:
        # m! (m+alpha) / (beta)_{m+1}
        return np.exp(_lgamma_value(beta) - lgamma_diff(z, beta)) * (x + alpha)
    if pf is Prefactor.POCH_LAST_HSTAR:
        # (m+1)! / (alpha)_{m+1} = Gamma(alpha) Gamma(m+2) / Gamma(m+1+alpha)
        return np.exp(_lgamma_value(alpha) - lgamma_diff(z + 1.0, alpha - 1.0))
    raise ValueError(pf)


def _weights_block(spec: NestedSumSpec, i: int, x: np.ndarray, dtype: type) -> np.ndarray:
    iw = spec.indices[i]
    w = np.ones(len(x), dtype=dtype)
    if iw.a:
        w *= _int_power(x + spec.alpha, iw.a)
    if iw.b:
        w *= _int_power(x + spec.beta, iw.b)
    for pf in iw.prefactors:
        w = w * _prefactor_array(pf, x, spec.alpha, spec.beta)
    return w


# ---------------------------------------------------------------------------
# Streaming evaluation
# ---------------------------------------------------------------------------

_BLOCK = 1 << 16

if np.finfo(np.longdouble).eps < 1e-18:
    _ACC_REAL, _ACC_COMPLEX = np.longdouble, np.clongdouble
else:  # pragma: no cover - platform without 80-bit long double
    _ACC_REAL, _ACC_COMPLEX = np.float64, np.complex128


def _make_marks(limit: int) -> list[int]:
    marks = []
    j = 15
    while True:
        m = round(2.0 ** (j / 3.0))
        if m > limit:
            break
        if not marks or m > marks[-1]:
            marks.append(m)
        j += 1
    return marks


class _Stream:
    """Carries per-level prefix state across blocks of the index range."""

    def __init__(self, spec: NestedSumSpec):
        self.spec = spec
        is_complex = complex(spec.alpha).imag != 0 or complex(spec.beta).imag != 0
        self.weight_dtype = np.complex128 if is_complex else np.float64
        self.acc_dtype = _ACC_COMPLEX if is_complex else _ACC_REAL
        self.carries = np.zeros(spec.depth, dtype=self.acc_dtype)
        self.next_m = 0

    def run_block(self, hi: int) -> np.ndarray:
        """Advance through indices [next_m, hi); returns the outer prefix array."""
        lo = self.next_m
        m = np.arange(lo, hi, dtype=np.float64)
        spec = self.spec
        prev_strict = None
        prev_weak = None
        for i in range(spec.depth):
            w = _weights_block(spec, i, m, self.weight_dtype)
            if i == 0:
                if spec.start_strict and lo == 0:
                    w = w.copy()
                    w[0] = 0.0
                terms = w.astype(self.acc_dtype)
            else:
                q = prev_strict if spec.links[i - 1] is Link.STRICT else prev_weak
                terms = w * q
            prefix = np.cumsum(terms)
            prefix += self.carries[i]
            if i < spec.depth - 1:
                shifted = np.empty_like(prefix)
                shifted[0] = self.carries[i]
                shifted[1:] = prefix[:-1]
                prev_strict, prev_weak = shifted, prefix
            self.carries[i] = prefix[-1]
        self.next_m = hi
        return prefix


def truncated_sum(spec: NestedSumSpec, n: int) -> complex:
    """Exact partial sum with every index <= n (for oracle comparisons)."""
    stream = _Stream(spec)
    out = None
    lo = 0
    while lo <= n:
        hi = min(lo + _BLOCK, n + 1)
        out = stream.run_block(hi)[-1]
        lo = hi
    return complex(out) if stream.acc_dtype is _ACC_COMPLEX else float(out)


def _validate_params(alpha: complex, beta: complex):
    """The parameter domain of every series here: Re(alpha), Re(beta) > 0."""
    if not (complex(alpha).real > 0 and complex(beta).real > 0):
        raise InvalidParamsError(
            f"need Re(alpha) > 0 and Re(beta) > 0, got alpha={alpha}, beta={beta}"
        )


@dataclass
class _FitResult:
    value: complex
    err: float


def _mgs_qr(a: np.ndarray, drop_tol: float = 1e-14):
    """Modified Gram-Schmidt QR in extended precision, with column dropping.

    Processes columns left to right, so the factors of every column
    prefix a[:, :k] are available from one pass.  Returns (q, r, kept);
    the columns of q that were dropped stay zero.
    """
    n, k = a.shape
    q = np.zeros((n, k), dtype=np.longdouble)
    r = np.zeros((k, k), dtype=np.longdouble)
    kept: list[int] = []
    for j in range(k):
        v = a[:, j].astype(np.longdouble)
        norm0 = np.sqrt(v @ v)
        for _ in range(2):
            for i in kept:
                proj = q[:, i] @ v
                r[i, j] += proj
                v = v - proj * q[:, i]
        norm = np.sqrt(v @ v)
        if norm0 == 0 or norm < drop_tol * norm0:
            continue
        r[j, j] = norm
        q[:, j] = v / norm
        kept.append(j)
    return q, r, kept


def _rt_solve(r, kept: list[int], g: np.ndarray) -> np.ndarray:
    # solve R^T w = g over the kept columns (forward substitution); w[j]
    # depends only on columns <= j, so every prefix solves its own prefix
    w = np.zeros(len(g), dtype=np.longdouble)
    for idx, j in enumerate(kept):
        acc = g[j]
        for j2 in kept[:idx]:
            acc = acc - r[j2, j] * w[j2]
        w[j] = acc / r[j, j]
    return w


# fit designs kept; the weight-4 thm11i suite uses 150
_FIT_DESIGN_CACHE = 256


class _FitDesign(NamedTuple):
    """The part of a tail fit that does not depend on the partial sums."""

    wrow: np.ndarray  # row weights, 1 / |phi_lead|
    q: np.ndarray  # orthonormal factor of the weighted, scaled design
    w: np.ndarray  # extrapolation functional in the basis of q
    sizes: tuple[int, ...]  # basis sizes (in columns) that the fit tries
    amp_norms: tuple[float, ...]  # noise amplification of each size
    lead_last: float  # |phi_lead| at the last mark


@functools.lru_cache(maxsize=_FIT_DESIGN_CACHE)
def _fit_design(basis: tuple, marks: tuple) -> _FitDesign | None:
    """Tail functions at the marks, weighted and factored for the fit.

    A real (s, t) is one column; a complex one is two, Re phi and Im phi,
    whose real span holds c * phi for every complex c.  The basis is cut
    at the last whole (s, t) within 14 columns and len(marks) - 4.
    """
    n = len(marks)
    ms = np.array(marks, dtype=np.int64)
    cap = min(n - 4, 14)
    cols: list[np.ndarray] = []
    ends: list[int] = []
    for s, t in basis:
        phi = tail_powers_log(s, t, ms)
        parts = [phi.real, phi.imag] if np.iscomplexobj(phi) else [phi]
        if len(cols) + len(parts) > cap:
            break
        if not cols:
            lead = np.abs(phi)
        cols.extend(parts)
        ends.append(len(cols))
    k_lo = max(2, min(3, len(cols)))
    sizes = tuple(k for k in ends if k >= k_lo)
    if not sizes:
        return None
    phi = np.stack(cols, axis=1)
    wrow = 1.0 / np.maximum(lead, np.longdouble(1e-300))
    a_mat = (phi - phi[-1]) * wrow[:, None]
    col_scale = np.max(np.abs(a_mat), axis=0)
    col_scale[col_scale == 0] = 1.0
    q, r, kept = _mgs_qr(a_mat / col_scale)
    w = _rt_solve(r, kept, phi[-1] / col_scale)
    # amp[:, k-1] is the sensitivity of the size-k extrapolation to each row
    amp = np.cumsum(q * w, axis=1)
    amp_norms = tuple(float(np.sqrt(np.sum((amp[:, k - 1] * wrow) ** 2))) for k in sizes)
    for arr in (wrow, q, w):
        arr.setflags(write=False)
    return _FitDesign(wrow, q, w, sizes, amp_norms, float(lead[-1]))


def _tail_fit(
    marks: np.ndarray,
    sums: np.ndarray,
    basis: tuple[tuple[complex, int], ...],
    scale: float,
) -> _FitResult | None:
    """Fit recorded partial sums against exact tail functions.

    The model S(M) = S_inf - sum_k c_k phi_k(M) is solved for several
    basis-size prefixes; the size minimizing (in-sample misfit projected
    to the last mark) + (noise amplification of the extrapolation) wins.
    Rows are weighted by the inverse leading tail so the residuals are
    relative misfits, and the solve runs in extended precision.  The real
    and imaginary parts of complex sums are fitted as two right-hand sides.
    """
    n = len(marks)
    if n < 6:
        return None
    design = _fit_design(tuple(basis), tuple(int(m) for m in marks))
    if design is None:
        return None
    wrow, q, w = design.wrow, design.q, design.w

    is_complex = np.iscomplexobj(sums)
    sums_ld = np.asarray(sums)
    diff = sums_ld[-1] - sums_ld  # tail(M) - tail(last), exact in extended prec
    if is_complex:
        y = np.stack(
            [diff.real.astype(np.longdouble), diff.imag.astype(np.longdouble)], axis=1
        )
    else:
        y = diff.astype(np.longdouble)[:, None]
    yw = y * wrow[:, None]
    proj = q.T @ yw  # zero rows for dropped columns

    base_value = complex(sums_ld[-1])
    half = n // 2
    best: tuple[float, complex] | None = None  # (err, value)
    for k, amp_norm in zip(design.sizes, design.amp_norms):
        resid = yw - q[:, :k] @ proj[:k]
        tail_last = w[:k] @ proj[:k]
        value = base_value + complex(
            float(tail_last[0]), float(tail_last[1]) if is_complex else 0.0
        )
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            continue
        resid_abs = np.abs(resid).max(axis=1)
        err_model = float(np.max(resid_abs[half:])) * design.lead_last
        # sensitivity of the extrapolated value to per-row noise
        noise_abs = float(np.sqrt(np.mean((resid_abs / wrow) ** 2)))
        err_noise = amp_norm * noise_abs
        err = 3.0 * err_model + 2.0 * err_noise
        if best is None or err < best[0]:
            best = (err, value)
    if best is None:
        return None
    err, value = best
    floor = 5e-15 * max(abs(value), scale)
    return _FitResult(value, max(err, floor))


def evaluate(spec: NestedSumSpec, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Evaluate the nested series to the configured relative tolerance.

    Streams the dynamic program forward, recording outer partial sums at
    geometric marks, and repeatedly extrapolates the tail until the error
    estimate (fit residual + basis-sensitivity) meets rel_tol or max_n is
    hit; in the latter case the best value is returned flagged.
    """
    _validate_params(spec.alpha, spec.beta)
    behaviour = term_behaviour(spec)
    s_eff = -behaviour[0][0].real
    if s_eff <= 1.0 + 1e-9:
        raise NonConvergentError(
            f"outermost decay exponent {s_eff:.6g} <= 1; series diverges"
        )
    basis = _tail_basis(behaviour)

    marks = _make_marks(cfg.max_n)
    stream = _Stream(spec)
    recorded_m: list[int] = []
    recorded_s: list = []

    best: _FitResult | None = None
    prev_fit_value: complex | None = None
    next_check = cfg.n_initial
    mark_iter = iter(marks)
    pending_mark = next(mark_iter, None)

    while stream.next_m <= cfg.max_n:
        lo = stream.next_m
        hi = min(lo + _BLOCK, cfg.max_n + 1, next_check + 1)
        prefix = stream.run_block(hi)
        while pending_mark is not None and pending_mark < hi:
            if pending_mark >= lo:
                recorded_m.append(pending_mark)
                recorded_s.append(prefix[pending_mark - lo])
            pending_mark = next(mark_iter, None)

        n_done = hi - 1
        if n_done >= next_check and len(recorded_m) >= 6:
            lo_cut = max(32, n_done // 1024)
            sel = [i for i, m in enumerate(recorded_m) if m >= lo_cut][-30:]
            fit = _tail_fit(
                np.array([recorded_m[i] for i in sel], dtype=np.int64),
                np.array([recorded_s[i] for i in sel]),
                basis,
                scale=float(abs(complex(recorded_s[-1]))),
            )
            if fit is not None:
                err = fit.err
                have_prev = prev_fit_value is not None
                if have_prev:
                    err = max(err, 0.5 * abs(fit.value - prev_fit_value))
                prev_fit_value = fit.value
                fit = _FitResult(fit.value, err)
                if best is None or fit.err <= best.err:
                    best = fit
                tol_abs = cfg.rel_tol * max(abs(fit.value), 1e-300)
                # a single fit can be biased yet self-consistent; insist on
                # agreement across two escalation checkpoints
                if have_prev and fit.err <= tol_abs:
                    return EvalResult(_as_scalar(fit.value, stream), fit.err, n_done, True)
            next_check = max(next_check * cfg.growth, n_done + 1)
        if hi > cfg.max_n:
            break

    if best is None:
        # not enough marks for a fit: fall back to the raw partial sum
        last = complex(recorded_s[-1]) if recorded_s else 0j
        err = abs(last - complex(recorded_s[-2])) if len(recorded_s) > 1 else abs(last)
        return EvalResult(_as_scalar(last, stream), max(err, 1e-15 * abs(last)), stream.next_m - 1, False)
    return EvalResult(_as_scalar(best.value, stream), best.err, stream.next_m - 1, False)


def _as_scalar(value: complex, stream: _Stream):
    return complex(value) if stream.acc_dtype is _ACC_COMPLEX else float(value.real)

