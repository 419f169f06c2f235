"""Numerical kernel for nested multiple series.

A :class:`NestedSumSpec` describes one nested sum: a chain of integer
indices ``0 <= m_1 (< or <=) m_2 ... m_D < inf``, a per-index weight
``(m + alpha)^-a (m + beta)^-b ((alpha)_m / m!)^poch``, and the
strict/weak relation linking consecutive indices.

Evaluation is a single streaming pass, innermost index first: level 1
accumulates prefix sums of its weighted terms, and each subsequent level
multiplies its own weight by the prefix of the previous level (shifted by
one for a strict link).  Work is O(N * depth) and fully vectorized, in
blocks of at most _FLOOR = 8,193 indices, each one pass that carries every
running sum and product on to the next; the running outer partial sum is
recorded at geometrically spaced marks.
Every running sum (each level's prefix, its carry and the recorded outer
sums) is a compensated (hi, lo) pair of float64 or complex128: about twice
float64's digits, the same on every platform, whatever its long double.

The one Pochhammer ratio r(m) = (alpha)_m / m! = r(m-1) (1 + (alpha - 1) / m)
is a running product, carried across blocks as the prefixes are, and built
once per block for every index with poch != 0; m! / (alpha)_{m+1} is
(m + alpha)^-1 / r.  A block past the range of float64 (r overflows from
alpha ~ 70) ends the evaluation at once, unconverged.  Long double stays
where it pays for itself: in the ratio's product and in the tail fit.

The infinite tail is removed by fitting the recorded partial sums against
exact tail functions sum_{m>M} m^-s log^t m (computed in closed form via
Euler-Maclaurin).  The exponent/log-power basis is derived from a small
symbolic analysis of the spec: each level's term behaviour m^e log^t m is
propagated through the prefix sums, so slowly decaying tails with log
factors (weight-1 inner blocks) extrapolate correctly.  Each (s, t) is one
column of the fit, complex when a complex Pochhammer base puts Im alpha
into s, and the partial sums are one right-hand side with complex
coefficients, so complex parameters cost what real ones do.

The tail is fitted at the checkpoints 2048 * 2^j, and an evaluation stops
at the first checkpoint n whose fit meets the tolerance and agrees with the
fit at n / 4 to within it, so at 8192 terms at the earliest.

Work shared across specs: the tail model is memoized on the exponents of
the index weights, all it depends on; each tail column is computed once at
every mark, and each fit's design slices its rows from it; and the
Pochhammer product block that starts each stream, at m = 0 where no carry
enters, is cached by (alpha, end); later blocks are built afresh, once for
all the indices of a spec, as keeping them would cost megabytes per alpha.
The tail model, column and design memos hold the working set of every suite
at the CLI's default weight unevicted, the tail model's that of the
weight-5 derivative suite too (940 exponent tuples).  Values are pure
functions of their keys, so every output is byte-identical to one computed
per spec, in any order.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class KernelError(Exception):
    """Base class for kernel failures."""


class InvalidParamsError(KernelError):
    """Parameters outside the supported domain (Re(alpha), Re(beta) > 0)."""


class NonConvergentError(KernelError):
    """The outermost index decays with exponent <= 1."""


class Link(enum.Enum):
    STRICT = "<"
    WEAK = "<="


@dataclass(frozen=True)
class IndexWeight:
    """Weight of one summation index: (m+alpha)^-a (m+beta)^-b ((alpha)_m/m!)^poch;
    m! / (alpha)_{m+1} is poch = -1 with one more power of (m+alpha) in a."""

    a: int = 0
    b: int = 0
    poch: int = 0


@dataclass(frozen=True)
class NestedSumSpec:
    """Declarative description of one nested series.

    ``links[i]`` relates index i and i+1 (STRICT: m_i < m_{i+1}).  The
    first index starts at 0.  No indices means the empty product, value 1.
    """

    indices: tuple[IndexWeight, ...]
    links: tuple[Link, ...]
    alpha: complex
    beta: complex = 1.0

    def __post_init__(self):
        need = max(len(self.indices) - 1, 0)
        if len(self.links) != need:
            raise ValueError(f"need {need} links, got {len(self.links)}")
        # keep real parameters as floats so array dtypes stay real
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if isinstance(v, complex) and v.imag == 0:
                object.__setattr__(self, name, v.real)

    @property
    def depth(self) -> int:
        return len(self.indices)


# every evaluation fits its tail at the checkpoints _N_INITIAL * 2**j, and each
# fit must agree with the fit at a quarter of its terms
_N_INITIAL = 2048
_FLOOR = 4 * _N_INITIAL + 1  # no evaluation stops below it, so evaluate's first block ends here

# the marks round(2^(j/3)), 32 to 2^62, three per octave, where the partial sums
# are recorded for the tail fit; each checkpoint 2^(11+j) is one.  They start at
# 32, where the Euler-Maclaurin tails are exact to ~m^-9; the last bounds max_n.
_MARKS = np.array([round(2.0 ** (j / 3.0)) for j in range(15, 187)], dtype=np.int64)
_MARKS.setflags(write=False)


@dataclass(frozen=True)
class EvalConfig:
    """Precision and truncation policy for :func:`evaluate`: the relative
    tolerance asked for, and the most terms streamed, which the checkpoint
    schedule rounds down to _N_INITIAL * 2**j."""

    rel_tol: float = 1e-10
    max_n: int = 10**8

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must be in (0, 1)")
        if not _N_INITIAL <= self.max_n <= int(_MARKS[-1]):
            raise ValueError(f"max_n must be in [{_N_INITIAL}, {_MARKS[-1]}]")


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


def _merge_behaviour(entries: Behaviour) -> Behaviour:
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
    return out


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


def _exponents(spec: NestedSumSpec) -> tuple[complex, ...]:
    # each index weight behaves like m^e: (m + x)^-1 like m^-1, (alpha)_m / m! like m^(alpha - 1)
    return tuple(complex(-(iw.a + iw.b)) + iw.poch * (spec.alpha - 1.0) for iw in spec.indices)


def _behaviour(exponents: tuple[complex, ...]) -> Behaviour:
    """Asymptotic behaviour (exponent, log power) of the outermost terms of a
    spec whose index weights behave like m^e, e in exponents, the lead e* first."""
    prefix: Behaviour = [(0.0, 0), (-1.0, 0), (-2.0, 0)]  # the empty product and its steps
    current: Behaviour = []
    for own in exponents:
        current = _merge_behaviour([(own + e, t) for e, t in prefix])
        prefix = _prefix_behaviour(current)
    return current


# every tail exponent and its integer steps that the tail basis covers
_EXTRAPOLATION_TERMS = 3


# tail models kept, keyed by the exponents; the weight-5 derivative suite uses 940
@functools.lru_cache(maxsize=1024)
def _tail_basis(exponents: tuple[complex, ...]) -> tuple:
    """The tail model of a spec whose index weights behave like m^e, e in
    exponents: candidate (s, t) pairs for the tail fit, most important
    first, from the :func:`_behaviour` of the outermost terms.

    The series converges only if the decay s = -Re e* of the leading
    exponent exceeds 1.  Each exponent e contributes s = -e and its steps
    s + 1, s + 2, every one with log powers t..0: the expansions of the
    Pochhammer ratios and of (m + beta)^-b step every exponent by integers,
    not only the lead, and none has a smaller s than the lead.
    """
    behaviour = _behaviour(exponents)
    s_eff = -behaviour[0][0].real
    if s_eff <= 1.0 + 1e-9:
        raise NonConvergentError(f"outermost decay exponent {s_eff:.6g} <= 1; series diverges")
    cand: dict[tuple[complex, int], None] = {}
    for e, t in behaviour:
        for j in range(_EXTRAPOLATION_TERMS):
            s = complex(-e + j)
            s = _exponent(complex(round(s.real, 9), round(s.imag, 9)))
            for tt in range(t, -1, -1):
                cand.setdefault((s, tt), None)
    return tuple(sorted(cand, key=lambda st: (st[0].real, -st[1], st[0].imag)))


# ---------------------------------------------------------------------------
# Weight arrays
# ---------------------------------------------------------------------------


def _int_power(base: np.ndarray, k: int) -> np.ndarray:
    # base^-k for small positive integer k, via reciprocal and multiplies
    inv = 1.0 / base
    if k == 1:
        return inv
    out = inv * inv
    for _ in range(k - 2):
        out *= inv
    return out


# ---------------------------------------------------------------------------
# Streaming evaluation
# ---------------------------------------------------------------------------

_BLOCK = 1 << 13  # the most indices of a later block; the first has _FLOOR at most


def _product_block(alpha: complex, lo: int, hi: int, carry):
    """(alpha)_m / m! at m = lo..hi-1, read-only, in float64 or complex128
    (the last index divides (m + alpha)^-1 by it), and its long double carry
    at hi - 1, given the carry at lo - 1 (None at lo = 0): one cumprod over
    the block, at most _FLOOR indices.  Each step 1 + (alpha - 1) / m is made
    in long double from a float64 quotient: the product is within 9.9e-16
    where float64's is 6.6e-15 off (m = 65,536), and a compensated float64
    log sum is 2.7x slower."""
    d = alpha - 1.0
    is_complex = np.iscomplexobj(d)
    r = np.empty(hi - lo, dtype=np.clongdouble if is_complex else np.longdouble)
    first = 1 if lo == 0 else 0
    r[first:] = d / np.arange(lo + first, hi, dtype=np.float64)
    r[first:] += 1.0
    r[0] = 1.0 if first else r[0] * carry
    np.cumprod(r, out=r)
    out = r.astype(np.complex128 if is_complex else np.float64)
    out.setflags(write=False)
    return out, r[-1]


# the first block of every stream; a check has two bases, (alpha, beta) and (beta,
# alpha); more would hold memory through longer streams
@functools.lru_cache(maxsize=2)
def _shared_product_block(alpha: complex, hi: int):
    # the block at m = 0..hi-1, as the specs of one alpha share it
    return _product_block(alpha, 0, hi, None)


def _times(w: np.ndarray | None, f: np.ndarray, divide: bool = False) -> np.ndarray:
    # w * f, or w / f, in place when w is writable and of the result's dtype
    op = np.divide if divide else np.multiply
    if w is None:
        return op(1.0, f) if divide else f
    return op(w, f, out=w if w.flags.writeable and np.result_type(w, f) == w.dtype else None)


def _running_sum(out: np.ndarray, carry: np.ndarray):
    """Turn the terms x and t in the rows of out into running (hi, lo) sums in
    place, from the pair carry before them: hi_k = fl(hi_{k-1} + x_k), and lo
    sums t and each such add's TwoSum error, as if in twice the precision
    (Ogita, Rump and Oishi, Accurate sum and dot product, 2005).  One pass
    over the block, at most _FLOOR indices, so temporaries stay small."""
    x, t = out
    s = np.concatenate([carry[:1], x])
    np.cumsum(s, out=s)
    a, h = s[:-1], s[1:]  # each hi, and the one before it
    b = h - a
    x -= b
    b -= h
    b += a
    b += x  # (a - (h - b)) + (x - b), the rounding error of h = a + x
    t += b
    t[0] += carry[1]
    np.cumsum(t, out=t)
    x[:] = h


class _Stream:
    """Carries per-level prefix state across blocks of the index range."""

    def __init__(self, spec: NestedSumSpec):
        self.spec = spec
        is_complex = complex(spec.alpha).imag != 0 or complex(spec.beta).imag != 0
        # each level's (hi, lo) prefix at next_m - 1
        self.carries = np.zeros((spec.depth, 2), dtype=np.complex128 if is_complex else np.float64)
        self.ratio = None  # the ratio's carry at next_m - 1
        self.next_m = 0

    def _ratio_block(self, hi: int) -> np.ndarray | None:
        # (alpha)_m / m! at m = next_m..hi-1, or None if no index carries it
        if not any(iw.poch for iw in self.spec.indices):
            return None
        lo, alpha = self.next_m, self.spec.alpha
        r, self.ratio = (_shared_product_block(alpha, hi) if not lo else
                         _product_block(alpha, lo, hi, self.ratio))
        return r

    def _weights_block(self, i: int, x: np.ndarray, r: np.ndarray | None) -> np.ndarray:
        # the weights of index i at m = x, each factor multiplied in as it is
        # made; r is the ratio at x, read-only, as every index shares it
        spec = self.spec
        iw = spec.indices[i]
        w = _int_power(x + spec.alpha, iw.a) if iw.a else None
        if iw.b:
            w = _times(w, _int_power(x + spec.beta, iw.b))
        for _ in range(abs(iw.poch)):
            w = _times(w, r, divide=iw.poch < 0)
        return np.ones(len(x)) if w is None else w

    def run_block(self, hi: int) -> np.ndarray:
        """Advance through indices [next_m, hi); returns the outer prefix at
        each as a (hi, lo) pair, an (hi - next_m, 2) view.  A level's terms
        after the first are its weights times both parts of the prefix below."""
        lo = self.next_m
        m = np.arange(lo, hi, dtype=np.float64)
        spec = self.spec
        r = self._ratio_block(hi)
        # the prefixes at lo - 1, which a strict link shifts in
        carries = self.carries.copy()
        prev = None
        for i in range(spec.depth):
            w = self._weights_block(i, m, r)
            out = np.empty((2, hi - lo), dtype=carries.dtype)
            if i == 0:
                out[0] = w
                out[1] = 0.0
            elif spec.links[i - 1] is Link.STRICT:
                np.multiply(w[1:], prev[:, :-1], out=out[:, 1:])
                np.multiply(w[0], carries[i - 1], out=out[:, 0])
            else:
                np.multiply(w, prev, out=out)
            _running_sum(out, carries[i])
            self.carries[i] = out[:, -1]
            prev = out
        self.next_m = hi
        return out.T


def _validate_params(alpha: complex, beta: complex):
    """The parameter domain of every series here: finite, with Re(alpha), Re(beta) > 0."""
    if not all(cmath.isfinite(x) and x.real > 0 for x in map(complex, (alpha, beta))):
        raise InvalidParamsError(
            f"need finite alpha, beta with Re(alpha) > 0 and Re(beta) > 0, "
            f"got alpha={alpha}, beta={beta}"
        )


def _mgs_qr(a: np.ndarray, drop_tol: float = 1e-14):
    """Modified Gram-Schmidt QR in the precision and dtype of a, with
    column dropping; projections are q_i^H v, so complex a works as well.

    Processes columns left to right, so the factors of every column
    prefix a[:, :k] are available from one pass.  Returns (q, r, kept);
    the columns of q that were dropped stay zero.
    """
    n, k = a.shape
    q = np.zeros((n, k), dtype=a.dtype)
    r = np.zeros((k, k), dtype=a.dtype)
    kept: list[int] = []
    for j in range(k):
        v = a[:, j]
        norm0 = np.sqrt(np.abs(v.conj() @ v))
        for _ in range(2):
            for i in kept:
                proj = q[:, i].conj() @ v
                r[i, j] += proj
                v = v - proj * q[:, i]
        norm = np.sqrt(np.abs(v.conj() @ v))
        if norm0 == 0 or norm < drop_tol * norm0:
            continue
        r[j, j] = norm
        q[:, j] = v / norm
        kept.append(j)
    return q, r, kept


def _rt_solve(r, kept: list[int], g: np.ndarray) -> np.ndarray:
    # solve R^T w = g, unconjugated, over the kept columns (forward
    # substitution); w[j] depends only on columns <= j, so every prefix
    # solves its own prefix
    w = np.zeros(len(g), dtype=r.dtype)
    for idx, j in enumerate(kept):
        acc = g[j]
        for j2 in kept[:idx]:
            acc = acc - r[j2, j] * w[j2]
        w[j] = acc / r[j, j]
    return w


# tail columns kept, 172 marks each; the weight-4 derivative suite uses 571
@functools.lru_cache(maxsize=1024)
def _tail_column(s: complex, t: int) -> np.ndarray:
    # tail_powers_log(s, t) at every mark, read-only, for the designs to slice
    col = tail_powers_log(s, t, _MARKS)
    col.setflags(write=False)
    return col


class _FitDesign(NamedTuple):
    """The part of a tail fit that does not depend on the partial sums."""

    wrow: np.ndarray  # row weights, 1 / |phi_lead|
    q: np.ndarray  # orthonormal factor of the weighted, scaled design
    w: np.ndarray  # extrapolation functional in the basis of q
    sizes: tuple[int, ...]  # basis sizes (in columns) that the fit tries
    amp_norms: tuple[float, ...]  # noise amplification of each size
    lead_last: float  # |phi_lead| at the last mark


# fit designs kept; the weight-4 derivative suite uses 1,033
@functools.lru_cache(maxsize=2048)
def _fit_design(basis: tuple, marks: tuple) -> _FitDesign:
    """Tail functions at the marks, weighted and factored for the fit.

    The marks are consecutive entries of _MARKS.  Each (s, t) is one column,
    complex when s is, so the design is complex exactly when the basis has a
    complex exponent.  The basis is cut at 14 columns and len(marks) - 4,
    and the fit tries each size from 3 up: every :func:`_tail_basis` has 3
    columns or more (the lead exponent and its two integer steps), and every
    window of :func:`evaluate` 19 marks or more (32 ... 2048).
    """
    n = len(marks)
    first = int(np.searchsorted(_MARKS, marks[0]))
    cols = [_tail_column(s, t)[first : first + n] for s, t in basis[: min(n - 4, 14)]]
    sizes = tuple(range(3, len(cols) + 1))
    lead = np.abs(cols[0])
    phi = np.stack(cols, axis=1)
    wrow = 1.0 / np.maximum(lead, np.longdouble(1e-300))
    a_mat = (phi - phi[-1]) * wrow[:, None]
    col_scale = np.max(np.abs(a_mat), axis=0)
    col_scale[col_scale == 0] = 1.0
    q, r, kept = _mgs_qr(a_mat / col_scale)
    w = _rt_solve(r, kept, phi[-1] / col_scale)
    # amp[:, k-1] is the sensitivity of the size-k extrapolation to each row
    amp = np.cumsum(q.conj() * w, axis=1)
    amp_norms = tuple(float(np.sqrt(np.sum(np.abs(amp[:, k - 1] * wrow) ** 2))) for k in sizes)
    for arr in (wrow, q, w):
        arr.setflags(write=False)
    return _FitDesign(wrow, q, w, sizes, amp_norms, float(lead[-1]))


def _tail_fit(
    marks: np.ndarray, sums: np.ndarray, basis: tuple[tuple[complex, int], ...]
) -> tuple[complex, float]:
    """Fit recorded partial sums, one (hi, lo) pair per row, against exact
    tail functions; returns (value, err), err at least 5e-15 of |value| and
    |sums[-1]|, or (nan, inf) when no basis size gives a finite value.

    The model S(M) = S_inf - sum_k c_k phi_k(M) is solved for several
    basis-size prefixes; the size minimizing (in-sample misfit projected
    to the last mark) + (noise amplification of the extrapolation) wins.
    Rows are weighted by the inverse leading tail so the residuals are
    relative misfits.  sums[-1] - sums is hi's differences, exact in long
    double, plus lo's, and the value adds lo[-1].  The solve runs in long
    double: designs reach condition 1.7e15, and a float64 fit streams 3.2%
    more terms on the weight-4 thm11i suite (3.0% by Householder QR).  The
    sums are one right-hand side, real or complex, with complex c_k whenever
    the design or the sums are complex.
    """
    n = len(marks)
    design = _fit_design(tuple(basis), tuple(marks.tolist()))
    wrow, q, w = design.wrow, design.q, design.w

    hi, lo = np.asarray(sums).T
    # tail(M) - tail(last), hi's part exact in long double
    ext = np.clongdouble if np.iscomplexobj(hi) else np.longdouble
    yw = (np.subtract(hi[-1], hi, dtype=ext) + (lo[-1] - lo)) * wrow
    proj = q.conj().T @ yw  # zero rows for dropped columns

    # all sizes at once: column k - 1 of the running projections is the size-k
    # fit; one contiguous residual row per size keeps each mean in 1-D order
    k0 = design.sizes[0] - 1
    resid = yw - np.ascontiguousarray(np.cumsum(q * proj, axis=1)[:, k0:].T)
    values = complex(hi[-1]) + (np.cumsum(w * proj)[k0:] + lo[-1]).astype(np.complex128)
    resid_abs = np.abs(resid)
    err_model = resid_abs[:, n // 2:].max(axis=1).astype(np.float64) * design.lead_last
    # sensitivity of the extrapolated value to per-row noise
    noise_abs = np.sqrt(np.mean((resid_abs / wrow) ** 2, axis=1)).astype(np.float64)
    errs = 3.0 * err_model + 2.0 * (np.array(design.amp_norms) * noise_abs)
    # the least err among the sizes with a finite value, the smallest such size on a tie
    finite = np.isfinite(values)
    if not finite.any():
        return math.nan, math.inf
    i = np.flatnonzero(finite)[np.argmin(errs[finite])]
    value = complex(values[i])
    return value, max(float(errs[i]), 5e-15 * max(abs(value), abs(complex(hi[-1]))))


def evaluate(spec: NestedSumSpec, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Evaluate the nested series to the configured relative tolerance.

    Streams the dynamic program forward to each checkpoint
    n = _N_INITIAL * 2**j <= max_n, recording outer partial sums at
    geometric marks as compensated (hi, lo) pairs, and extrapolates the tail
    at every checkpoint.  The error at n is the larger of the fit's own
    estimate (fit residual + basis-sensitivity) and half the gap to the fit
    at n / 4; the first n where it meets rel_tol ends the stream, or else the
    last does, with the best fit (NaN if none is finite) flagged.  No n below
    _FLOOR can stop it, so one block streams up to _FLOOR (or past the last
    n); later blocks end at each n, _BLOCK = 8,192 at most, so no block
    spans more than _FLOOR indices.  A block whose outer prefix is not
    finite (float64 overflow) ends it at once, with the best fit before that
    block and an infinite error.
    A series that diverges raises NonConvergentError from :func:`_tail_basis`.
    """
    _validate_params(spec.alpha, spec.beta)
    if not spec.indices:  # the empty product
        return EvalResult(1.0, 0.0, 0, True)
    basis = _tail_basis(_exponents(spec))

    checkpoints = [_N_INITIAL]
    while checkpoints[-1] * 2 <= cfg.max_n:
        checkpoints.append(checkpoints[-1] * 2)
    marks = _MARKS[: np.searchsorted(_MARKS, checkpoints[-1], "right")]
    stream = _Stream(spec)
    # the (hi, lo) outer prefix at each mark, NaN at each the stream does not reach
    sums = np.full((len(marks), 2), np.nan, dtype=stream.carries.dtype)

    best = (math.inf, math.nan)  # (err, value)
    values: dict[int, complex] = {}  # the fitted value at each checkpoint
    for n in checkpoints:
        # no name holds a block's prefixes, so they are freed before the next
        # block is built
        while stream.next_m <= n and np.isfinite(stream.carries[-1]).all():
            lo = stream.next_m
            hi = min(lo + _BLOCK, n + 1) if lo else min(_FLOOR, checkpoints[-1] + 1)
            i, j = np.searchsorted(marks, (lo, hi))
            with np.errstate(all="ignore"):
                sums[i:j] = stream.run_block(hi)[marks[i:j] - lo]
        # the last 30 marks <= n; at three per octave none is below n / 1024
        k = np.searchsorted(marks, n, side="right")
        # a block overflowed: the stream stopped before n, or the sum at n is past float64
        if not np.isfinite(sums[k - 1]).all():
            break
        first = max(k - 30, 0)
        value, err = _tail_fit(marks[first:k], sums[first:k], basis)
        values[n] = value
        # a single fit can be biased yet self-consistent; insist on
        # agreement with the fit at a quarter of the terms, which a NaN fit never gives
        partner = values.get(n // 4)
        if partner is not None:
            gap = 0.5 * abs(value - partner)
            err = math.inf if math.isnan(gap) else max(err, gap)
        if err <= best[0]:
            best = (err, value)
        if partner is not None and err <= cfg.rel_tol * max(abs(value), 1e-300):
            return EvalResult(_as_scalar(value, stream), err, n, True)

    err = best[0] if np.isfinite(stream.carries[-1]).all() else math.inf
    return EvalResult(_as_scalar(best[1], stream), err, stream.next_m - 1, False)


def _as_scalar(value: complex, stream: _Stream):
    return complex(value) if np.iscomplexobj(stream.carries) else float(value.real)

