"""Numerical kernel for nested multiple series.

A :class:`NestedSumSpec` describes one nested sum: a chain of integer
indices ``0 <= m_1 (< or <=) m_2 ... m_D < inf``, a per-index weight
``(m + alpha)^-a (m + beta)^-b ((alpha)_m / m!)^poch``, and the
strict/weak relation linking consecutive indices.

Evaluation streams the first N terms, innermost index first: level 1
accumulates prefix sums of its weighted terms, and each subsequent level
multiplies its own weight by the prefix of the previous level (shifted by
one for a strict link).  Work is O(N * depth), vectorized in blocks of at
most _BLOCK = 8,192 indices that end where a state is read.
Every running sum is a compensated (hi, lo) pair of float64 or complex128,
the same on every platform.  The one Pochhammer ratio r(m) = (alpha)_m / m!
= r(m-1) (1 + (alpha - 1) / m) is a running product in long double, built
once per block; m! / (alpha)_{m+1} is (m + alpha)^-1 / r.

The tail past N is exact, not fitted: each level's prefix is
P_i(m) = C_i + F_i(m), where F_i is the asymptotic expansion
sum c m^e log^t m of the nested harmonic-type sum (Vermaseren, IJMPA 14
(1999) 2037; Bluemlein, Comput. Phys. Commun. 159 (2004) 19), here with
Pochhammer weights.  Every exponent is kept exactly as e = n + k (alpha - 1),
under the key (n, k, t).  The weights expand by the binomial series of
(m + x)^-a and by r(m) = g m^(alpha-1) exp(sum_j c_j m^-j), whose c_j are
Bernoulli polynomials at alpha (Tricomi and Erdelyi, Pacific J. Math. 1
(1951)); g m^(alpha-1) is read off the streamed ratio, so no Gamma function
is needed.  A level's terms are T_i = W_i (P_{i-1} - T_{i-1}) for a strict
link, as P(m - 1) = P(m) - T(m), and W_i P_{i-1} for a weak one, and F_i is
their Euler-Maclaurin summatory function.  Near resonance, |e + 1| < 0.02,
an inner level expands m^(e+1) in powers of log m, so the cost and the
rounding stay flat there.  C_i = P_i(N) - F_i(N) comes from the stream,
and the value is C_D.  Its error is |C_D(N) - C_D(N/2)|, plus the last
order kept, plus the rounding: eps times the sum of the terms' sizes for
each rounding in a streamed term, and the ratio's drift from N/2 to N,
which a long double as narrow as float64 makes visible.

N starts at 1,024, and it and the number K of orders kept (6 to 10) grow
with max(|alpha|, |beta|) so that (max / N)^K <= 1e-17.  N doubles while
the error exceeds rel_tol |value|, up to max_n.  The value and error read
the stream's states at N / 2 and N, each once; N's is the next N / 2.
Powers of the ratio are taken in long double, so terms that divide by one
past float64 (r(8192) from alpha ~ 145) are 0; a level sum past float64,
or a ratio past long double, at N / 2 or N ends the evaluation,
unconverged, with the value at N / 2.

Each level's expansion, its constant included, is a pure function of the
parameters, its index prefix and links, N and that prefix's stream values,
and is memoized on them, so specs that share a prefix share its expansion,
and every output is byte-identical to one computed per spec, in any order.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import numbers
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

    def __post_init__(self):
        integral = all(isinstance(x, numbers.Integral) for x in (self.a, self.b, self.poch))
        if not integral or min(self.a, self.b) < 0:
            raise ValueError(f"need integers a, b >= 0 and poch, got {self}")


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
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "links", tuple(self.links))
        if not (all(isinstance(x, IndexWeight) for x in self.indices)
                and all(isinstance(x, Link) for x in self.links)):
            raise ValueError("every index must be an IndexWeight and every link a Link")
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


_N_START = 1024  # the first N of every evaluation with max(|alpha|, |beta|) <= 20
_MAX_N = 2**62
_ORDERS = range(6, 11)  # the orders K kept, the fewest with (max / N)^K <= _TRUNCATION
_TRUNCATION = 1e-17
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class EvalConfig:
    """Precision and truncation policy for :func:`evaluate`: the relative
    tolerance asked for, and the most terms streamed.  N doubles from its
    first value while the error exceeds the tolerance and 2N <= max_n."""

    rel_tol: float = 1e-10
    max_n: int = 10**8

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must be in (0, 1)")
        if not _N_START <= self.max_n <= _MAX_N:
            raise ValueError(f"max_n must be in [{_N_START}, {_MAX_N}]")


class EvalResult(NamedTuple):
    value: complex
    err_estimate: float
    n_used: int
    converged: bool


# ---------------------------------------------------------------------------
# Streaming evaluation
# ---------------------------------------------------------------------------

_BLOCK = 1 << 13  # the most indices of a block


def _int_power(base: np.ndarray, k: int) -> np.ndarray:
    # base^-k for small positive integer k, via reciprocal and multiplies
    inv = 1.0 / base
    if k == 1:
        return inv
    out = inv * inv
    for _ in range(k - 2):
        out *= inv
    return out


def _product_block(alpha: complex, lo: int, hi: int, carry):
    """(alpha)_m / m! at m = lo..hi-1, read-only, in float64 or complex128
    (the last index divides (m + alpha)^-1 by it), and its long double carry
    at hi - 1, given the carry at lo - 1 (None at lo = 0): one cumprod over
    the block, at most _BLOCK indices.  Each step 1 + (alpha - 1) / m is made
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
    over the block, at most _BLOCK indices, so temporaries stay small."""
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
    """Carries per-level prefix state across blocks of the index range; its
    numbers are real or complex (``scalar``) as the parameters are."""

    def __init__(self, spec: NestedSumSpec):
        self.spec = spec
        self.scalar = complex if complex(spec.alpha).imag or complex(spec.beta).imag else float
        # each level's (hi, lo) prefix at next_m - 1
        self.carries = np.zeros((spec.depth, 2), dtype=self.scalar)
        self.ratio = None  # the ratio's carry at next_m - 1
        self.next_m = 0

    def _ratio_block(self, hi: int) -> np.ndarray | None:
        # (alpha)_m / m! at m = next_m..hi-1, or None if no index carries it
        if not any(iw.poch for iw in self.spec.indices):
            return None
        r, self.ratio = _product_block(self.spec.alpha, self.next_m, hi, self.ratio)
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

    def state(self, n: int) -> tuple | None:
        """Stream to index n, never back, in blocks of at most _BLOCK indices:
        the state there is each level's prefix at n as a (hi, lo) pair of
        Python numbers and the ratio in long double (None without one), or
        None if a level sum or the ratio there is not finite."""
        if n < self.next_m - 1:
            raise ValueError(f"the stream is past index {n}: it is at {self.next_m - 1}")
        with np.errstate(all="ignore"):
            while self.next_m <= n:
                self.run_block(min(self.next_m + _BLOCK, n + 1))
        if not np.isfinite(self.carries).all() or (self.ratio is not None and not np.isfinite(self.ratio)):
            return None
        return tuple((self.scalar(hi), self.scalar(lo)) for hi, lo in self.carries), self.ratio


def _validate_params(alpha: complex, beta: complex):
    """The parameter domain of every series here: finite, with Re(alpha), Re(beta) > 0."""
    if not all(cmath.isfinite(x) and x.real > 0 for x in map(complex, (alpha, beta))):
        raise InvalidParamsError(
            f"need finite alpha, beta with Re(alpha) > 0 and Re(beta) > 0, "
            f"got alpha={alpha}, beta={beta}"
        )


# ---------------------------------------------------------------------------
# Asymptotic expansions: {(n, k, t): c} stands for sum c m^(n + k (alpha - 1)) log^t m
# ---------------------------------------------------------------------------


# the Bernoulli numbers B_0 .. B_12, with B_1 = -1/2
_B = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0, -691 / 2730)
# Euler-Maclaurin: sum_{j<=m} f(j) = C + int^m f + f(m) / 2 + sum_r B_{r+1} / (r+1)! f^(r)(m), r odd
_EM = {r: _B[r + 1] / math.factorial(r + 1) for r in range(1, _ORDERS[-1], 2)}
_RESONANCE = 0.02  # |e + 1| below which an inner level expands m^(e+1) in log m


def _order(x: float, n: int) -> int:
    # the fewest orders whose first omitted one, (x / n)^K, is below _TRUNCATION
    return next((k for k in _ORDERS if (x / n) ** k <= _TRUNCATION), _ORDERS[-1])


# one per base and order; the weight-4 derivative suite uses 78
@functools.lru_cache(maxsize=4096)
def _pochhammer_log(alpha: complex, count: int) -> tuple[complex, ...]:
    """c_1 .. c_{count-1} of log((alpha)_m / m!) = log g + (alpha - 1) log m
    + sum_j c_j m^-j: (-1)^(j+1) (B_{j+1}(alpha) - B_{j+1}(1)) / (j (j+1))."""
    def bernoulli_poly(n, x):
        return sum(math.comb(n, j) * _B[j] * x ** (n - j) for j in range(n + 1))

    return tuple((-1) ** (j + 1) * (bernoulli_poly(j + 1, alpha) - bernoulli_poly(j + 1, 1.0)) / (j * (j + 1))
                 for j in range(1, count))


def _series_mul(a: list, b: list) -> list:
    # product of two power series in 1/m, cut at the length of a
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


# index weights kept; the derivative suite, whose circle points are all bases, uses
# 1,944 at weight 4 and 2,907 at weight 5
@functools.lru_cache(maxsize=4096)
def _weight(iw: IndexWeight, alpha: complex, beta: complex, orders: int) -> dict:
    """The expansion of one index weight, its first ``orders`` orders."""
    series = [1.0] + [0.0] * (orders - 1)
    for x, a in ((alpha, iw.a), (beta, iw.b)):
        term, binomial = 1.0, [1.0]  # (1 + x / m)^-a = sum_j C(-a, j) x^j m^-j
        for j in range(1, orders):
            term *= (-a - j + 1) / j * x
            binomial.append(term)
        series = _series_mul(series, binomial)
    if iw.poch:
        c = [0.0] + [iw.poch * cj for cj in _pochhammer_log(alpha, orders)]
        ex = [1.0]  # exp of the series c, term by term
        for j in range(1, orders):
            ex.append(sum(i * c[i] * ex[j - i] for i in range(1, j + 1)) / j)
        series = _series_mul(series, ex)
    return {(-iw.a - iw.b - j, iw.poch, 0): c for j, c in enumerate(series) if c}


def _lead(expansion: dict, d_re: float) -> float:
    # the largest real part of the expansion's exponents
    return max(n + k * d_re for n, k, _ in expansion)


def _summatory(terms: dict, d: complex, cut: float, log_n: float, g, outer: bool) -> dict:
    """The Euler-Maclaurin summatory function of an expansion, without its
    constant: sum_{j<=m} T(j) = C + F(m), each term of F whose exponent's
    real part exceeds cut; g = 1 / Gamma(alpha), for resonant terms."""
    d_re = d.real
    out: dict = {}
    get = out.get
    for (n, k, t), c in terms.items():
        e = n + k * d
        re = n + k * d_re
        delta = e + 1.0
        if not outer and abs(delta) < _RESONANCE:
            # m^e log^t m = m^-1 sum_j delta^j log^(t+j) m / j!, integrated term by term
            j, coef, size = 0, c * g**k if k else c, 1.0
            while size > 1e-20 or j == 0:
                key = (0, 0, t + j + 1)
                out[key] = get(key, 0.0) + coef / (t + j + 1)
                j += 1
                coef = coef * delta / j
                size *= abs(delta) * (log_n + 1.0) / j
        elif re + 1.0 > cut:
            # int m^e log^t m = m^(e+1) sum_j (-1)^j t!/(t-j)! log^(t-j) m / (e+1)^(j+1)
            coef = c / delta
            for j in range(t + 1):
                key = (n + 1, k, t - j)
                out[key] = get(key, 0.0) + coef
                coef = -coef * (t - j) / delta
        if re <= cut:
            continue
        key = (n, k, t)
        out[key] = get(key, 0.0) + 0.5 * c
        # derivatives: m^e sum_s v[s] log^s m -> m^(e-1) sum_s (e v[s] + (s+1) v[s+1]) log^s m
        v = [0.0] * t + [c]
        r = 1
        while re - r > cut:
            v = [e * v[s] + (s + 1) * v[s + 1] for s in range(t)] + [e * v[t]]
            e -= 1.0
            if r in _EM:
                for s, vs in enumerate(v):
                    key = (n - r, k, s)
                    out[key] = get(key, 0.0) + _EM[r] * vs
            r += 1
    out.pop((0, 0, 0), None)  # a constant is C's
    return out


def _python(x):
    # a long double scalar as a Python number, out of float64's range as 0 or inf
    return complex(x) if isinstance(x, (complex, np.complexfloating)) else float(x)


def _at(expansion: dict, m: float, scale) -> tuple[complex, float]:
    """The value of an expansion at m, and the sum of its terms' sizes;
    scale is g m^(alpha - 1) in long double, None when no term has k != 0."""
    log_m = math.log(m)
    total, size = 0.0, 0.0
    powers = {k: _python(scale**k) for k in {k for _, k, _ in expansion} if k}
    for (n, k, t), c in expansion.items():
        v = c * m**n * log_m**t * powers.get(k, 1.0)
        total += v
        size += abs(v)
    return total, size


def _scale(alpha: complex, orders: int, n: int, ratio):
    # g n^(alpha - 1) = r(n) / exp(sum_j c_j n^-j), from the streamed ratio r(n), in long double
    if ratio is None:
        return None
    series = sum(c * n ** -j for j, c in enumerate(_pochhammer_log(alpha, orders), 1))
    return ratio / np.exp(type(ratio)(series if np.iscomplexobj(ratio) else series.real))


def _lead_decay(spec: NestedSumSpec) -> float:
    """Re of the exponent e of the outermost terms' lead m^e: each prefix grows
    like m^(e+1) for its terms' lead e > -1, and stays bounded (but for logs) else."""
    prefix, d = 0.0, complex(spec.alpha).real - 1.0
    for iw in spec.indices:
        lead = prefix - iw.a - iw.b + iw.poch * d
        prefix = max(lead + 1.0, 0.0)
    return lead


def _level(alpha: complex, beta: complex, indices: tuple, links: tuple, n: int,
           sums: tuple, ratio, outer: bool) -> tuple[dict, dict]:
    """(P, T): the expansions of the last level's prefix, its constant C at
    key (0, 0, 0) included, and of its terms, for the prefix ``indices`` at
    N = n, from the stream's prefix sums and ratio at n.  The outermost level
    (outer) integrates every term in closed form, so that F vanishes at
    infinity, and leaves C, the value, to :func:`_tail_fit`."""
    d = alpha - 1.0
    d_re = d.real
    orders = _order(max(abs(alpha), abs(beta)), n)
    terms = _weight(indices[-1], alpha, beta, orders)
    if len(indices) > 1:
        below, below_terms = _inner_level(alpha, beta, indices[:-1], links[:-1], n, sums[:-1], ratio)
        if links[-1] is Link.STRICT:
            below = dict(below)
            for key, c in below_terms.items():
                below[key] = below.get(key, 0.0) - c
        cut = _lead(terms, d_re) + _lead(below, d_re) - orders + 1e-9
        below = [(bn, bk, bt, bn + bk * d_re, bc) for (bn, bk, bt), bc in below.items()]
        product: dict = {}
        get = product.get
        for (wn, wk, _), wc in terms.items():
            w_re = wn + wk * d_re
            for bn, bk, bt, b_re, bc in below:
                if w_re + b_re > cut:
                    key = (wn + bn, wk + bk, bt)
                    product[key] = get(key, 0.0) + wc * bc
        terms = product
    # g is read by inner resonant terms alone
    scale = None if outer else _scale(alpha, orders, n, ratio)
    g = None if scale is None else _python(scale * type(scale)(n) ** -d)
    cut = max(0.0, _lead(terms, d_re) + 1.0) - orders + 1e-9
    prefix = _summatory(terms, d, cut, math.log(n), g, outer)
    if not outer:
        hi, lo = sums[-1]
        prefix[(0, 0, 0)] = (hi - _at(prefix, n, scale)[0]) + lo
    return prefix, terms


# inner levels kept, each shared by every spec that extends its prefix; the outermost
# level of a spec is not kept, as no other spec reads it.  thm11i at weight 4 uses 504.
# The weight-5 derivative suite (720 checks, 56 MB peak RSS) hits 9,558 times and misses
# 4,635, the same with no bound: it evicts no level it reads again
@functools.lru_cache(maxsize=4096)
def _inner_level(alpha: complex, beta: complex, indices: tuple, links: tuple, n: int,
                 sums: tuple, ratio) -> tuple[dict, dict]:
    # every kept expansion holds one key tuple per distinct key
    return tuple({_key(key): c for key, c in expansion.items()}
                 for expansion in _level(alpha, beta, indices, links, n, sums, ratio, False))


_key = functools.cache(lambda key: key)


def _tail_fit(spec: NestedSumSpec, n: int, half: tuple, full: tuple) -> tuple[complex, float]:
    """The value and its error from the stream's state (level prefix sums,
    ratio) at N = n and at n / 2: C_D from the expansions at n, and the error
    |C_D(n) - C_D(n/2)| + the last order kept + eps times the terms' sizes for
    each rounding in a streamed term + for each power of the ratio twice its
    drift |R(n) / (2^(alpha-1) R(n/2)) - 1|, as R = g m^(alpha-1) is constant."""
    alpha, beta = spec.alpha, spec.beta
    orders = _order(max(abs(alpha), abs(beta)), n)
    (sums, ratio), (half_sums, half_ratio) = full, half
    prefix, _ = _level(alpha, beta, spec.indices, spec.links, n, sums, ratio, True)
    d_re = complex(alpha).real - 1.0
    cut = -orders + 1.0 + 1e-9  # the last order kept, relative to the constant
    last = {key: c for key, c in prefix.items() if key[0] + key[1] * d_re <= cut}
    scale, half_scale = _scale(alpha, orders, n, ratio), _scale(alpha, orders, n // 2, half_ratio)
    tail, size = _at(prefix, n, scale)
    tail_half, _ = _at(prefix, n // 2, half_scale)
    (hi, lo), (half_hi, half_lo) = sums[-1], half_sums[-1]
    value = (hi - tail) + lo
    gap = abs(value - ((half_hi - tail_half) + half_lo))
    omitted = _at(last, n, scale)[1]
    drift = 0.0 if scale is None else float(abs(scale / half_scale / type(scale)(2.0) ** (alpha - 1.0) - 1.0))
    powers = sum(abs(iw.poch) for iw in spec.indices)
    # a streamed term's weights make at most 2 (a + b) + |poch| + 2 roundings of eps / 2 per level
    weights = sum(iw.a + iw.b for iw in spec.indices) + powers + spec.depth
    rounding = (_EPS * (1 + weights) + 2.0 * drift * powers) * (abs(sums[-1][0]) + size)
    err = gap + omitted + rounding
    return value, (err if math.isfinite(err) else math.inf)


def evaluate(spec: NestedSumSpec, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Evaluate the nested series to the configured relative tolerance.

    Streams the first N terms, N = 1,024 or more for large parameters, and
    takes the value and its error from :func:`_tail_fit` at N and N / 2,
    each state read once.  N doubles while the error exceeds rel_tol |value|
    and 2N <= max_n, and the best value is flagged unconverged if it never
    meets it.  A stream whose level sums (float64) or ratio (long double) at
    N / 2 or N are not finite ends there, unconverged, with an infinite
    error and the value at N / 2 if the stream is finite there and at N / 4
    (a fresh stream), NaN otherwise.
    A series whose outermost terms decay like m^-1 or slower raises
    NonConvergentError.
    """
    _validate_params(spec.alpha, spec.beta)
    if not spec.indices:  # the empty product
        return EvalResult(1.0, 0.0, 0, True)
    decay = -_lead_decay(spec)
    if decay <= 1.0 + 1e-9:
        raise NonConvergentError(f"outermost decay exponent {decay:.6g} <= 1; series diverges")

    x = max(abs(complex(spec.alpha)), abs(complex(spec.beta)))
    n = _N_START
    while (x / n) ** _ORDERS[-1] > _TRUNCATION and 2 * n <= cfg.max_n:
        n *= 2
    stream = _Stream(spec)
    best = (math.inf, math.nan)  # (err, value)
    half = stream.state(n // 2)
    while half and (full := stream.state(n)):
        value, err = _tail_fit(spec, n, half, full)
        if err <= best[0]:
            best = (err, value)
        if err <= cfg.rel_tol * abs(value):
            return EvalResult(stream.scalar(value), err, n, True)
        if 2 * n > cfg.max_n:
            return EvalResult(stream.scalar(best[1]), best[0], n, False)
        n, half = 2 * n, full
    # overflow at n / 2 or n, no value yet: the one at n / 2, from a fresh stream to n / 4
    if math.isnan(best[1]) and half and n // 4 >= _N_START // 2 and (quarter := _Stream(spec).state(n // 4)):
        best = (math.inf, _tail_fit(spec, n // 2, quarter, half)[0])
    return EvalResult(stream.scalar(best[1]), math.inf, stream.next_m - 1, False)
