"""Independent oracles and test helpers for the test suite.

The oracles are deliberately written from the series definitions with
plain Python loops (no shared code with the package kernel): a recursive
count of admissible words, full tuple enumeration for small boxes,
prefactor ratios by scalar recurrences, and a local least-squares tail
fit used to push slowly converging oracle sums to their limits, the
iterated-integral quadrature with its whole integrand evaluated at every
point of the tensor rule, and the same integral by Hölder convolution in
30-digit mpmath.

The helpers at the end drive the package itself: the kernel's exact
partial sums (its compensated (hi, lo) pairs, rounded to one number), the
parts of linear-combination arithmetic that only the tests need, and the
kernel's running product, in long double, written as one cumprod over a
whole range, the reference that its blockwise form must match byte for
byte.  The ends of the blocks that evaluate streams are listed by a loop.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from mzdual.nested_sum import _BLOCK, NestedSumSpec, _Stream
from mzdual.verifier import _tanh_sinh_nodes
from mzdual.words import Cut, LinComb, Word, parse_word


def count_words_recursive(weight: int) -> int:
    """Independent recursive count of admissible words of a given weight.

    Counts compositions (k_1..k_p) of the weight with k_p >= 2 times
    2^(p-1) cut choices; used to cross-check the enumerator.
    """

    def count(remaining: int, first: bool) -> int:
        # words (possibly continuing) using `remaining` letters, where the
        # next block's cut is fixed (first) or free (2 choices)
        total = 0
        factor = 1 if first else 2
        for k in range(1, remaining + 1):
            if k == remaining:
                if k >= 2:
                    total += factor
            else:
                total += factor * count(remaining - k, False)
        return total

    if weight < 2:
        return 0
    return count(weight, True)


def poch_ratio_first(base: complex, n: int) -> list:
    """table[m] = (base)_m / m! for m = 0..n, by recurrence."""
    out = [1.0 + 0j if isinstance(base, complex) else 1.0]
    for m in range(1, n + 1):
        out.append(out[-1] * (base + m - 1) / m)
    return out


def poch_ratio_last(base: complex, n: int) -> list:
    """table[m] = m! / (base)_{m+1} for m = 0..n."""
    out = [1.0 / base]
    for m in range(1, n + 1):
        out.append(out[-1] * m / (base + m))
    return out


def poch_ratio_last_shifted(base: complex, n: int) -> list:
    """table[m] = (m+1)! / (base)_{m+1} for m = 0..n."""
    out = [1.0 / base]
    for m in range(1, n + 1):
        out.append(out[-1] * (m + 1) / (base + m))
    return out


def _chain_tuples(lo: int, count: int, n: int):
    """All weakly increasing tuples of the given length in [lo, n]."""
    if count == 0:
        yield ()
        return
    for first in range(lo, n + 1):
        for rest in _chain_tuples(first, count - 1, n):
            yield (first,) + rest


def naive_Z(w: Word, alpha: complex, beta: complex, n: int) -> complex:
    """Two-parameter series by direct tuple enumeration over the box [0, n]."""
    p = w.depth
    ks = w.exponents()
    first = poch_ratio_first(alpha, n)
    last = poch_ratio_last(alpha, n)
    total = 0.0

    def rec(i: int, lo: int, acc: complex):
        nonlocal total
        for m in range(lo, n + 1):
            if i < p - 1:
                term = acc / (m + beta) ** ks[i]
                if i == 0:
                    term *= first[m]
                nxt = m + 1 if w.inner_cut(i + 1) is Cut.ONE else m
                rec(i + 1, nxt, term)
            else:
                term = acc * last[m] / (m + beta) ** (ks[i] - 1)
                if i == 0:
                    term *= first[m]
                total += term

    rec(0, 0, 1.0)
    return total


def naive_hurwitz(w: Word, alpha: complex, n: int) -> complex:
    p = w.depth
    ks = w.exponents()
    total = 0.0

    def rec(i: int, lo: int, acc: complex):
        nonlocal total
        for m in range(lo, n + 1):
            term = acc / (m + alpha) ** ks[i]
            if i == p - 1:
                total += term
            else:
                nxt = m + 1 if w.inner_cut(i + 1) is Cut.ONE else m
                rec(i + 1, nxt, term)

    rec(0, 0, 1.0)
    return total


def naive_Zstar(w: Word, r, poch_base: complex, main_base: complex, n: int) -> complex:
    """Starred two-parameter series (auxiliary chains between main indices)."""
    q = w.depth
    ks = w.exponents()
    beta, alpha = poch_base, main_base
    first = poch_ratio_first(beta, n)
    last = poch_ratio_last(beta, n)
    total = 0.0

    def rec(i: int, prev_m: int, acc: complex):
        # place main index i (0-based), preceded by its aux chain for i >= 1
        nonlocal total
        if i == 0:
            for m in range(0, n + 1):
                term = acc * first[m] / ((m + beta) ** r[0] * (m + alpha) ** ks[0])
                finish(0, m, term)
            return
        enter_strict = w.inner_cut(i) is Cut.ONE
        close_strict = w.inner_cut(i + 1) is Cut.HALF  # star-flipped
        if r[i] == 0:
            for m in range(prev_m + (1 if enter_strict else 0), n + 1):
                finish(i, m, acc / (m + alpha) ** ks[i])
            return
        lo = prev_m + (1 if enter_strict else 0)
        for chain in _chain_tuples(lo, r[i], n):
            aux = 1.0
            for mm in chain:
                aux /= mm + beta
            for m in range(chain[-1] + (1 if close_strict else 0), n + 1):
                finish(i, m, acc * aux / (m + alpha) ** ks[i])

    def finish(i: int, m: int, term: complex):
        nonlocal total
        if i == q - 1:
            total += term * last[m] * (m + alpha)
        else:
            rec(i + 1, m, term)

    rec(0, -1, 1.0)
    return total


def naive_Hstar(w: Word, r, alpha: complex, n: int) -> complex:
    """Hurwitz-dual starred series (chains for every block, first from 0)."""
    q = w.depth
    ks = w.exponents()
    last = poch_ratio_last_shifted(alpha, n)
    total = 0.0

    def rec(i: int, prev_m: int, acc: complex):
        nonlocal total
        enter_lo = 0 if i == 0 else prev_m + (1 if w.inner_cut(i) is Cut.ONE else 0)
        close_strict = w.inner_cut(i + 1) is Cut.HALF  # star-flipped
        if r[i] == 0:
            for m in range(enter_lo if i > 0 else 0, n + 1):
                finish(i, m, acc / (m + 1) ** ks[i])
            return
        for chain in _chain_tuples(enter_lo, r[i], n):
            aux = 1.0
            for mm in chain:
                aux /= mm + alpha
            for m in range(chain[-1] + (1 if close_strict else 0), n + 1):
                finish(i, m, acc * aux / (m + 1) ** ks[i])

    def finish(i: int, m: int, term: complex):
        nonlocal total
        if i == q - 1:
            total += term * last[m]
        else:
            rec(i + 1, m, term)

    rec(0, -1, 1.0)
    return total


def fit_limit(ns, vals, s: float, tmax: int = 0) -> float:
    """Extrapolate oracle partial sums with tail ~ N^(1-s) * polylog(log N).

    Small local least squares, independent of the package machinery.
    """
    ns = np.asarray(ns, dtype=np.float64)
    vals = np.asarray(vals, dtype=np.float64)
    cols = [np.ones_like(ns)]
    for t in range(tmax + 1):
        cols.append(ns ** (1.0 - s) * np.log(ns) ** t)
        cols.append(ns ** (-s) * np.log(ns) ** t)
    a = np.column_stack(cols)
    scale = np.abs(a).max(axis=0)
    sol, *_ = np.linalg.lstsq(a / scale, vals, rcond=None)
    return float(sol[0] / scale[0])


_OMEGA = {
    "1": lambda t: 1.0 / (1.0 - t),
    "h": lambda t: 1.0 / (t * (1.0 - t)),
    "0": lambda t: 1.0 / t,
}


def simplex_integral_tensor(
    letters: str, alpha: float, beta: float, family: str, h: float, kmax: int
) -> float:
    """The tanh-sinh tensor rule of `verifier._simplex_integral`, with the
    whole integrand (every letter form, the Jacobian and the endpoint
    powers) evaluated at every point.

    Iterated integral over the ordered simplex, mapped to the cube by
    nested products t_j = u_j * t_{j+1}.
    """
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


def emzv_prefix_sums(ks, cuts, checkpoints) -> list[float]:
    """Partial sums of the extended multiple zeta series at alpha = beta = 1,
    pure-Python prefix accumulation (independent of the numpy kernel).

    cuts[i] is 1 (strict) or 0 (weak) between index i and i+1.
    """
    n = max(checkpoints)
    p = len(ks)
    for i in range(p):
        level = []
        run = 0.0
        for m in range(n + 1):
            if i == 0:
                t = (m + 1.0) ** (-ks[0])
            else:
                if cuts[i - 1] == 1:
                    q = level_prev[m - 1] if m >= 1 else 0.0
                else:
                    q = level_prev[m]
                t = (m + 1.0) ** (-ks[i]) * q
            run += t
            level.append(run)
        level_prev = level
    return [level_prev[c] for c in checkpoints]


def evaluate_block_ends(n: int) -> list[int]:
    """The ends of the blocks that evaluate streams through index n when
    its first N is 1,024: one after each power of two from 512 on, and
    _BLOCK indices apart at most, the last at n + 1.  A larger first N ends
    its first blocks at N / 2 + 1 and N + 1 alone."""
    ends = [min(513, n + 1)]
    while ends[-1] <= n:
        power = 512
        while power + 1 <= ends[-1]:
            power *= 2
        ends.append(min(ends[-1] + _BLOCK, power + 1, n + 1))
    return ends


def truncated_sum(spec: NestedSumSpec, n: int) -> complex:
    """The kernel's exact partial sum with every index <= n, streamed in
    the blocks evaluate uses, its (hi, lo) pair rounded to one number."""
    stream = _Stream(spec)
    for hi in evaluate_block_ends(n):
        last = stream.run_block(hi)[-1]
    total = last[0] + last[1]
    return complex(total) if np.iscomplexobj(total) else float(total)


def product_one_shot(alpha: complex, lo: int, hi: int, carry):
    """The kernel's running product (alpha)_m / m! at m = lo..hi-1 and its
    carry (see nested_sum._product_block), by one cumprod over the whole range,
    which may span many of the blocks evaluate streams, each its own cumprod
    that takes the carry from the one before."""
    d = alpha - 1.0
    is_complex = np.iscomplexobj(d)
    x = np.arange(lo, hi, dtype=np.float64)
    r = np.empty(hi - lo, dtype=np.clongdouble if is_complex else np.longdouble)
    first = 1 if lo == 0 else 0
    r[first:] = d / x[first:]
    r[first:] += 1.0
    r[0] = 1.0 if first else r[0] * carry
    np.cumprod(r, out=r)
    return r.astype(np.complex128 if is_complex else np.float64), r[-1]


def _slot_values(total: int, n: int):
    """Every tuple of n non-negative slot values with sum `total`."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for v in range(total + 1):
        for rest in _slot_values(total - v, n - 1):
            yield (v,) + rest


def slot_placements(w: Word, r: int, slots) -> LinComb:
    """Put r units into individual slots, block i owning slots[i] of them,
    and count the assignments that bump the blocks of w alike."""
    owner = [i for i, s in enumerate(slots) for _ in range(s)]
    counts: dict[tuple, int] = {}
    for values in _slot_values(r, len(owner)):
        incr = [0] * w.depth
        for i, v in zip(owner, values):
            incr[i] += v
        counts[tuple(incr)] = counts.get(tuple(incr), 0) + 1
    return LinComb(
        (Word((c, k + d) for (c, k), d in zip(w.pairs, incr)), n)
        for incr, n in counts.items()
    )


EMPTY_WORD = Word()


def word_cuts(w: Word) -> tuple[Cut, ...]:
    """All block cuts c_0..c_{p-1} of a word; c_0 is always ONE."""
    return tuple(c for c, _ in w.pairs)


def lincomb_coeff(lc: LinComb, w: Word) -> Fraction:
    """The coefficient of one word in a combination (0 if absent)."""
    return dict(lc.items()).get(w, Fraction(0))


def lincomb_from_json(records: Iterable[dict]) -> LinComb:
    """Inverse of :meth:`LinComb.to_json`."""
    return LinComb(
        (parse_word(rec["word"]), Fraction(rec["coeff_num"], rec["coeff_den"]))
        for rec in records
    )


def lincomb_map_words(lc: LinComb, f: Callable[[Word], Word]) -> LinComb:
    """Apply a word map linearly (images may merge)."""
    return LinComb((f(w), c) for w, c in lc)


def lincomb_sub(a: LinComb, b: LinComb) -> LinComb:
    return a + LinComb((w, -c) for w, c in b)


# Hölder convolution (Borwein, Bradley, Broadhurst and Lisoněk, "Special
# values of multiple polylogarithms", Trans. AMS 353 (2001)): the iterated
# integral of `simplex_integral_tensor`, split at t = 1/2 so that both
# halves are power series that converge like 2^-k.  It runs in 30 digits,
# in an mpmath context of its own, so that its error, about 1e-25 of the
# value, is far below the kernel's estimates, which reach 2e-16 of it: in
# float64 the same sums are off by up to 1.2e-15, a rounding per letter.

_HOLDER_TERMS = 96
_COMPLEMENT = {"0": "1", "1": "0", "h": "h"}


@functools.cache
def _holder_context():
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = 30
    return ctx


def _binomial_series(ctx, gamma) -> list:
    """The coefficients (-gamma)_k / k! of (1 - t)^gamma."""
    c = [ctx.mpc(1)]
    for k in range(1, _HOLDER_TERMS):
        c.append(c[-1] * (k - 1 - gamma) / k)
    return c


def _holder_half(ctx, letters: str, first: tuple, last: tuple) -> list:
    """F_j(1/2) for j = 0..n, where F_j(t) integrates letters[:j] over
    0 < t_1 < ... < t_j < t.  The weight t^e (1 - t)^g of `first` goes on
    t_1, and that of `last` on t_n of the whole word only.

    Each F_j is carried as t^e0 * sum_{k<96} c_k t^k.
    """
    e0 = ctx.mpc(0)
    c = [ctx.mpc(1)] + [ctx.mpc(0)] * (_HOLDER_TERMS - 1)
    halves = [ctx.mpf(0.5) ** k for k in range(_HOLDER_TERMS)]
    values = [ctx.mpc(1)]
    for j, letter in enumerate(letters):
        for (e, g), on in ((first, j == 0), (last, j == len(letters) - 1)):
            if on:
                e0 += e
                if g:
                    b = _binomial_series(ctx, g)
                    c = [ctx.fdot(c[: k + 1], b[k::-1]) for k in range(_HOLDER_TERMS)]
        if letter == "0":
            e0 -= 1
        elif letter == "1":
            c = list(itertools.accumulate(c))
        else:  # 1/(t (1 - t)) = 1/t + 1/(1 - t)
            e0 -= 1
            c = [ck + sk for ck, sk in zip(c, [0, *itertools.accumulate(c[:-1])])]
        c = [ck / (e0 + k + 1) for k, ck in enumerate(c)]
        e0 += 1
        values.append(ctx.mpf(0.5) ** e0 * ctx.fdot(c, halves))
    return values


@functools.cache
def holder_integral(w: Word, alpha: complex, beta: complex, family: str):
    """The iterated integral of word w (the series Z(w; alpha, beta), or
    zeta(w; alpha) for family 'zeta') as sum_j A_j B_j: A_j integrates the
    first j letters below 1/2, B_j the rest above it.  B_j is computed in
    u = 1 - t, with the letters reversed and complemented.  The value is a
    30-digit mpmath number: compare with it before rounding to float64."""
    ctx = _holder_context()
    alpha, beta = ctx.mpc(complex(alpha)), ctx.mpc(complex(beta))
    zero = ctx.mpc(0)
    letters = w.letters()
    n = len(letters)
    if family == "Z":
        t_first, t_last = (beta - 1, 1 - alpha), (1 - beta, alpha - 1)
        u_first, u_last = (alpha - 1, 1 - beta), (1 - alpha, beta - 1)
    else:
        t_first, t_last = (alpha - 1, zero), (zero, zero)
        u_first, u_last = (zero, zero), (zero, alpha - 1)
    lower = _holder_half(ctx, letters, t_first, t_last)
    upper = _holder_half(ctx, "".join(_COMPLEMENT[l] for l in reversed(letters)), u_first, u_last)
    return ctx.fsum(lower[j] * upper[n - j] for j in range(n + 1))
