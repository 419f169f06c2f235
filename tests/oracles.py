"""Independent oracles and test helpers for the test suite.

The oracles are deliberately written from the series definitions with
plain Python loops (no shared code with the package kernel): a recursive
count of admissible words, full tuple enumeration for small boxes,
prefactor ratios by scalar recurrences, and a local least-squares tail
fit used to push slowly converging oracle sums to their limits, the
iterated-integral quadrature with its whole integrand evaluated at every
point of the tensor rule, and the same integral by Hölder convolution.

The helpers at the end drive the package itself: the kernel's exact
partial sums (its compensated (hi, lo) pairs, rounded to one number), the
parts of linear-combination arithmetic that only the tests need, and the
kernel's running product, in long double, and tail fit, on the same pairs,
written as one cumprod over a whole range and one loop per basis size,
the references that its blockwise and one-pass forms must match byte for
byte.  The kernel's checkpoint schedule is given as the loop and the window
rule that its mark table replaced, and the ends of the blocks that evaluate
streams are listed from that schedule.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from mzdual.nested_sum import (
    _BLOCK,
    _FLOOR,
    NestedSumSpec,
    _N_INITIAL,
    _Stream,
    _fit_design,
)
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
    """The ends of the blocks that evaluate streams when n is its last
    checkpoint: one block to min(_FLOOR, n + 1), then to each checkpoint + 1
    in steps of at most _BLOCK, so that no block spans more than _FLOOR
    indices.  Any other n ends the last block at n + 1."""
    ends = [min(_FLOOR, n + 1)]
    checkpoint = _N_INITIAL
    while ends[-1] <= n:
        while checkpoint < ends[-1]:  # a checkpoint the blocks have passed
            checkpoint *= 2
        ends.append(min(ends[-1] + _BLOCK, min(checkpoint, n) + 1))
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


def tail_fit_per_size(marks: np.ndarray, sums: np.ndarray, basis: tuple):
    """nested_sum._tail_fit with one projection, residual and error per
    basis size, each in its own loop step, on the same (hi, lo) pairs;
    (value, err), or (nan, inf) when no size gives a finite value."""
    n = len(marks)
    design = _fit_design(tuple(basis), tuple(int(m) for m in marks))
    wrow, q, w = design.wrow, design.q, design.w
    hi, lo = np.asarray(sums).T
    ext = np.clongdouble if np.iscomplexobj(hi) else np.longdouble
    yw = ((hi[-1] - hi.astype(ext)) + (lo[-1] - lo)) * wrow
    proj = q.conj().T @ yw
    best = None  # (err, value)
    for k, amp_norm in zip(design.sizes, design.amp_norms):
        resid = yw - q[:, :k] @ proj[:k]
        value = complex(hi[-1]) + complex(w[:k] @ proj[:k] + lo[-1])
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            continue
        resid_abs = np.abs(resid)
        err_model = float(np.max(resid_abs[n // 2:])) * design.lead_last
        err_noise = amp_norm * float(np.sqrt(np.mean((resid_abs / wrow) ** 2)))
        err = 3.0 * err_model + 2.0 * err_noise
        if best is None or err < best[0]:
            best = (err, value)
    if best is None:
        return math.nan, math.inf
    err, value = best
    return value, max(err, 5e-15 * max(abs(value), abs(complex(hi[-1]))))


def marks_loop(limit: int) -> list[int]:
    """The indices round(2^(j/3)) <= limit, j >= 15, where the kernel records
    partial sums, by a loop that skips repeats."""
    marks = []
    j = 15
    while (m := round(2.0 ** (j / 3.0))) <= limit:
        if not marks or m > marks[-1]:
            marks.append(m)
        j += 1
    return marks


def fit_windows(max_n: int) -> list[list[int]]:
    """The marks of each checkpoint's tail fit in an evaluation streamed to
    max_n: the last 30 marks <= n, none below max(32, n // 1024)."""
    checkpoints = [_N_INITIAL]
    while checkpoints[-1] * 2 <= max_n:
        checkpoints.append(checkpoints[-1] * 2)
    marks = np.array(marks_loop(checkpoints[-1]), dtype=np.int64)
    windows = []
    for n in checkpoints:
        k = np.searchsorted(marks, n, side="right")
        first = max(np.searchsorted(marks, max(32, n // 1024)), k - 30)
        windows.append(marks[first:k].tolist())
    return windows


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
# halves are power series that converge like 2^-k.

_HOLDER_TERMS = 96
_COMPLEMENT = {"0": "1", "1": "0", "h": "h"}


def _binomial_series(gamma: complex) -> np.ndarray:
    """The coefficients (-gamma)_k / k! of (1 - t)^gamma."""
    c = np.ones(_HOLDER_TERMS, dtype=np.complex128)
    for k in range(1, _HOLDER_TERMS):
        c[k] = c[k - 1] * (k - 1 - gamma) / k
    return c


def _holder_half(letters: str, first: tuple, last: tuple) -> list:
    """F_j(1/2) for j = 0..n, where F_j(t) integrates letters[:j] over
    0 < t_1 < ... < t_j < t.  The weight t^e (1 - t)^g of `first` goes on
    t_1, and that of `last` on t_n of the whole word only.

    Each F_j is carried as t^e0 * sum_{k<96} c_k t^k.
    """
    e0 = 0.0
    c = np.zeros(_HOLDER_TERMS, dtype=np.complex128)
    c[0] = 1.0
    values = [1.0]
    for j, letter in enumerate(letters):
        for (e, g), on in ((first, j == 0), (last, j == len(letters) - 1)):
            if on:
                e0 += e
                c = np.convolve(c, _binomial_series(g))[:_HOLDER_TERMS]
        if letter == "0":
            e0 -= 1.0
        elif letter == "1":
            c = np.cumsum(c)
        else:  # 1/(t (1 - t)) = 1/t + 1/(1 - t)
            e0 -= 1.0
            c = c + np.concatenate(([0.0], np.cumsum(c)[:-1]))
        c = c / (e0 + np.arange(_HOLDER_TERMS) + 1.0)
        e0 += 1.0
        values.append(0.5**e0 * np.sum(c * 0.5 ** np.arange(_HOLDER_TERMS)))
    return values


def holder_integral(w: Word, alpha: complex, beta: complex, family: str) -> complex:
    """The iterated integral of word w (the series Z(w; alpha, beta), or
    zeta(w; alpha) for family 'zeta') as sum_j A_j B_j: A_j integrates the
    first j letters below 1/2, B_j the rest above it.  B_j is computed in
    u = 1 - t, with the letters reversed and complemented."""
    letters = w.letters()
    n = len(letters)
    if family == "Z":
        t_first, t_last = (beta - 1.0, 1.0 - alpha), (1.0 - beta, alpha - 1.0)
        u_first, u_last = (alpha - 1.0, 1.0 - beta), (1.0 - alpha, beta - 1.0)
    else:
        t_first, t_last = (alpha - 1.0, 0.0), (0.0, 0.0)
        u_first, u_last = (0.0, 0.0), (0.0, alpha - 1.0)
    lower = _holder_half(letters, t_first, t_last)
    upper = _holder_half("".join(_COMPLEMENT[l] for l in reversed(letters)), u_first, u_last)
    return complex(sum(lower[j] * upper[n - j] for j in range(n + 1)))
