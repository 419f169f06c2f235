"""Evaluate words under the four parametrized series families.

The two-parameter family ``eval_Z`` and its r-augmented extension
``eval_Zstar`` carry Pochhammer-ratio prefactors in the first parameter
slot; the one-parameter Hurwitz family ``eval_hurwitz`` and its extension
``eval_Hstar`` shift every index by alpha.  Parameter convention: the
FIRST slot of :class:`Params` always feeds the Pochhammer prefactors (for
the starred family the theorems pass the pair reversed, and this module
keeps that textual order).

Each family compiles a word (plus r-vector, for the starred families)
into one flat :class:`~mzdual.nested_sum.NestedSumSpec`: auxiliary chain
indices are interleaved with the main indices so a single kernel serves
all four families.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Sequence

from .nested_sum import (
    EvalConfig,
    EvalResult,
    IndexWeight,
    Link,
    NestedSumSpec,
    Prefactor,
    _validate_params,
    evaluate,
)
from .words import Cut, LinComb, Word, _check_rvector


@dataclass(frozen=True)
class Params:
    """Ordered parameter pair (slot 1, slot 2); slot 1 feeds the Pochhammer
    prefactors.  beta defaults to alpha (the one-argument shorthand)."""

    alpha: complex
    beta: complex | None = None

    def __post_init__(self):
        if self.beta is None:
            object.__setattr__(self, "beta", self.alpha)
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if isinstance(v, complex) and v.imag == 0:
                object.__setattr__(self, name, v.real)

    def validate(self):
        _validate_params(self.alpha, self.beta)

    def swapped(self) -> "Params":
        return Params(self.beta, self.alpha)


def _strict(cut: Cut) -> Link:
    # the plain inequality attached to a cut: strict for cut 1, weak for 1/2
    return Link.STRICT if cut is Cut.ONE else Link.WEAK


def _strict_star(cut: Cut) -> Link:
    # the star-flipped inequality: weak for cut 1, strict for 1/2
    return Link.WEAK if cut is Cut.ONE else Link.STRICT


def z_spec(w: Word, p: Params) -> NestedSumSpec:
    """Kernel spec for the two-parameter evaluation of an admissible word."""
    depth = w.depth
    ks = w.exponents()
    idx = []
    for i in range(depth):
        b = ks[i] if i < depth - 1 else ks[i] - 1
        pfs = []
        if i == 0:
            pfs.append(Prefactor.POCH_FIRST)
        if i == depth - 1:
            pfs.append(Prefactor.POCH_LAST)
        idx.append(IndexWeight(a=0, b=b, prefactors=tuple(pfs)))
    links = tuple(_strict(w.inner_cut(i)) for i in range(1, depth))
    return NestedSumSpec(tuple(idx), links, alpha=p.alpha, beta=p.beta)


def zstar_spec(w: Word, r: Sequence[int], p: Params) -> NestedSumSpec:
    """Kernel spec for the r-augmented starred family.

    Main index i carries (m+alpha)^-k_i with alpha the SECOND slot; the
    first slot feeds the Pochhammer prefactors, the r_1 extra powers on
    the first index, and the auxiliary chain weights.  For i >= 2, r_i
    auxiliary indices are spliced between main indices i-1 and i:
    entered by the plain cut inequality, chained weakly, and closed by
    the star-flipped cut inequality (the closing cut of the word is 1).
    """
    rv = _check_rvector(r, w.depth)
    poch, main = p.alpha, p.beta  # paper order: (poch base, weight base)
    q = w.depth
    ks = w.exponents()
    idx: list[IndexWeight] = []
    links: list[Link] = []
    for i in range(q):
        if i > 0:
            enter = _strict(w.inner_cut(i))
            close = _strict_star(w.inner_cut(i + 1))
            if rv[i] == 0:
                links.append(enter)
            else:
                links.append(enter)
                for j in range(rv[i] - 1):
                    links.append(Link.WEAK)
                links.append(close)
                idx.extend(IndexWeight(a=0, b=1) for _ in range(rv[i]))
        pfs = []
        if i == 0:
            pfs.append(Prefactor.POCH_FIRST_ZSTAR)
        if i == q - 1:
            pfs.append(Prefactor.POCH_LAST_ZSTAR)
        b_extra = rv[0] if i == 0 else 0
        idx.append(IndexWeight(a=ks[i], b=b_extra, prefactors=tuple(pfs)))
    return NestedSumSpec(tuple(idx), tuple(links), alpha=main, beta=poch)


def hurwitz_spec(w: Word, alpha: complex) -> NestedSumSpec:
    """Kernel spec for the one-parameter Hurwitz family."""
    depth = w.depth
    idx = tuple(IndexWeight(a=k) for k in w.exponents())
    links = tuple(_strict(w.inner_cut(i)) for i in range(1, depth))
    return NestedSumSpec(idx, links, alpha=alpha, beta=1.0)


def hstar_spec(w: Word, r: Sequence[int], alpha: complex) -> NestedSumSpec:
    """Kernel spec for the r-augmented Hurwitz-dual family.

    Main index i carries (m+1)^-k_i; every block i = 1..q owns a chain
    of r_i auxiliary indices weighted (M+alpha)^-1.  The first chain
    starts weakly at 0; chain i closes into main index i by the
    star-flipped cut inequality (closing cut 1 for the last block).
    """
    rv = _check_rvector(r, w.depth)
    q = w.depth
    ks = w.exponents()
    idx: list[IndexWeight] = []
    links: list[Link] = []
    for i in range(q):
        enter = Link.WEAK if i == 0 else _strict(w.inner_cut(i))
        close = _strict_star(w.inner_cut(i + 1))
        if rv[i] == 0:
            if i > 0:
                links.append(enter)
        else:
            if i > 0:
                links.append(enter)
            # else: chain 1 opens the whole sum, weakly anchored at 0
            for _ in range(rv[i] - 1):
                links.append(Link.WEAK)
            idx.extend(IndexWeight(a=1) for _ in range(rv[i]))
            links.append(close)
        pfs = (Prefactor.POCH_LAST_HSTAR,) if i == q - 1 else ()
        idx.append(IndexWeight(a=0, b=ks[i], prefactors=pfs))
    return NestedSumSpec(tuple(idx), tuple(links), alpha=alpha, beta=1.0)


# ---------------------------------------------------------------------------
# Cached kernel dispatch
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=262144)
def _evaluate_cached(spec: NestedSumSpec, cfg: EvalConfig) -> EvalResult:
    return evaluate(spec, cfg)


def eval_spec(spec: NestedSumSpec, cfg: EvalConfig) -> EvalResult:
    """Evaluate a kernel spec with memoization (specs and configs are
    immutable, so repeated identity checks share work)."""
    return _evaluate_cached(spec, cfg)


def _eval_word(
    w: Word, p: Params, cfg: EvalConfig, compile_spec: Callable[[], NestedSumSpec],
    r: Sequence[int] | None = None,
) -> EvalResult:
    # the parameters are checked for every word; the empty word gives 1 and
    # admits only the empty r-vector, any other word is compiled and evaluated
    p.validate()
    if w.is_empty:
        if r is not None:
            _check_rvector(r, 0)
        return EvalResult(1.0, 0.0, 0, True)
    return eval_spec(compile_spec(), cfg)


def eval_Z(w: Word, p: Params, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Two-parameter series of an admissible word; the empty word gives 1."""
    return _eval_word(w, p, cfg, lambda: z_spec(w, p))


def eval_Zstar(
    w: Word, r: Sequence[int], p: Params, cfg: EvalConfig = EvalConfig()
) -> EvalResult:
    """Starred family with an r-vector of extra first-slot powers.

    With an all-zero r-vector this degenerates exactly to
    ``eval_Z(w, p)`` (the auxiliary chains vanish into the plain cuts).
    """
    return _eval_word(w, p, cfg, lambda: zstar_spec(w, r, p), r)


def eval_hurwitz(w: Word, alpha: complex, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Multiple Hurwitz value of a word: every index shifted by alpha."""
    return _eval_word(w, Params(alpha), cfg, lambda: hurwitz_spec(w, alpha))


def eval_Hstar(
    w: Word, r: Sequence[int], alpha: complex, cfg: EvalConfig = EvalConfig()
) -> EvalResult:
    """Hurwitz-dual family with per-block auxiliary chains."""
    return _eval_word(w, Params(alpha), cfg, lambda: hstar_spec(w, r, alpha), r)


def sum_results(terms: Iterable[tuple[float, EvalResult]]) -> EvalResult:
    """The sum of coeff * result over (coeff, result) pairs.

    Error estimates add up weighted by |coeff|; the sum is converged only
    if every term is, and a complex total with zero imaginary part comes
    back real.
    """
    total, err, n_used, converged = 0j, 0.0, 0, True
    for c, res in terms:
        total += c * complex(res.value)
        err += abs(c) * res.err_estimate
        n_used = max(n_used, res.n_used)
        converged = converged and res.converged
    value = total if total.imag != 0 else total.real
    return EvalResult(value, err, n_used, converged)


Family = Literal["Z", "zeta"]


def eval_lincomb(
    lc: LinComb, family: Family, p: Params, cfg: EvalConfig = EvalConfig()
) -> EvalResult:
    """Linear extension: sum of coeff * eval(word) over a combination.

    Exact rational coefficients are converted to float only here, term by
    term; error estimates add up weighted by |coeff|.
    """
    if family not in ("Z", "zeta"):
        raise ValueError(f"unknown family {family!r}")
    return sum_results(
        (float(coeff), eval_Z(w, p, cfg) if family == "Z" else eval_hurwitz(w, p.alpha, cfg))
        for w, coeff in lc
    )
