"""Evaluate words under the four parametrized series families.

The two-parameter family Z and its r-augmented extension Zstar carry the
Pochhammer ratio (alpha)_m / m! in the first parameter slot, to the power
+1 on the first index and -1 on the last; the one-parameter Hurwitz
family zeta and its extension Hstar shift every index by alpha.
Parameter convention: the FIRST slot of :class:`Params` always feeds the
Pochhammer ratio and the SECOND the index weights (m + beta)^-k, and every
spec puts them in ``spec.alpha`` and ``spec.beta`` in that order; the
theorems that relate Z(a, b) to a starred value at (b, a) swap the pair
before the call.  Z is the starred family at r = 0, so both compile
through one function.

Each family compiles a word (plus r-vector, for the starred families)
into one flat :class:`~mzdual.nested_sum.NestedSumSpec`, so a single
kernel serves all four: it hands its main-index weights and the length
of the auxiliary chain before each main index to one splicer, ``_chain``.
The (indices, links) structure is memoized per family on the word and
r-vector, so a spec at a new point is one validated spec of a structure
already built.  ``FAMILIES`` has one row per family: its compiler,
and whether it reads the r-vector and the second slot.  ``family_spec``
is the one compile entry, that row's compile, and ``eval_family`` adds one
cached kernel evaluation of the spec alone (a suite streams its specs
together instead); the empty word compiles to the empty spec, which
the kernel evaluates to 1 after checking the parameters.  ``compile_terms``
compiles a combination of them, and ``eval_terms`` adds up its values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .nested_sum import (
    EvalConfig,
    EvalResult,
    IndexWeight,
    Link,
    NestedSumSpec,
    evaluate,
)
from .words import Cut, Word, _check_rvector


@dataclass(frozen=True)
class Params:
    """Ordered parameter pair (slot 1, slot 2); slot 1 feeds the Pochhammer
    ratio.  beta defaults to alpha (the one-argument shorthand)."""

    alpha: complex
    beta: complex | None = None

    def __post_init__(self):
        if self.beta is None:
            object.__setattr__(self, "beta", self.alpha)

    def swapped(self) -> "Params":
        return Params(self.beta, self.alpha)


def _link(cut: Cut, star: bool = False) -> Link:
    # a cut's inequality: strict for cut 1, weak for 1/2; star flips it
    return Link.STRICT if (cut is Cut.ONE) != star else Link.WEAK


def _chain(w: Word, chains: Sequence[int], mains: Sequence[IndexWeight]) -> tuple[tuple, tuple]:
    """The (indices, links) of main indices weighted mains[i], each preceded
    by a chain of chains[i] auxiliary indices weighted (M+alpha)^-1.

    Main index i (or its chain) is entered by the plain inequality of cut
    c_{i-1}; a chain links weakly inside and closes into main index i by
    the star-flipped inequality of cut c_i (the closing cut of the word
    is 1).  A first chain opens the sum, weakly anchored at 0.
    """
    idx, links = [], []
    for i, (n, main) in enumerate(zip(chains, mains)):
        if i > 0:
            links.append(_link(w.inner_cut(i)))
        if n:
            links += [Link.WEAK] * (n - 1) + [_link(w.inner_cut(i + 1), star=True)]
            idx += [IndexWeight(a=1)] * n
        idx.append(main)
    return tuple(idx), tuple(links)


def z_spec(w: Word, p: Params) -> NestedSumSpec:
    """Kernel spec for the two-parameter evaluation of an admissible word."""
    return zstar_spec(w, (0,) * w.depth, p)


def zstar_spec(w: Word, r: Sequence[int], p: Params) -> NestedSumSpec:
    """Kernel spec for the r-augmented starred family.

    The first slot alpha is the Pochhammer base: (alpha)_m / m! on the
    first index (poch = 1) and m! / (alpha)_{m+1} = (m+alpha)^-1 over it
    on the last (poch = -1, one more power in a), so depth 1 telescopes
    to poch = 0; r_1 is the power (m+alpha)^-r_1 on the first index.
    Main index i carries (m+beta)^-k_i with beta the SECOND slot, and the
    last one (m+beta)^-(k_q - 1): with m! / (alpha)_{m+1} this is the
    paper's last factor m! (m+beta) / (alpha)_{m+1} (m+beta)^-k_q.  For
    i >= 2 a chain of r_i auxiliary indices comes before main index i;
    at r = 0 there are no chains and the spec is Z's.
    """
    return NestedSumSpec(*_zstar(w, _check_rvector(r, w.depth)), alpha=p.alpha, beta=p.beta)


# each family's structure, its (indices, links), of a word and r-vector, shared by every
# point: thm11i at weight 4 compiles 1,377 specs of 120 structures
@functools.lru_cache(maxsize=8192)
def _zstar(w: Word, rv: tuple[int, ...]) -> tuple[tuple, tuple]:
    q = w.depth
    mains = []
    for i, k in enumerate(w.exponents()):
        first, last = int(i == 0), int(i == q - 1)
        mains.append(IndexWeight(a=rv[0] * first + last, b=k - last, poch=first - last))
    return _chain(w, (0, *rv[1:]), mains)


def hurwitz_spec(w: Word, alpha: complex) -> NestedSumSpec:
    """Kernel spec for the one-parameter Hurwitz family."""
    return NestedSumSpec(*_hurwitz(w), alpha=alpha, beta=1.0)


@functools.lru_cache(maxsize=8192)
def _hurwitz(w: Word) -> tuple[tuple, tuple]:
    return _chain(w, (0,) * w.depth, [IndexWeight(a=k) for k in w.exponents()])


def hstar_spec(w: Word, r: Sequence[int], alpha: complex) -> NestedSumSpec:
    """Kernel spec for the r-augmented Hurwitz-dual family.

    Main index i carries (m+1)^-k_i, and the last one (m+1)^-(k_q - 1)
    times m! / (alpha)_{m+1} = (m+alpha)^-1 ((alpha)_m / m!)^-1, which is
    the paper's last factor (m+1)! / (alpha)_{m+1} (m+1)^-k_q; a chain of
    r_i auxiliary indices comes before every main index i = 1..q.
    """
    return NestedSumSpec(*_hstar(w, _check_rvector(r, w.depth)), alpha=alpha, beta=1.0)


@functools.lru_cache(maxsize=8192)
def _hstar(w: Word, rv: tuple[int, ...]) -> tuple[tuple, tuple]:
    ks = w.exponents()
    last = [IndexWeight(a=1, b=k - 1, poch=-1) for k in ks[-1:]]
    return _chain(w, rv, [IndexWeight(b=k) for k in ks[:-1]] + last)


# ---------------------------------------------------------------------------
# Cached kernel dispatch
# ---------------------------------------------------------------------------


# the values of compute and eval_family, eval_terms: a suite streams its specs together
# (nested_sum.first_states) and evaluates each once, through no memo
@functools.lru_cache(maxsize=262144)
def _evaluate_cached(spec: NestedSumSpec, cfg: EvalConfig) -> EvalResult:
    return evaluate(spec, cfg)


def eval_spec(spec: NestedSumSpec, cfg: EvalConfig) -> EvalResult:
    """Evaluate one kernel spec alone, memoized (specs and configs are
    immutable, so repeated computes share work); suites do not call it."""
    return _evaluate_cached(spec, cfg)


def sum_results(terms: Iterable[tuple[complex, EvalResult]]) -> EvalResult:
    """The sum of coeff * result over (coeff, result) pairs, coeff real or complex.

    Error estimates add up weighted by |coeff|; the sum is converged only
    if every term is.  It comes back real when every coeff and value is
    real (a real NaN stays a real NaN, where (c, 0) * (nan, 0) would put
    NaN in the imaginary part) or the complex total's imaginary part is 0.
    """
    total, err, n_used, converged, real = 0j, 0.0, 0, True, True
    for c, res in terms:
        z = complex(res.value)
        total += c * z
        err += abs(c) * res.err_estimate
        n_used = max(n_used, res.n_used)
        converged = converged and res.converged
        real = real and not (z.imag or complex(c).imag)
    value = total.real if real or total.imag == 0 else total
    return EvalResult(value, err, n_used, converged)


class SeriesFamily(NamedTuple):
    """A row of :data:`FAMILIES`: the spec of (word, r-vector, Params), and
    whether the family reads the r-vector and the second slot of Params."""

    spec: Callable[[Word, Sequence[int], Params], NestedSumSpec]
    reads_r: bool
    reads_beta: bool


# each compiler is looked up when a spec is built, so one replaced after import sees every call
FAMILIES = {
    "Z": SeriesFamily(lambda w, r, p: z_spec(w, p), reads_r=False, reads_beta=True),
    "Zstar": SeriesFamily(lambda w, r, p: zstar_spec(w, r, p), reads_r=True, reads_beta=True),
    "zeta": SeriesFamily(lambda w, r, p: hurwitz_spec(w, p.alpha), reads_r=False, reads_beta=False),
    "Hstar": SeriesFamily(lambda w, r, p: hstar_spec(w, r, p.alpha), reads_r=True, reads_beta=False),
}


def family_spec(family: str, w: Word, r: Sequence[int], p: Params) -> NestedSumSpec:
    """One family's spec at p; a family ignores the r-vector or p.beta if
    its row does not read it."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FAMILIES[family].spec(w, r, p)


def eval_family(family: str, w: Word, r: Sequence[int], p: Params,
                cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """One family's series at p: the value of :func:`family_spec`; the empty word gives 1."""
    return eval_spec(family_spec(family, w, r, p), cfg)


def compile_terms(terms: Iterable[tuple], p: Params) -> list[tuple[float, NestedSumSpec]]:
    """The (coeff, spec) pairs of (coeff, family, word, r, swapped) terms, at p or at
    (b, a) when swapped; exact coefficients become floats only here, term by term."""
    return [(float(c), family_spec(family, w, r, p.swapped() if swapped else p))
            for c, family, w, r, swapped in terms]


def eval_terms(terms: Iterable[tuple], p: Params, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """The :func:`sum_results` of coeff times value over :func:`compile_terms`, in order."""
    return sum_results((c, eval_spec(spec, cfg)) for c, spec in compile_terms(terms, p))
