"""Numerical kernel for nested multiple series.

A :class:`NestedSumSpec` describes one nested sum: a chain of integer
indices ``0 <= m_1 (< or <=) m_2 ... m_D < inf``, a per-index weight
``(m + alpha)^-a (m + beta)^-b ((alpha)_m / m!)^poch``, and the
strict/weak relation linking consecutive indices.

Evaluation streams the first N terms, innermost index first: level 1
accumulates prefix sums of its weighted terms, and each subsequent level
multiplies its own weight by the prefix of the previous level (shifted by
one for a strict link, so no term at m = 0), in blocks of at most _BLOCK =
8,192 indices that end where a state is read.  Every running sum is a
compensated (hi, lo) pair of float64 or complex128 on every platform.  The
Pochhammer ratio r(m) = (alpha)_m / m! is a running product in long double;
m! / (alpha)_{m+1} is (m + alpha)^-1 / r.  A suite's relations hold at every
point, so :func:`first_states` streams its specs as structures times points:
a trie of prefixes, whose root builds the ratio once per point and each of
whose nodes streams its level once, as one (points x indices) block of at
most _STACK elements.  A lone spec is a chain of one-point nodes.

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

Plans per key set, numbers per group.  A level's plan (which coefficients,
by what factors, make each key of its terms and of F) is a pure function of
the key sets it reads, alpha - 1, K, N and g, not of beta or of any sum, so
the points of a structure share it, in an LRU memo of 4,096 plans like its
neighbours'.  A node's points fall into groups of one alpha, K and key set
per level; a group's levels are (points x keys) arrays of gathers,
multiplies and adds (np.add.reduceat), and one _tail_fit fits it.  Every
output is byte-identical to one per spec, in any order and any stack.
"""

from __future__ import annotations

import cmath
import enum
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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

    __hash__ = object.__hash__  # a member's identity, not Enum.__hash__ of its name in Python


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
        object.__setattr__(self, "_hash", hash((self.a, self.b, self.poch)))  # kept, not a field

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return IndexWeight, (self.a, self.b, self.poch)


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
        # kept, not a field, and rebuilt by a worker process, whose Link hashes (ids) differ
        object.__setattr__(self, "_hash", hash((self.indices, self.links, self.alpha, self.beta)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return NestedSumSpec, (self.indices, self.links, self.alpha, self.beta)

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
_STACK = 1 << 14  # the most points times indices of a stacked block


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
    """(alpha)_m / m! at m = lo..hi-1, read-only, in float64 or complex128,
    and the same in long double, whose last entry is the carry at hi - 1,
    given the carry at lo - 1 (None at lo = 0): one cumprod over the block.
    Each step 1 + (alpha - 1) / m is made in long double from a float64
    quotient: the product is within 9.9e-16 where float64's is 6.6e-15 off
    (m = 65,536), and a compensated float64 log sum is 2.7x slower."""
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
    return out, r


def _times(w: np.ndarray | None, f: np.ndarray, divide: bool = False) -> np.ndarray:
    # w * f, or w / f, in place when w is writable and of the result's dtype
    op = np.divide if divide else np.multiply
    if w is None:
        return op(1.0, f) if divide else f
    return op(w, f, out=w if w.flags.writeable and np.result_type(w, f) == w.dtype else None)


def _running_sum(out: np.ndarray, carry: np.ndarray):
    """Turn the terms x and t in out[0] and out[1], a row per point, into
    running (hi, lo) sums in place, from each point's pair carry before them:
    hi_k = fl(hi_{k-1} + x_k), and lo sums t and each such add's TwoSum error,
    as if in twice the precision (Ogita, Rump and Oishi, Accurate sum and dot
    product, 2005).  One pass over the block, so temporaries stay small."""
    x, t = out
    s = np.concatenate([carry[0][:, None], x], axis=1)
    np.cumsum(s, axis=1, out=s)
    a, h = s[:, :-1], s[:, 1:]  # each hi, and the one before it
    b = h - a
    x -= b
    b -= h
    b += a
    b += x  # (a - (h - b)) + (x - b), the rounding error of h = a + x
    t += b
    t[:, 0] += carry[1]
    np.cumsum(t, axis=1, out=t)
    x[:] = h


class _Stream:
    """A trie node: the levels of the indices of ``spec`` (a prefix, at the
    first point) past those of ``below``, streamed at each (alpha, beta) of
    ``points``, of one dtype; ``below``'s rows ``rows`` (None: all) are these
    points.  A node without one streams the ratio first, if ``poch``.  A run
    of prefixes that no spec ends inside, at the same points, is one node:
    ``_Stream(spec)`` streams one spec at its point."""

    def __init__(self, spec: NestedSumSpec, points=None, below=None, rows=None, poch=None):
        self.spec, self.points, self.below, self.rows = spec, points or [(spec.alpha, spec.beta)], below, rows
        self.poch = any(iw.poch for iw in spec.indices) if poch is None else poch
        self.first = below.spec.depth if below else 0  # the first level streamed here
        if below is not None and rows is None:  # the points of the node below
            self.alpha, self.beta, self.scalar = below.alpha, below.beta, below.scalar
        else:
            self.alpha, self.beta = (np.array(x)[:, None] for x in zip(*self.points))
            self.scalar = complex if np.iscomplexobj(self.alpha) or np.iscomplexobj(self.beta) else float
        # each level's (hi, lo) prefix at each point at next_m - 1; the last level's before the
        # last block, and its pairs and the ratio there; each point's prefixes and the ratio at
        # the last block's marks and end
        self.carries = np.zeros((spec.depth - self.first, 2, len(self.points)), dtype=self.scalar)
        self.next_m, self.before, self.out, self.r, self.marked, self.ratios = 0, None, None, None, None, None
        self.ratio = [None] * len(self.points)  # at the root, each point's ratio carry
        self.held, self.group = None, None  # the state at n / 2 and each point's group (see read)

    def resume(self, n: int, state: tuple) -> _Stream:
        """This lone spec's stream, set to go on from its state at index n and fit at 2n."""
        (sums, ratio), self.next_m = state, n + 1
        self.carries, self.ratio = np.array(sums, self.scalar)[:, :, None], [ratio]
        self.held = np.array([sums], self.scalar), None if ratio is None else np.array([ratio]), np.array([True])
        return self

    def _gather(self, a: np.ndarray | None, axis: int = 0) -> np.ndarray | None:
        # the rows of a node below's array that are these points, read-only
        if a is not None and self.rows is not None:
            (a := a.take(self.rows, axis)).setflags(write=False)
        return a

    def _weights_block(self, i: int, m: np.ndarray, r: np.ndarray | None) -> np.ndarray:
        # the weights of index i at m, a row per point, each factor multiplied
        # in as it is made; r is the ratio there, read-only
        iw = self.spec.indices[i]
        w = _int_power(m + self.alpha, iw.a) if iw.a else None
        if iw.b:
            w = _times(w, _int_power(m + self.beta, iw.b))
        for _ in range(abs(iw.poch)):
            w = _times(w, r, divide=iw.poch < 0)
        return np.ones((len(self.points), len(m))) if w is None else w

    def run_block(self, hi: int, marks: tuple = ()) -> np.ndarray:
        """Advance through indices [next_m, hi), the node below already there;
        returns the last level's (hi, lo) prefix at each index and point, an
        (hi - next_m, points, 2) view (no level: the ratio), and keeps each
        point's prefixes of every level up to the last, and the ratio, at the
        marks (indices in the block) and at hi - 1.  A level's terms after the
        first are its weights times both parts of the prefix below."""
        below, lo = self.below, self.next_m
        cols = [k - lo for k in (*marks, hi - 1)]
        self.next_m, marked = hi, [np.empty((len(self.points), len(cols), 0, 2))]
        if below is not None:  # the ratio, the prefix below and the marks, at these points
            self.r, self.ratios, marked[0] = (self._gather(a) for a in (below.r, below.ratios, below.marked))
            self.out, self.before = self._gather(below.out, 1), self._gather(below.before, 1)
        elif self.poch:  # the ratio, one product per point
            r, exact = zip(*(_product_block(a, lo, hi, c) for (a, _), c in zip(self.points, self.ratio)))
            self.ratio, self.r = [e[-1] for e in exact], np.array(r)
            self.ratios = np.array([e.take(cols) for e in exact])
            self.r.setflags(write=False)
        m = np.arange(lo, hi, dtype=np.float64)
        for i in range(self.first, self.spec.depth):
            w = self._weights_block(i, m, self.r)
            out = np.empty((2, len(self.points), hi - lo), dtype=self.scalar)
            if not i:
                out[0], out[1] = w, 0.0
            elif self.spec.links[i - 1] is Link.STRICT:
                # the prefix below, shifted by one: at lo - 1 first, and none below m = 0
                # (so no term there, even where w(0) overflows)
                np.multiply(w[:, 1:], self.out[:, :, :-1], out=out[:, :, 1:])
                out[:, :, 0] = w[:, 0] * self.before if lo else 0.0
            else:
                np.multiply(w, self.out, out=out)
            carry = self.carries[i - self.first]
            _running_sum(out, carry)
            self.before, carry[...], self.out = carry.copy(), out[:, :, -1], out
            marked.append(out.take(cols, 2).transpose(1, 2, 0)[:, :, None])
        self.marked = np.concatenate(marked, axis=2)
        if self.spec.depth:
            return self.out.T
        return np.empty((hi - lo, 0)) if self.r is None else self.r.T

    def read(self, reach: list, n: int, kids: bool, tops: bool) -> tuple[list | None, dict | None]:
        """If ``tops``, each point's state at the block's marks ``reach`` (see
        _states) and, once reach holds n, each finite point's (value, err)
        there, against its state at n / 2 (held until then).  The points fall
        into groups of one alpha, K and key set per level; a group's levels are
        expanded once, from its rows of a group below, its last one only if
        ``kids`` read it (``group``: each point's K, level and row), and one
        _tail_fit fits the group."""
        # a spec with no ratio in its weights has none in its state
        ratios = self.ratios if any(iw.poch for iw in self.spec.indices) else None
        finite = np.isfinite(self.marked).all(axis=(2, 3)) & np.isfinite(1.0 if ratios is None else ratios)
        listed = [[None] * len(reach)] * len(finite) if ratios is None else [list(r) for r in ratios]
        states = [[(tuple(map(tuple, sums)), ratio) if ok else None for sums, ok, ratio in zip(*point)]
                  for point in zip(self.marked.tolist(), finite.tolist(), listed)] if tops else None
        at = {k: (self.marked[:, j], None if ratios is None else ratios[:, j], finite[:, j])
              for j, k in enumerate(reach)}
        half = at.get(n // 2, self.held)
        self.held = None if n in at else half  # so a node's block goes once it is read
        if n not in at or half is None or not self.spec.depth:
            return states, None
        (sums, ratios, ok), (half_sums, half_ratios, half_ok) = at[n], half
        below = self.below.group if self.below is not None and self.below.spec.depth else None
        up = range(len(self.points)) if self.rows is None else self.rows.tolist()  # each point's row below
        groups, fits, self.group = {}, {}, {}
        # whether each level's weights or those below read the ratio
        reads = [any(iw.poch for iw in self.spec.indices[:i + 1]) for i in range(self.spec.depth)]
        for r in np.flatnonzero(ok & half_ok).tolist():
            a, b = self.points[r]
            k, level, j = below[up[r]] if below else (_order(max(abs(a), abs(b)), n), None, r)
            weights = [_weight(iw, a, b, k) for iw in self.spec.indices[self.first:]]
            key = (id(level), a, k, *[keys for keys, _ in weights])
            groups.setdefault(key, (level, []))[1].append((r, j, weights))
        for (_, a, k, *_), (level, got) in groups.items():
            rows, take, weights = map(list, zip(*got))
            at_n, at_half = sums.take(rows, 0), half_sums.take(rows, 0)
            ratio, half_ratio = (None, None) if ratios is None else (ratios[rows[0]], half_ratios[rows[0]])
            if level and len(level[1]) != len(rows):  # the group's rows of the group below, in order
                level = level[0], level[1].take(take, 0), level[2].take(take, 0)
            for i, w in enumerate(zip(*weights), self.first):
                strict = i > 0 and self.spec.links[i - 1] is Link.STRICT
                if tops and i == self.spec.depth - 1:
                    fit = _tail_fit(self.spec, [self.points[r] for r in rows], n, w, level, (at_n, ratio),
                                    (at_half, half_ratio))
                    fits.update(zip(rows, zip(*fit)))
                if kids or i < self.spec.depth - 1:
                    level = _expand(a, k, n, w, level, strict, at_n[:, i], ratio if reads[i] else None, False)
            self.group.update((r, (k, level, j)) for j, r in enumerate(rows))
        return states, fits

    def states(self, *ns: int) -> tuple[list, tuple | None]:
        """The first point's state at each index of ns and its fit at the last: see _states."""
        (_, got, fit), = _states([self], [(self, 0)], ns)
        return got, fit


def _states(nodes: list, tops: list, ns: tuple) -> Iterator[tuple[int, list, tuple | None]]:
    """Each top's (node, row) position in tops, its state at each index of ns
    (ascending, none behind the stream) and its (value, err) at the last, or
    None (see _Stream.read): each level's prefix there as a (hi, lo) pair of
    Python numbers and the ratio in long double (None without one), or None if
    a level sum or the ratio there is not finite, and after such a None.
    Streams the nodes (a trie, depth first, each block dropped once the nodes
    above have read it) to the last of ns, never back, in blocks of at most
    _BLOCK indices, each ending after the furthest of ns it reaches; a top's
    states come as soon as its node has read the last of them, or a None, so
    that few are held at once, and once every top has a None, no further
    block is streamed."""
    at = tops[0][0].next_m
    if ns[0] < at:
        raise ValueError(f"the stream is past index {ns[0]}: it is at {at - 1}")
    got, reads, kids = [[] for _ in tops], {}, {node.below for node in nodes}  # got[k] is None once yielded
    for k, (node, _) in enumerate(tops):
        reads.setdefault(node, []).append(k)
    while at <= ns[-1] and any(g is not None and None not in g for g in got):
        reach = [k for k in ns if at <= k < at + _BLOCK]
        at, path = reach[-1] + 1 if reach else at + _BLOCK, []
        for node in nodes:
            while path and path[-1] is not node.below:
                done = path.pop()
                done.out = done.r = done.marked = done.ratios = done.group = None
            with np.errstate(all="ignore"):
                node.run_block(at, tuple(reach[:-1]))
                states, fits = node.read(reach, ns[-1], node in kids, node in reads) if reach else (None, None)
            path.append(node)
            for k in reads[node] if states else ():
                if (g := got[k]) is not None:
                    g += states[tops[k][1]] if None not in g else [None] * len(reach)
                if g is not None and (len(g) == len(ns) or None in g):
                    got[k] = None
                    yield k, g + [None] * (len(ns) - len(g)), fits and fits.get(tops[k][1])
    yield from ((k, g + [None] * (len(ns) - len(g)), None) for k, g in enumerate(got) if g is not None)


def _trie(specs: list) -> tuple[list, list]:
    """The nodes, depth first (prefixes sorted level by level), of the trie of
    the specs' prefixes, each at every point of a spec that has it, and each
    spec's (node, row).  A prefix is the last level of its node if a spec ends
    there or it has other than one extension at the same points, so one spec
    is one node."""
    if len(specs) == 1:
        return [top := _Stream(specs[0])], [(top, 0)]
    points = list(dict.fromkeys((s.alpha, s.beta) for s in specs))
    row = {p: i for i, p in enumerate(points)}
    ends: dict = {}  # each structure's specs
    for i, s in enumerate(specs):
        ends.setdefault((s.indices, s.links), []).append(i)
    levels: dict = {((), ()): set(row.values())}  # each prefix's points, as rows of the root's
    for (indices, links), ids in ends.items():
        rows = {row[specs[i].alpha, specs[i].beta] for i in ids}
        for j in range(1, len(indices) + 1):
            levels.setdefault((indices[:j], links[:j - 1]), set()).update(rows)
    kids: dict = {}
    for key in levels:
        if key[0]:
            kids.setdefault((key[0][:-1], key[1][:-1]), []).append(key)
    poch, made, below = any(iw.poch for indices, _ in ends for iw in indices), {}, {((), ()): (None, None)}
    order = {k: [(w.a, w.b, w.poch, x.value) for w, x in zip(k[0], (Link.WEAK, *k[1]))] for k in levels}
    for key in sorted(levels, key=order.get):
        kid = kids.get(key, [])
        node, up = below[key]
        if key in ends or len(kid) != 1 or levels[kid[0]] != levels[key]:
            rows = sorted(levels[key])
            take = None if node is None or len(rows) == len(up) else np.searchsorted(up, rows)
            spec = NestedSumSpec(*key, *points[rows[0]])
            node, up = made[key] = _Stream(spec, [points[r] for r in rows], node, take, poch), rows
        below.update(dict.fromkeys(kid, (node, up)))
    tops = [None] * len(specs)
    for key, ids in ends.items():
        for i in ids:
            tops[i] = made[key][0], made[key][1].index(row[specs[i].alpha, specs[i].beta])
    return [node for node, _ in made.values()], tops


def _validate_params(alpha: complex, beta: complex):
    """The parameter domain of every series here: finite, with Re(alpha), Re(beta) > 0."""
    if not all(cmath.isfinite(x) and x.real > 0 for x in map(complex, (alpha, beta))):
        raise InvalidParamsError(f"need finite alpha, beta with Re(alpha) > 0 and Re(beta) > 0, "
                                 f"got alpha={alpha}, beta={beta}")


# ---------------------------------------------------------------------------
# Asymptotic expansions: keys (n, k, t) stand for m^(n + k (alpha - 1)) log^t m
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
def _weight(iw: IndexWeight, alpha: complex, beta: complex, orders: int) -> tuple[tuple, np.ndarray]:
    """The expansion of one index weight, its first ``orders`` orders: its
    keys, those of the nonzero coefficients, and the coefficients."""
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
    coeffs = np.array([c for c in series if c])
    coeffs.setflags(write=False)
    return tuple((-iw.a - iw.b - j, iw.poch, 0) for j, c in enumerate(series) if c), coeffs


def _python(x):
    # a long double scalar as a Python number, out of float64's range as 0 or inf
    return complex(x) if isinstance(x, (complex, np.complexfloating)) else float(x)


# one per parameter, order and state read; each evaluation reads its ratio at N and N / 2
@functools.lru_cache(maxsize=1024)
def _scale(alpha: complex, orders: int, n: int, ratio):
    # g n^(alpha - 1) = r(n) / exp(sum_j c_j n^-j), from the streamed ratio r(n), in long double
    if ratio is None:
        return None
    series = sum(c * n ** -j for j, c in enumerate(_pochhammer_log(alpha, orders), 1))
    return ratio / np.exp(type(ratio)(series if np.iscomplexobj(ratio) else series.real))


# one per key set, N and scale: an outermost level reads two, at N and N / 2
@functools.lru_cache(maxsize=4096)
def _basis(keys: tuple, n: int, scale) -> np.ndarray:
    """m^n log^t m (g m^(alpha - 1))^k at m = n for each key (n, k, t) of an expansion;
    scale is g n^(alpha - 1) in long double, None when no key has k != 0."""
    log_n = math.log(n)
    powers = {k: _python(scale**k) for k in {k for _, k, _ in keys} if k}
    out = np.array([n**e * log_n**t * powers.get(k, 1.0) for e, k, t in keys])
    out.setflags(write=False)
    return out


def _lead_decay(spec: NestedSumSpec) -> float:
    """Re of the exponent e of the outermost terms' lead m^e: each prefix grows
    like m^(e+1) for its terms' lead e > -1, and stays bounded (but for logs) else."""
    prefix, d = 0.0, complex(spec.alpha).real - 1.0
    for iw in spec.indices:
        lead = prefix - iw.a - iw.b + iw.poch * d
        prefix = max(lead + 1.0, 0.0)
    return lead


class _Plan(NamedTuple):
    """The symbolic half of one level's expansion: which coefficients of the weight and
    of the prefix below make each term, and which terms, by what factor, each key of F.
    Per point a level gathers them, multiplies and adds up each key's (np.add.reduceat)."""

    keys: tuple  # F's; an inner level's prefix appends C at (0, 0, 0)
    term_keys: tuple
    placed: np.ndarray | None  # for a strict link, where each term below joins the prefix below
    size: int  # the prefix below's size, with the keys of the terms below that it lacks
    pairs: np.ndarray | None  # each term's (weight, prefix below) pairs: weight indices, then prefix's
    pair_starts: np.ndarray | None
    index: np.ndarray  # each key of F's term indices and factors
    factor: np.ndarray
    starts: np.ndarray
    omitted: np.ndarray | None  # the outermost level's keys of the last order kept


def _flat(groups: dict) -> tuple[list, np.ndarray]:
    # the groups' entries in key order, and where each group starts
    starts = np.fromiter(itertools.accumulate(map(len, groups.values()), initial=0), np.intp, len(groups))
    return list(itertools.chain.from_iterable(groups.values())), starts


# plans kept, as beta is not in their keys: thm11i at weight 4 builds 222 for 528
# level expansions, and all at weight 5 builds 1,206
@functools.lru_cache(maxsize=4096)
def _plan(key: tuple) -> _Plan:
    """The plan of a level, from all that it reads, its key: its weight's
    keys, the (keys, term keys) of the level below (None at the first index),
    whether the link is strict, alpha - 1, K, N, g and outer."""
    w_keys, below, strict, d, orders, n, g, outer = key
    d_re = d.real
    terms, placed, size, pairs, pair_starts = w_keys, None, 0, None, None
    if below is not None:
        keys, below_terms = below[0] + ((0, 0, 0),), below[1]
        if strict:  # P(m - 1) = P(m) - T(m): the terms below join the prefix below
            position = {k: i for i, k in enumerate(keys)}
            for k in below_terms:
                position.setdefault(k, len(position))
            keys = tuple(position)
            placed = np.fromiter(map(position.get, below_terms), np.intp, len(below_terms))
        size = len(keys)
        w_re = [wn + wk * d_re for wn, wk, _ in w_keys]
        b_re = [bn + bk * d_re for bn, bk, _ in keys]
        cut = max(w_re) + max(b_re) - orders + 1e-9
        groups: dict = {}
        for wi, ((wn, wk, _), wr) in enumerate(zip(w_keys, w_re)):
            for bi, ((bn, bk, bt), br) in enumerate(zip(keys, b_re)):
                if wr + br > cut:
                    groups.setdefault((wn + bn, wk + bk, bt), []).append(wi * size + bi)
        flat, pair_starts = _flat(groups)
        terms, pairs = tuple(groups), np.array(np.divmod(flat, size), dtype=np.intp)
    # the Euler-Maclaurin summatory function of the terms, without its constant:
    # sum_{j<=m} T(j) = C + F(m), each term of F whose exponent's real part exceeds
    # cut; g = 1 / Gamma(alpha), for resonant terms
    cut = max(0.0, max(tn + k * d_re for tn, k, _ in terms) + 1.0) - orders + 1e-9
    log_n = math.log(n)
    out: dict = {}
    for i, (tn, k, t) in enumerate(terms):
        e = tn + k * d
        re = tn + k * d_re
        delta = e + 1.0
        if not outer and abs(delta) < _RESONANCE:
            # m^e log^t m = m^-1 sum_j delta^j log^(t+j) m / j!, integrated term by term
            j, f, size_j = 0, g**k if k else 1.0, 1.0
            while size_j > 1e-20 or j == 0:
                out.setdefault((0, 0, t + j + 1), []).append((i, f / (t + j + 1)))
                j += 1
                f = f * delta / j
                size_j *= abs(delta) * (log_n + 1.0) / j
        elif re + 1.0 > cut:
            # int m^e log^t m = m^(e+1) sum_j (-1)^j t!/(t-j)! log^(t-j) m / (e+1)^(j+1)
            f = 1.0 / delta
            for j in range(t + 1):
                out.setdefault((tn + 1, k, t - j), []).append((i, f))
                f = -f * (t - j) / delta
        if re <= cut:
            continue
        out.setdefault((tn, k, t), []).append((i, 0.5))
        # derivatives: m^e sum_s v[s] log^s m -> m^(e-1) sum_s (e v[s] + (s+1) v[s+1]) log^s m
        v = [0.0] * t + [1.0]
        r = 1
        while re - r > cut:
            v = [e * v[s] + (s + 1) * v[s + 1] for s in range(t)] + [e * v[t]]
            e -= 1.0
            if r in _EM:
                for s, vs in enumerate(v):
                    out.setdefault((tn - r, k, s), []).append((i, _EM[r] * vs))
            r += 1
    out.pop((0, 0, 0), None)  # a constant is C's
    flat, starts = _flat(out)
    index, factor = zip(*flat) if flat else ((), ())
    omitted = np.array([e + k * d_re <= 1.0 - orders + 1e-9 for e, k, _ in out], dtype=bool) if outer else None
    plan = _Plan(tuple(out), terms, placed, size, pairs, pair_starts,
                 np.array(index, dtype=np.intp), np.array(factor), starts, omitted)
    for a in plan:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return plan


def _expand(alpha: complex, orders: int, n: int, weights: list, below: tuple | None, strict: bool,
            sums: np.ndarray | None, ratio, outer: bool) -> tuple[_Plan, np.ndarray, np.ndarray]:
    """(plan, P, T): a level's plan and the coefficients of its prefix (C last
    but at the outermost level) and of its terms, a row per point of a group
    (see _Stream.read) at N = n, from each point's _weight, the level below's
    (plan, P, T) (None at the first index), and the level's (hi, lo) sums and
    the ratio (None if no weight up to here reads it) at n.  The outermost level
    integrates every term in closed form, so that F vanishes at infinity."""
    w_keys, terms = weights[0][0], np.array([w for _, w in weights])
    # g is read by inner resonant terms alone
    scale = None if outer else _scale(alpha, orders, n, ratio)
    g = None if scale is None else _python(scale * type(scale)(n) ** -(alpha - 1.0))
    plan = _plan((w_keys, below and (below[0].keys, below[0].term_keys), strict, alpha - 1.0, orders, n, g, outer))
    if below is not None:
        _, p, t = below
        if plan.placed is not None:  # P has T's dtype or a wider one
            p = np.concatenate((p, np.zeros((len(p), plan.size - p.shape[1]), p.dtype)), axis=1)
            p[:, plan.placed] -= t
        product = terms.take(plan.pairs[0], 1) * p.take(plan.pairs[1], 1)
        terms = np.add.reduceat(product, plan.pair_starts, axis=1)
    prefix = np.add.reduceat(terms.take(plan.index, 1) * plan.factor, plan.starts, axis=1)
    if not outer:
        hi, lo = sums.T
        c = (hi - np.add.reduce(prefix * _basis(plan.keys, n, scale), 1)) + lo
        prefix = np.concatenate((prefix, c[:, None]), 1)
    return plan, prefix, terms


def _tail_fit(spec: NestedSumSpec, points: list, n: int, weights: list, below: tuple | None,
              full: tuple, half: tuple) -> tuple[list, list]:
    """The values and errors at a group of points (see _Stream.read) from the
    _weight of their outermost index, the level below and their states at
    N = n and n / 2 (each level's (hi, lo) sums, a row per point, and the
    ratio): C_D from the expansions at n, and the error |C_D(n) - C_D(n/2)|
    + the last order kept + eps times the terms' sizes for each rounding in a
    streamed term + for each power of the ratio twice its drift
    |R(n) / (2^(alpha-1) R(n/2)) - 1|, as R = g m^(alpha-1) is constant."""
    (alpha, beta), (sums, ratio), (half_sums, half_ratio) = points[0], full, half
    orders, strict = _order(max(abs(alpha), abs(beta)), n), below is not None and spec.links[-1] is Link.STRICT
    plan, prefix, _ = _expand(alpha, orders, n, weights, below, strict, None, None, True)
    half_n = n // 2
    scale, half_scale = _scale(alpha, orders, n, ratio), _scale(alpha, orders, half_n, half_ratio)
    terms = prefix * _basis(plan.keys, n, scale)
    sizes = np.abs(terms)
    # each point's sums and the expansion at n and at n / 2, the sizes of its terms and of those of the
    # last order kept at n, in Python numbers, as one spec's
    rows = zip(sums[:, -1].tolist(), half_sums[:, -1].tolist(), np.add.reduce(terms, 1).tolist(),
               np.add.reduce(prefix * _basis(plan.keys, half_n, half_scale), 1).tolist(),
               np.add.reduce(sizes, 1).tolist(), np.add.reduce(sizes.compress(plan.omitted, 1), 1).tolist())
    drift = 0.0 if scale is None else float(abs(scale / half_scale / type(scale)(2.0) ** (alpha - 1.0) - 1.0))
    powers = sum(abs(iw.poch) for iw in spec.indices)
    # a streamed term's weights make at most 2 (a + b) + |poch| + 2 roundings of eps / 2 per level
    rounding = _EPS * (1 + sum(iw.a + iw.b for iw in spec.indices) + powers + spec.depth) + 2.0 * drift * powers
    values, errs = [], []
    for (hi, lo), (half_hi, half_lo), tail, tail_half, size, omitted in rows:
        value = (hi - tail) + lo
        err = abs(value - ((half_hi - tail_half) + half_lo)) + omitted + rounding * (abs(hi) + size)
        values.append(value)
        errs.append(err if math.isfinite(err) else math.inf)
    return values, errs


def first_states(specs: list, cfg: EvalConfig) -> Iterator[tuple[int, tuple | None]]:
    """Each spec's position, and its first N, stream states at N / 2 and N and
    (value, err) at N, None if a state is (None for the empty spec), as soon as
    its node has read and fitted them: the specs of one first N and dtype, at
    most _STACK // min(N + 1, _BLOCK) points a stack, make a trie, each of whose
    nodes fits its points by group (see _Stream.read).
    N is the least power of two from 1,024 with (max(|alpha|, |beta|) / N)^K
    <= 1e-17 at the most orders K, or the last one within max_n.  Parameters
    out of the domain raise InvalidParamsError."""
    groups: dict = {}  # each point's specs, by first N and dtype
    at_point: dict = {}
    for i, spec in enumerate(specs):
        if not spec.indices:
            yield i, None
            continue
        if (point := (spec.alpha, spec.beta)) not in at_point:
            _validate_params(*point)
            n, x = _N_START, max(abs(complex(spec.alpha)), abs(complex(spec.beta)))
            while (x / n) ** _ORDERS[-1] > _TRUNCATION and 2 * n <= cfg.max_n:
                n *= 2
            key = (n, isinstance(spec.alpha, complex), isinstance(spec.beta, complex))
            at_point[point] = groups.setdefault(key, {}).setdefault(point, [])
        at_point[point].append(i)
    for (n, *_), at in groups.items():  # stacks of points in one order, however the specs come
        points = sorted(at, key=lambda p: [(z.real, z.imag) for z in map(complex, p)])
        size = max(1, _STACK // min(n + 1, _BLOCK))
        for lo in range(0, len(points), size):
            ids = [i for p in points[lo:lo + size] for i in at[p]]
            for k, got, fit in _states(*_trie([specs[i] for i in ids]), (n // 2, n)):
                yield ids[k], (n, *got, fit)


def evaluate(spec: NestedSumSpec, cfg: EvalConfig = EvalConfig(),
             states: tuple | None = None) -> EvalResult:
    """Evaluate the nested series to the configured relative tolerance.

    Takes the value and its error at the first N, 1,024 or more for large
    parameters: ``states`` is (N, the states at N / 2 and N, the fit there) as
    :func:`first_states` yields it, which streams the spec alone when it is
    None.  N doubles, a stream of one point resumed from the state at the last
    and fitted (:func:`_tail_fit`) against it, while the error exceeds rel_tol
    |value| and 2N <= max_n, and the best value is flagged unconverged if it
    never meets it.  A stream whose level sums (float64) or ratio (long double)
    at N / 2 or N are not finite ends there, unconverged, with an infinite
    error and the value at N / 2 if the stream is finite there and at N / 4 (a
    fresh stream), NaN otherwise.  A series whose outermost terms decay like
    m^-1 or slower raises NonConvergentError.
    """
    _validate_params(spec.alpha, spec.beta)
    if not spec.indices:  # the empty product
        return EvalResult(1.0, 0.0, 0, True)
    decay = -_lead_decay(spec)
    if decay <= 1.0 + 1e-9:
        raise NonConvergentError(f"outermost decay exponent {decay:.6g} <= 1; series diverges")
    scalar = complex if complex(spec.alpha).imag or complex(spec.beta).imag else float
    n, half, full, fit = states or dict(first_states([spec], cfg))[0]
    best = (math.inf, math.nan)  # best: (err, value)
    while fit:
        value, err = fit
        if err <= best[0]:
            best = (err, value)
        if err <= cfg.rel_tol * abs(value):
            return EvalResult(scalar(value), err, n, True)
        if 2 * n > cfg.max_n:
            return EvalResult(scalar(best[1]), best[0], n, False)
        n, half = 2 * n, full
        (full,), fit = _Stream(spec).resume(n // 2, half).states(n)
    # overflow at n / 2 or n, no value yet: the one at n / 2, from a fresh stream to n / 2
    fit = math.isnan(best[1]) and half and n // 4 >= _N_START // 2 and _Stream(spec).states(n // 4, n // 2)[1]
    if fit:
        best = (math.inf, fit[0])
    return EvalResult(scalar(best[1]), math.inf, n if half else n // 2, False)
