"""Admissible words over {x0, x_half, x1} and their exact combinatorics.

A word is a non-commutative monomial written in composition form as a
sequence of (cut, exponent) blocks, where block i stands for the letter
run ``x_cut x0^(exponent-1)``.  The first cut is always 1 and the last
exponent is at least 2; these two constraints make the associated nested
series converge ("admissibility").  The distinguished empty word plays
the role of the unit.

The four weight-raising operators are slot placements: block i offers
s_i slots, r extra exponent units go into the slots, and a block that
takes d_i units does so in C(d_i + s_i - 1, d_i) ways.  With eps_i the
indicator of a cut 1 after block i (eps_p = 1), sigma_b1 has s_i = k_i
and s_p = k_p - 1, sigma_b2 has s_i = k_i throughout, sigma_eps has
s_i = eps_i, and v_y has s_i = k_i - eps_i, which is k_p - 2 last.

Everything in this module is exact: coefficients are `fractions.Fraction`
and all operators are pure functions on immutable values.
"""

from __future__ import annotations

import enum
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union


class WordError(ValueError):
    """Raised for malformed or inadmissible word input."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class Cut(enum.Enum):
    """Separator between adjacent blocks: selects strict vs weak chaining."""

    ONE = "1"
    HALF = "1/2"

    @property
    def eps(self) -> int:
        """Indicator of the strict-type cut: 1 for cut 1, 0 for cut 1/2."""
        return 1 if self is Cut.ONE else 0

    @property
    def letter(self) -> str:
        return "1" if self is Cut.ONE else "h"


_LETTER_TO_CUT = {c.letter: c for c in Cut}
# Middle-letter complement under the dual map: e -> 1 - e.
_COMPLEMENT = {"0": "1", "1": "0", "h": "h"}

_PAIR_RE = re.compile(r"^(1|1/2)\s*:\s*(\d+)$")


@dataclass(frozen=True)
class Word:
    """An admissible word in canonical composition form (immutable, hashable).

    ``pairs``, given as any iterable, is stored as a tuple of (Cut, int)
    blocks; the empty tuple encodes the unit word.  Invariants (checked on
    construction): first cut is ONE, all exponents >= 1, last exponent >= 2.
    """

    pairs: tuple[tuple[Cut, int], ...] = ()

    def __post_init__(self):
        pairs = tuple((c, int(k)) for c, k in self.pairs)
        if pairs:
            if pairs[0][0] is not Cut.ONE:
                raise WordError("first cut must be 1", 0)
            for i, (c, k) in enumerate(pairs):
                if not isinstance(c, Cut):
                    raise WordError(f"invalid cut {c!r}", i)
                if k < 1:
                    raise WordError(f"exponent must be >= 1, got {k}", i)
            if pairs[-1][1] < 2:
                raise WordError(
                    f"last exponent must be >= 2, got {pairs[-1][1]}",
                    len(pairs) - 1,
                )
        object.__setattr__(self, "pairs", pairs)
        # kept, not a field: Cut's Enum.__hash__ runs in Python once per block
        object.__setattr__(self, "_hash", hash(pairs))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from its blocks, so that a worker process, whose string
        # hashes differ, computes its own hash
        return Word, (self.pairs,)

    # -- basic structure ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of blocks p (0 for the empty word)."""
        return len(self.pairs)

    @property
    def weight(self) -> int:
        """Total letter count, the sum of all exponents."""
        return sum(k for _, k in self.pairs)

    @property
    def is_empty(self) -> bool:
        return not self.pairs

    def exponents(self) -> tuple[int, ...]:
        return tuple(k for _, k in self.pairs)

    def inner_cut(self, i: int) -> Cut:
        """Cut c_i sitting between block i and block i+1 (1-based i).

        For i == depth the conventional closing cut is ONE (the series
        definitions append c_p = 1).
        """
        if not 1 <= i <= self.depth:
            raise IndexError(f"cut index {i} out of range 1..{self.depth}")
        if i == self.depth:
            return Cut.ONE
        return self.pairs[i][0]

    # -- conversions ---------------------------------------------------------

    def letters(self) -> str:
        """Letter form over {'1','h','0'}: block (c,k) -> c-letter + '0'*(k-1)."""
        return "".join(c.letter + "0" * (k - 1) for c, k in self.pairs)

    @staticmethod
    def from_letters(text: str) -> "Word":
        """Parse the letter form; inverse of :meth:`letters` on admissible words."""
        if text == "":
            return Word()
        for i, ch in enumerate(text):
            if ch not in ("0", "1", "h"):
                raise WordError(f"invalid letter {ch!r}", i)
        if text[0] == "0":
            raise WordError("word must begin with letter '1'", 0)
        if text[-1] != "0":
            raise WordError("word must end with letter '0'", len(text) - 1)
        pairs = []
        i = 0
        while i < len(text):
            cut = _LETTER_TO_CUT[text[i]]
            j = i + 1
            while j < len(text) and text[j] == "0":
                j += 1
            pairs.append((cut, j - i))
            i = j
        return Word(pairs)

    def __str__(self) -> str:
        if self.is_empty:
            return "(empty)"
        return ",".join(f"{c.value}:{k}" for c, k in self.pairs)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def sort_key(self) -> tuple:
        """Deterministic ordering: by weight, then composition form."""
        return (self.weight, tuple((k, c.value) for c, k in self.pairs))


def parse_word(text: str) -> Word:
    """Parse composition syntax ``cut:k,cut:k,...`` or letter syntax over {1,h,0}.

    Composition example: ``"1:1,1/2:2"``.  Letter example: ``"1h0"``.
    Raises :class:`WordError` with position info on malformed input or
    admissibility violations.
    """
    text = text.strip()
    if not text:
        raise WordError("empty word text", 0)
    if ":" in text:
        pairs = []
        pos = 0
        for chunk in text.split(","):
            m = _PAIR_RE.match(chunk.strip())
            if m is None:
                raise WordError(f"malformed pair {chunk.strip()!r}", pos)
            pairs.append((Cut(m.group(1)), int(m.group(2))))
            pos += len(chunk) + 1
        return Word(pairs)
    return Word.from_letters(text)


def dual(w: Word) -> Word:
    """The dual word: reverse the middle letters and complement each (e -> 1-e).

    An involution on admissible words; the empty word is its own dual.
    """
    if w.is_empty:
        return w
    s = w.letters()
    middle = s[1:-1]
    flipped = "".join(_COMPLEMENT[ch] for ch in reversed(middle))
    return Word.from_letters("1" + flipped + "0")


# ---------------------------------------------------------------------------
# Linear combinations with exact rational coefficients
# ---------------------------------------------------------------------------

CoeffLike = Union[int, Fraction]


class LinComb:
    """Finite formal sum of words with exact `Fraction` coefficients.

    Zero coefficients are never stored.  Supports +.
    Iteration yields (word, coeff) in the canonical word order.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Word, CoeffLike]] = ()):
        acc: dict[Word, Fraction] = {}
        for w, c in terms:
            c = Fraction(c)
            if c:
                acc[w] = acc.get(w, Fraction(0)) + c
                if not acc[w]:
                    del acc[w]
        self._terms = acc

    @staticmethod
    def of(w: Word, coeff: CoeffLike = 1) -> "LinComb":
        return LinComb([(w, coeff)])

    def items(self) -> list[tuple[Word, Fraction]]:
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def __iter__(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "LinComb") -> "LinComb":
        return LinComb([*self._terms.items(), *other._terms.items()])

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "LinComb(0)"
        parts = [f"{c}*[{w}]" for w, c in self.items()]
        return " + ".join(parts)

    def to_json(self) -> list[dict]:
        """Serialize as a list of {coeff_num, coeff_den, word} records."""
        return [
            {"coeff_num": c.numerator, "coeff_den": c.denominator, "word": str(w)}
            for w, c in self.items()
        ]


RVector = tuple[int, ...]


def _check_rvector(r: Sequence[int], depth: int) -> RVector:
    rv = tuple(int(x) for x in r)
    if len(rv) != depth:
        raise ValueError(f"r-vector length {len(rv)} != word depth {depth}")
    if any(x < 0 for x in rv):
        raise ValueError("r-vector entries must be >= 0")
    return rv


# ---------------------------------------------------------------------------
# Weight-raising operators and the monomial families of the derivative expansion
# ---------------------------------------------------------------------------


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of `parts` non-negative integers summing to `total`;
    none for a negative total."""
    if parts < 0:
        raise ValueError("parts must be >= 0")
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _distribute(w: Word, r: int, slots: Sequence[int]) -> LinComb:
    """Place r exponent units into the slots[i] slots of each block i of w;
    each bumped word carries its number of placements, and a block without
    slots stays fixed.  The empty word maps to itself at r = 0, else to 0."""
    if r < 0:
        raise ValueError("r must be >= 0")
    live = [i for i, s in enumerate(slots) if s > 0]
    out = []
    for sub in compositions(r, len(live)):
        incr = [0] * w.depth
        coeff = 1
        for i, d in zip(live, sub):
            incr[i] = d
            coeff *= math.comb(d + slots[i] - 1, d)
        out.append((Word((c, k + d) for (c, k), d in zip(w.pairs, incr)), coeff))
    return LinComb(out)


def sigma_b1(w: Word, r: int) -> LinComb:
    """Binomial operator matching r-fold differentiation of the two-parameter
    series in its second parameter: last-block weight C(k_p + r_p - 2, r_p)."""
    p = w.depth
    return _distribute(w, r, [k - (i == p) for i, k in enumerate(w.exponents(), 1)])


def sigma_b2(w: Word, r: int) -> LinComb:
    """Binomial operator for the one-parameter Hurwitz family: every block,
    including the last, carries weight C(k_i + r_i - 1, r_i)."""
    return _distribute(w, r, w.exponents())


def sigma_eps(w: Word, r: int) -> LinComb:
    """Unit-coefficient operator: distribute r exponent units over the
    effective blocks only (block i < p is effective iff its following cut
    is 1; the last block always is).  Blocks behind a 1/2 cut stay fixed,
    so each monomial appears exactly once.
    """
    return _distribute(w, r, [w.inner_cut(i).eps for i in range(1, w.depth + 1)])


def v_y_monomials(w: Word, l: int) -> LinComb:
    """Multiset of bumped words from the slot expansion of a word.

    Block i < p exposes k_i - eps(c_i) slots, the last block k_p - 2 slots;
    each assignment of non-negative slot values with total l bumps block
    exponents by the per-block slot sums.  Coefficients count assignments.
    """
    p = w.depth
    eps = [w.inner_cut(i).eps for i in range(1, p + 1)]
    slots = [k - e - (i == p) for i, (k, e) in enumerate(zip(w.exponents(), eps), 1)]
    return _distribute(w, l, slots)


def v_prime_monomials(w: Word, l: int) -> LinComb:
    """Multiset of words obtained by inserting runs of the letter '1' after
    each non-initial block cut of `w`, with run lengths summing to l.

    One copy per ordered run-length tuple; duplicate words accumulate
    multiplicity.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if w.is_empty:
        return LinComb.of(w) if l == 0 else LinComb()
    q = w.depth
    out = []
    for runs in compositions(l, q - 1):
        s = w.pairs[0][0].letter + "0" * (w.pairs[0][1] - 1)
        for (c, k), run in zip(w.pairs[1:], runs):
            s += c.letter + "1" * run + "0" * (k - 1)
        out.append((Word.from_letters(s), 1))
    return LinComb(out)


# ---------------------------------------------------------------------------
# Word enumeration
# ---------------------------------------------------------------------------


def words_of_weight(weight: int, depth_max: int | None = None) -> list[Word]:
    """All admissible words of the given weight, in canonical order.

    There are 3^(weight-2) of them for weight >= 2: the middle letters are
    free over the three-letter alphabet.
    """
    if weight < 2:
        return []
    out = []
    for middle in itertools.product("01h", repeat=weight - 2):
        w = Word.from_letters("1" + "".join(middle) + "0")
        if depth_max is None or w.depth <= depth_max:
            out.append(w)
    return sorted(out, key=Word.sort_key)


def words_up_to_weight(weight_max: int, depth_max: int | None = None) -> list[Word]:
    out = []
    for wt in range(2, weight_max + 1):
        out.extend(words_of_weight(wt, depth_max))
    return out

