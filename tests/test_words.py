import math
import pickle
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import (
    EMPTY_WORD,
    count_words_recursive,
    lincomb_coeff,
    lincomb_from_json,
    lincomb_map_words,
    lincomb_sub,
    slot_placements,
    word_cuts,
)
from mzdual.words import (
    Cut,
    LinComb,
    Word,
    WordError,
    compositions,
    dual,
    parse_word,
    sigma_b1,
    sigma_b2,
    sigma_eps,
    v_prime_monomials,
    v_y_monomials,
    words_of_weight,
    words_up_to_weight,
)


def W(text: str) -> Word:
    return parse_word(text)


# A hypothesis strategy over admissible words: free middle letters.
admissible_words = st.text(alphabet="01h", min_size=0, max_size=8).map(
    lambda mid: Word.from_letters("1" + mid + "0")
)


class TestParsing:
    def test_smallest_admissible(self):
        w = parse_word("1:2")
        assert w.pairs == ((Cut.ONE, 2),)
        assert w.letters() == "10"

    def test_composition_with_half_cut(self):
        w = parse_word("1:1,1/2:2")
        assert w.pairs == ((Cut.ONE, 1), (Cut.HALF, 2))
        assert w.letters() == "1h0"

    def test_letter_syntax(self):
        assert parse_word("1h0") == parse_word("1:1,1/2:2")
        assert parse_word("10") == parse_word("1:2")

    def test_last_exponent_must_be_at_least_two(self):
        with pytest.raises(WordError):
            parse_word("1:1")

    def test_first_cut_must_be_one(self):
        with pytest.raises(WordError):
            parse_word("1/2:2")
        with pytest.raises(WordError):
            Word.from_letters("h0")

    def test_syntax_errors_have_position(self):
        with pytest.raises(WordError) as exc:
            parse_word("1:2,bogus")
        assert exc.value.position is not None
        with pytest.raises(WordError):
            parse_word("1x0")
        with pytest.raises(WordError):
            parse_word("")

    def test_letter_form_must_end_in_zero(self):
        with pytest.raises(WordError):
            Word.from_letters("101")

    def test_later_cut_must_be_a_cut(self):
        with pytest.raises(WordError, match="invalid cut") as exc:
            Word([(Cut.ONE, 1), ("1/2", 2)])
        assert exc.value.position == 1

    @pytest.mark.parametrize("i", [0, 3])
    def test_inner_cut_out_of_range(self, i):
        # the cuts are c_1 .. c_depth, c_depth the closing cut 1
        w = W("1:1,1/2:2")
        assert (w.inner_cut(1), w.inner_cut(2)) == (Cut.HALF, Cut.ONE)
        with pytest.raises(IndexError, match="out of range 1..2"):
            w.inner_cut(i)

    @given(admissible_words)
    def test_round_trip_composition(self, w):
        assert parse_word(str(w)) == w

    @given(admissible_words)
    def test_round_trip_letters(self, w):
        assert Word.from_letters(w.letters()) == w
        assert w.weight == len(w.letters())


class TestDual:
    def test_depth_one_weight_two_self_dual(self):
        assert dual(W("1:2")) == W("1:2")

    def test_weight_three(self):
        # 100 -> 110: the single-block weight-3 word maps to (1,2)
        assert dual(W("1:3")) == W("1:1,1:2")

    def test_half_cut_self_dual(self):
        assert dual(W("1:1,1/2:2")) == W("1:1,1/2:2")

    def test_empty(self):
        assert dual(EMPTY_WORD) == EMPTY_WORD

    def test_involution_and_weight_exhaustive_weight_10(self):
        for wt in range(2, 11):
            for w in words_of_weight(wt):
                d = dual(w)
                assert d.weight == wt
                assert dual(d) == w


class TestCompositions:
    def test_negative_parts_rejected(self):
        with pytest.raises(ValueError):
            list(compositions(1, -1))

    def test_negative_total_yields_nothing(self):
        assert list(compositions(-1, 2)) == []
        assert list(compositions(-1, 0)) == []


class TestEnumeration:
    def test_counts_match_recursion(self):
        for wt in range(2, 9):
            assert len(words_of_weight(wt)) == count_words_recursive(wt)
            assert len(words_of_weight(wt)) == 3 ** (wt - 2)

    def test_up_to_weight_six(self):
        assert len(words_up_to_weight(6)) == 1 + 3 + 9 + 27 + 81

    def test_depth_filter(self):
        assert all(w.depth <= 2 for w in words_up_to_weight(6, depth_max=2))


class TestWordValue:
    def test_assignment_raises(self):
        w = W("1:1,1/2:2")
        with pytest.raises(AttributeError):
            w.pairs = ()

    def test_pickle_round_trip(self):
        w = W("1:1,1/2:2,1:3")
        assert pickle.loads(pickle.dumps(w)) == w

    def test_cached_hash_stays_out_of_pickle_and_fields(self):
        # a worker rebuilds the hash from the blocks, as its string hashes
        # differ; asdict, and so the JSON, sees the blocks alone
        w = W("1:1,1/2:2,1:3")
        assert b"_hash" not in pickle.dumps(w)
        assert hash(pickle.loads(pickle.dumps(w))) == hash(w) == hash(w.pairs)
        assert asdict(w) == {"pairs": w.pairs}

    def test_every_construction_is_one_value(self):
        blocks = [(Cut.ONE, 1), (Cut.HALF, 2)]
        words = [Word(b for b in blocks), Word(blocks), parse_word("1:1,1/2:2"),
                 Word.from_letters("1h0")]
        assert all(w == words[0] and hash(w) == hash(words[0]) for w in words)
        assert len(set(words)) == 1

    def test_not_equal_to_its_pairs(self):
        w = W("1:2")
        assert w != w.pairs and w.pairs == ((Cut.ONE, 2),)


class TestLinComb:
    def test_empty_is_false(self):
        x = LinComb([(W("1:2"), Fraction(1, 3)), (W("1h0"), -2)])
        assert not LinComb() and x
        assert not x + LinComb((w, -c) for w, c in x)

    def test_no_zero_coefficients(self):
        lc = LinComb([(W("1:2"), 1), (W("1:2"), -1)])
        assert len(lc) == 0 and not lc
        two = LinComb([(W("1:2"), 1), (W("1:3"), 2)])
        assert lincomb_sub(two, two) == LinComb()

    def test_exact_arithmetic(self):
        lc = LinComb.of(W("1:2"), Fraction(1, 3)) + LinComb.of(W("1:2"), Fraction(2, 3))
        assert lincomb_coeff(lc, W("1:2")) == 1

    def test_json_round_trip(self):
        lc = LinComb([(W("1:2"), Fraction(3, 7)), (W("1:3"), -2)])
        assert lincomb_from_json(lc.to_json()) == lc

    @given(st.lists(st.tuples(admissible_words, st.integers(-5, 5)), max_size=6))
    def test_addition_matches_dict_accumulation(self, pairs):
        lc = LinComb(pairs)
        expected = {}
        for w, c in pairs:
            expected[w] = expected.get(w, 0) + c
        for w, c in expected.items():
            assert lincomb_coeff(lc, w) == c


class TestSigmaOperators:
    def test_sigma_b1_r0_identity(self):
        assert sigma_b1(W("1:2"), 0) == LinComb.of(W("1:2"))

    def test_sigma_b1_depth_one(self):
        assert sigma_b1(W("1:2"), 1) == LinComb.of(W("1:3"))

    def test_sigma_b1_depth_two(self):
        got = sigma_b1(W("1:1,1:2"), 1)
        assert got == LinComb([(W("1:2,1:2"), 1), (W("1:1,1:3"), 1)])

    def test_sigma_eps_depth_one(self):
        assert sigma_eps(W("1:3"), 1) == LinComb.of(W("1:4"))

    def test_sigma_eps_two_effective_positions(self):
        got = sigma_eps(W("1:1,1:2"), 1)
        assert got == LinComb([(W("1:2,1:2"), 1), (W("1:1,1:3"), 1)])

    def test_sigma_eps_half_cut_blocks_position(self):
        got = sigma_eps(W("1:1,1/2:2"), 2)
        assert got == LinComb.of(W("1:1,1/2:4"))

    def test_sigma_b2_r0_identity(self):
        assert sigma_b2(W("1:2"), 0) == LinComb.of(W("1:2"))

    def test_sigma_b2_depth_one(self):
        assert sigma_b2(W("1:2"), 1) == LinComb.of(W("1:3"), 2)

    def test_sigma_b2_depth_two(self):
        got = sigma_b2(W("1:1,1:2"), 1)
        assert got == LinComb([(W("1:2,1:2"), 1), (W("1:1,1:3"), 2)])

    def test_empty_word_convention(self):
        for op in (sigma_b1, sigma_eps, sigma_b2, v_y_monomials, v_prime_monomials):
            assert op(EMPTY_WORD, 0) == LinComb.of(EMPTY_WORD)
            assert op(EMPTY_WORD, 3) == LinComb()

    @pytest.mark.parametrize(
        "op", [sigma_b1, sigma_eps, sigma_b2, v_y_monomials, v_prime_monomials],
        ids=lambda op: op.__name__,
    )
    @pytest.mark.parametrize("text", ["(empty)", "1:1,1/2:2"])
    def test_negative_r_rejected(self, op, text):
        w = EMPTY_WORD if text == "(empty)" else W(text)
        with pytest.raises(ValueError):
            op(w, -1)

    def test_slot_operators_match_slot_enumeration(self):
        # each operator places r units into individual slots; the rules
        # below give block i its slot count, eps_i is 1 iff the cut after
        # block i is 1, and the closing cut after the last block is 1
        for w in [EMPTY_WORD] + words_up_to_weight(6):
            ks = w.exponents()
            eps = [c.eps for c, _ in w.pairs[1:]] + [1] if ks else []
            last = [i == len(ks) - 1 for i in range(len(ks))]
            rules = {
                sigma_b1: [k - t for k, t in zip(ks, last)],
                sigma_b2: list(ks),
                sigma_eps: eps,
                v_y_monomials: [k - e - t for k, e, t in zip(ks, eps, last)],
            }
            for op, slots in rules.items():
                for r in range(5):
                    assert op(w, r) == slot_placements(w, r, slots), (op.__name__, w, r)

    def test_weight_bookkeeping_exhaustive(self):
        # every term of sigma_r(w) has weight exactly weight(w) + r
        for wt in range(2, 9):
            for w in words_of_weight(wt):
                for r in range(5):
                    for op in (sigma_b1, sigma_eps, sigma_b2):
                        for term, coeff in op(w, r):
                            assert term.weight == wt + r
                            assert coeff > 0

    def test_sigma_eps_is_sigma_b1_with_unit_or_zero_coefficients(self):
        # replace each sigma_b1 binomial product with the indicator
        # prod_{i<p} [r_i == 0 or the cut after block i is 1]
        for wt in range(2, 7):
            for w in words_of_weight(wt):
                p = w.depth
                for r in range(4):
                    expected = []
                    for incr in compositions(r, p):
                        keep = all(
                            incr[i] == 0 or w.inner_cut(i + 1).eps == 1
                            for i in range(p - 1)
                        )
                        if keep:
                            bumped = Word(
                                (c, k + d) for (c, k), d in zip(w.pairs, incr)
                            )
                            expected.append((bumped, 1))
                    assert sigma_eps(w, r) == LinComb(expected)

    def test_sigma_eps_on_all_one_words_is_classical(self):
        # with every cut equal to 1, all p positions receive increments
        for wt in range(2, 7):
            for w in words_of_weight(wt):
                if any(c is not Cut.ONE for c in word_cuts(w)):
                    continue
                for r in range(4):
                    expected = LinComb(
                        (Word((c, k + d) for (c, k), d in zip(w.pairs, incr)), 1)
                        for incr in compositions(r, w.depth)
                    )
                    assert sigma_eps(w, r) == expected


class TestMonomialFamilies:
    def test_v_y_all_zero(self):
        assert v_y_monomials(W("1:2"), 0) == LinComb.of(W("1:2"))

    def test_v_y_single_slot(self):
        assert v_y_monomials(W("1:3"), 1) == LinComb.of(W("1:4"))

    def test_v_y_no_slots_empty(self):
        assert v_y_monomials(W("1:2"), 1) == LinComb()

    def test_v_prime_depth_one_dual(self):
        # inserting one run of length 1 into (1,2) gives (1,1,2)
        assert v_prime_monomials(W("1:1,1:2"), 1) == LinComb.of(W("1:1,1:1,1:2"))

    def test_v_prime_no_insertion_points(self):
        assert v_prime_monomials(W("1:3"), 0) == LinComb.of(W("1:3"))
        assert v_prime_monomials(W("1:3"), 1) == LinComb()

    def test_multiset_identity_exhaustive(self):
        # duals of the slot-expansion monomials coincide, as a multiset,
        # with the letter-insertion monomials built on the dual word
        for wt in range(2, 7):
            for w in words_of_weight(wt):
                for l in range(4):
                    lhs = lincomb_map_words(v_y_monomials(w, l), dual)
                    rhs = v_prime_monomials(dual(w), l)
                    assert lhs == rhs, (w, l)
