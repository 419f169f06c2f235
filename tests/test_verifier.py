import concurrent.futures
import itertools
from collections import Counter
import json
import math
import os
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import mzdual.evaluators
import mzdual.verifier
from mzdual.evaluators import Params, eval_family
from mzdual.nested_sum import EvalConfig, InvalidParamsError
from mzdual.verifier import (
    DEFAULT_GRID,
    RELATIONS,
    TOL_FLOOR,
    SuiteConfig,
    _first_sums,
    _insert_ranks,
    _multisets,
    _rule_tables,
    _simplex_integral,
    _taylor_coefficients,
    check_derivative_crosslink,
    check_identity,
    check_integral_repr,
    run_suite,
    starred_rvectors,
)
from mzdual.words import (
    LinComb,
    Word,
    dual,
    parse_word,
    sigma_b1,
    sigma_b2,
    sigma_eps,
    words_up_to_weight,
)
from oracles import simplex_integral_tensor

W = parse_word
CFG = EvalConfig(rel_tol=3e-10)
ZETA4 = 1.0823232337111382


class TestDualityCheck:
    def test_classic_weight_three(self):
        c = check_identity("thm11i", W("1:3"), 0, Params(1, 1), CFG)
        assert c.passed and c.rel_dev < 1e-8
        assert abs(c.lhs - 1.2020569031595943) < 1e-9

    def test_self_dual_depth_one(self):
        c = check_identity("thm11i", W("1:2"), 0, Params(0.9, 1.4), CFG)
        assert c.passed

    def test_mixed_cut_weight_four(self):
        c = check_identity("thm11i", W("1h00"), 0, Params(1.3, 0.7), CFG)
        assert c.passed and c.rel_dev < 1e-7

    def test_complex_pochhammer_base(self):
        # the dual side has only real tail exponents, so it checks the
        # complex ones of the left side independently; at rel_tol 1e-11 the
        # derived tol is the floor, not widened by the evaluations' errors
        c = check_identity("thm11i", W("1:1,1/2:2"), 0, Params(1 + 2j, 0.7),
                           EvalConfig(rel_tol=1e-11))
        assert c.passed and "tolerance-not-reached" not in c.note
        assert c.tol <= 1e-9 and c.n_used <= 10**6


class TestThm11iCheck:
    def test_reduces_to_duality_at_r0(self):
        w = W("1:1,1/2:2")
        assert sigma_b1(w, 0) == LinComb.of(w)
        assert starred_rvectors(w, 0) == [(0, 0)]
        c0 = check_identity("thm11i", w, 0, Params(1.1, 0.8), CFG)
        zd = eval_family("Z", dual(w), (), Params(0.8, 1.1), CFG)
        assert c0.passed
        assert abs(c0.rhs - zd.value) < 1e-12

    def test_depth_one(self):
        c = check_identity("thm11i", W("1:3"), 1, Params(1, 1), CFG)
        assert c.passed and c.rel_dev < 1e-7

    def test_half_cut_shape(self):
        c = check_identity("thm11i", W("1:1,1/2:2"), 1, Params(0.8, 1.2), CFG)
        assert c.passed and c.rel_dev < 1e-7

    def test_weight_five_deviation_at_rounding(self):
        # with a fitted tail this check of the weight-5 suite deviated by 3.0e-9,
        # its specs stopped at 131,072 terms; the exact tail leaves only rounding
        c = check_identity("thm11i", W("1:2,1/2:1,1/2:2"), 1, Params(1.5, 0.6),
                           SuiteConfig().eval_config())
        assert c.passed and c.rel_dev <= 1e-12

    def test_first_slot_pinned_when_dual_opens_weak(self):
        # dual of 1:2,1/2:2 is 1:1,1/2:1,1:2 whose first inner cut is 1/2,
        # so the starred expansion only uses r-vectors with first entry 0
        w = W("1:2,1/2:2")
        from mzdual.words import dual

        dw = dual(w)
        assert dw == W("1:1,1/2:1,1:2")
        assert dw.inner_cut(1).value == "1/2"
        rvs = starred_rvectors(dw, 2)
        assert all(rv[0] == 0 for rv in rvs)
        assert rvs == [(0, 0, 2), (0, 1, 1), (0, 2, 0)]  # compositions of 2 into 3 - 1 slots
        c = check_identity("thm11i", w, 2, Params(1.0, 1.3), CFG)
        assert c.passed


class TestThm11iiCheck:
    def test_ohno_instance(self):
        c = check_identity("thm11ii", W("1:3"), 1, Params(1.0), CFG)
        assert c.passed
        # both sides are the classical even-weight value: pi^4/120 + pi^4/360
        assert abs(c.lhs - ZETA4) < 1e-8
        assert abs(c.rhs - (math.pi**4 / 120 + math.pi**4 / 360)) < 1e-8

    def test_self_dual_structural_zero(self):
        c = check_identity("thm11ii", W("1:1,1/2:2"), 3, Params(1.2), CFG)
        assert c.passed and c.rel_dev == 0.0

    def test_weak_tail_relation(self):
        c = check_identity("thm11ii", W("1:1,1/2:2"), 2, Params(1.0), CFG)
        assert c.passed and c.rel_dev < 1e-7


class TestProp24Check:
    def test_r0_is_diagonal_duality(self):
        c = check_identity("prop24", W("1:1,1:2"), 0, Params(1.0), CFG)
        d = check_identity("thm11i", W("1:1,1:2"), 0, Params(1.0, 1.0), CFG)
        assert c.passed
        assert abs(c.lhs - d.lhs) < 1e-12

    def test_examples(self):
        assert check_identity("prop24", W("1:3"), 1, Params(1.0), CFG).passed
        assert check_identity("prop24", W("1:1,1:2"), 2, Params(1.4), CFG).passed


class TestThm31Check:
    def test_r0_is_hurwitz_duality(self):
        c = check_identity("thm31", W("1:3"), 0, Params(0.75), CFG)
        assert c.passed

    def test_examples(self):
        assert check_identity("thm31", W("1:3"), 1, Params(1.0), CFG).passed
        assert check_identity("thm31", W("1:1,1/2:2"), 1, Params(0.75), CFG).passed

    def test_example32_both_displays(self):
        # first display: the half-cut tower word; second: its dual
        from mzdual.words import dual

        v0 = W("1:1,1/2:2")
        for w in (v0, dual(v0)):
            for r in (0, 1, 2):
                assert check_identity("thm31", w, r, Params(0.75), CFG).passed, (w, r)


class TestSumFormulaCheck:
    def test_depth_one_duality(self):
        c = check_identity("thm11i", dual(W("1:2")), 0, Params(1, 1), CFG)
        assert c.passed and abs(c.lhs - math.pi**2 / 6) < 1e-9

    def test_examples(self):
        assert check_identity("thm11i", dual(W("1:3")), 1, Params(1, 1), CFG).passed
        assert check_identity("thm11i", dual(W("1:2")), 2, Params(1.2, 0.9), CFG).passed


class TestRelations:
    """Each identity is one exact relation of (coeff, family, word, r, swapped) terms."""

    @pytest.mark.parametrize("text", ["1:2", "1:1,1/2:2", "1h00"])
    def test_r0_is_duality(self, text):
        w = W(text)
        dw, q = dual(w), dual(w).depth
        assert RELATIONS["thm11i"](w, 0) == (
            ((1, "Z", w, (), False),), ((1, "Zstar", dw, (0,) * q, True),))
        for identity in ("thm11ii", "prop24"):
            assert RELATIONS[identity](w, 0) == (((1, "Z", w, (), False),), ((1, "Z", dw, (), False),))
        assert RELATIONS["thm31"](w, 0) == (
            ((1, "zeta", w, (), False),), ((1, "Hstar", dw, (0,) * q, False),))

    def test_terms_are_exact(self):
        families = {"Z": False, "zeta": False, "Zstar": True, "Hstar": True}
        for w in words_up_to_weight(5):
            for r in range(3):
                for identity, relation in RELATIONS.items():
                    for side in relation(w, r):
                        assert isinstance(side, tuple)
                        for coeff, family, v, rv, swapped in side:
                            assert type(coeff) in (int, Fraction), (identity, w, r)
                            assert len(rv) == v.depth if families[family] else rv == ()
                            assert swapped is (family == "Zstar")

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown identity"):
            check_identity("thm99", W("1:2"), 0, Params(1.0), CFG)

    @pytest.mark.parametrize("identity", ["thm11ii", "prop24", "thm31"])
    def test_one_parameter_identity_rejects_a_pair(self, identity):
        with pytest.raises(ValueError, match="one parameter"):
            check_identity(identity, W("1:2"), 0, Params(1.0, 1.5), CFG)
        assert check_identity(identity, W("1:2"), 0, Params(1.5, 1.5), CFG).name.endswith("/a=1.5")


class TestEmptyWord:
    """The empty word's series are the empty product 1, and its sigma images and
    starred sums at r >= 1 are empty sums, 0; it has no iterated integral."""

    @pytest.mark.parametrize("p", [Params(1.0, 1.0), Params(0.6 + 0.3j, 1.5)], ids=["real", "complex"])
    @pytest.mark.parametrize("check, r", [(name, r) for name in RELATIONS for r in range(3)]
                             + [("derivative", 1), ("derivative", 2), ("integral", None)])
    def test_public_checks(self, check, r, p):
        if check == "integral":
            with pytest.raises(ValueError, match="nonempty word"):
                check_integral_repr(Word(), p, "Z", CFG)
            return
        if check == "derivative":
            # the circle rule's Taylor coefficient of the constant 1 is 0 up to rounding
            c = check_derivative_crosslink(Word(), r, p, CFG)
            assert c.passed and c.rhs == 0 and abs(c.lhs) < 1e-14
            return
        p = p if mzdual.verifier._TWO_PARAMETERS[check] else Params(p.alpha, p.alpha)
        c = check_identity(check, Word(), r, p, CFG)
        assert c.passed and c.lhs == c.rhs == (1 if r == 0 else 0)


class TestIntegralCheck:
    def test_basel_integral(self):
        c = check_integral_repr(W("1:2"), Params(1, 1), "Z", CFG)
        assert c.passed and c.rel_dev < 1e-3

    def test_shifted_parameters(self):
        c = check_integral_repr(W("1:2"), Params(1.5, 1.5), "Z", CFG)
        assert c.passed

    def test_hurwitz_family_half_letter(self):
        c = check_integral_repr(W("1h0"), Params(1.0, 1.5), "zeta", CFG)
        assert c.passed

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            check_integral_repr(W("1:5"), Params(1, 1), "Z", CFG)

    def test_parameter_domain_guard(self):
        with pytest.raises(ValueError):
            check_integral_repr(W("1:2"), Params(0.5, 1.0), "Z", CFG)

    @pytest.mark.parametrize("family", ["Zstar", "Hstar", "bogus"])
    def test_family_guard(self, monkeypatch, family):
        # the integral representation is stated for Z and zeta alone, so any other family is
        # rejected by name before either rule runs
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a quadrature ran")

        monkeypatch.setattr(mzdual.verifier, "_simplex_integral", no_quadrature)
        with pytest.raises(ValueError, match=f"no family '{family}'"):
            check_integral_repr(W("1:2"), Params(1, 1), family, CFG)

    @pytest.mark.parametrize("word, p, family", [
        ("1:2", Params(1, 1), "Z"), ("1h0", Params(1.0, 1.5), "zeta"),
    ])
    def test_tol_is_derived(self, word, p, family):
        # the quadrature's estimate is the gap between its two rules, and the
        # tol comes from it and the series' estimate, as in every other check
        c = check_integral_repr(W(word), p, family, CFG)
        letters = W(word).letters()
        a, b = p.alpha.real, p.beta.real
        fine = _simplex_integral(letters, a, b, family, h=0.08, kmax=48)
        coarse = _simplex_integral(letters, a, b, family, h=0.16, kmax=24)
        series = eval_family(family, W(word), (), p, CFG)
        rhs = abs(complex(series.value))
        want = max(TOL_FLOOR, 10.0 * (abs(fine - coarse) + series.err_estimate) / max(rhs, 1.0))
        assert c.passed and c.note == "" and c.tol == want

    def test_default_grid_tol_is_tight(self):
        rep = run_suite("integral", SuiteConfig(weight_max=3))
        assert rep.passed and all(c.tol < 1e-4 for c in rep.checks)

    def test_suite_runs_zeta_once_per_alpha(self):
        # the zeta integrand and series do not depend on b, so the zeta
        # check runs at the least b paired with each a in the box
        grid = ((1, 1.5), (1, 1), (1.5, 1.5), (0.5, 1))
        rep = run_suite("integral", SuiteConfig(weight_max=2, params_grid=grid))
        names = {c.name for c in rep.checks}
        assert rep.passed and names == {
            "integral/Z/w=1:2/a=1/b=1.5", "integral/Z/w=1:2/a=1/b=1",
            "integral/Z/w=1:2/a=1.5/b=1.5",
            "integral/zeta/w=1:2/a=1/b=1", "integral/zeta/w=1:2/a=1.5/b=1.5",
        }


class TestSimplexIntegral:
    """The quadrature with its t-powers folded into node weights is the
    tensor rule that evaluates the whole integrand at every point."""

    RULES = ({"h": 0.16, "kmax": 24}, {"h": 0.08, "kmax": 48})
    SUITE = ("integral", SuiteConfig(weight_max=4, depth_max=2, params_grid=((1.5, 1),)))

    @pytest.mark.parametrize("family", ["Z", "zeta"])
    @pytest.mark.parametrize("alpha,beta", [(1, 1), (1.5, 1), (2, 1.3), (1, 2)])
    def test_equals_tensor_rule(self, family, alpha, beta):
        for w in words_up_to_weight(4):
            rule = (w.letters(), alpha, beta, family)
            got = _simplex_integral(*rule, h=0.16, kmax=24)
            want = simplex_integral_tensor(*rule, h=0.16, kmax=24)
            assert abs(got - want) <= 1e-14 * abs(want), (str(w), got, want)

    @pytest.mark.parametrize("family", ["Z", "zeta"])
    @pytest.mark.parametrize("word", ["1:1,1/2:3", "1:4"])
    def test_equals_tensor_rule_fine(self, word, family):
        rule = (W(word).letters(), 1.5, 1.0, family)
        got = _simplex_integral(*rule, h=0.08, kmax=48)
        want = simplex_integral_tensor(*rule, h=0.08, kmax=48)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("word,family,alpha,closed", [
        ("1:2", "Z", 1.0, mpmath.zeta(2)),
        ("1:1,1:2", "Z", 1.0, mpmath.zeta(3)),
        ("1:4", "Z", 1.0, mpmath.zeta(4)),
        ("1:1,1:3", "Z", 1.0, mpmath.pi**4 / 360),
        ("1:2", "zeta", 1.5, mpmath.zeta(2, 1.5)),
        ("1:3", "zeta", 1.5, mpmath.zeta(3, 1.5)),
        ("1:4", "zeta", 1.7, mpmath.zeta(4, 1.7)),
    ])
    def test_fine_rule_closed_forms(self, word, family, alpha, closed):
        got = _simplex_integral(W(word).letters(), alpha, 1.0, family, h=0.08, kmax=48)
        assert abs(got - float(closed)) <= 1e-9 * float(closed)

    @staticmethod
    def clear_memos():
        _first_sums.cache_clear()
        _rule_tables.cache_clear()

    def test_memo_is_invisible(self):
        # every word of weight <= 4 shares F_0 with the others of its weight,
        # and every call of a rule shares its tables; forwards and backwards
        # from cold memos, the first call that computes them differs, and the
        # floats are the same
        calls = [(w.letters(), a, b, family, rule) for a, b in ((1.5, 1), (1, 2))
                 for family in ("Z", "zeta") for w in words_up_to_weight(4)
                 for rule in self.RULES]
        runs = []
        for order in (calls, calls[::-1]):
            self.clear_memos()
            runs.append({c[:4] + (c[4]["h"],): _simplex_integral(*c[:4], **c[4]) for c in order})
        assert runs[0] == runs[1]

    def test_memo_is_read_only(self):
        self.clear_memos()
        _simplex_integral("1000", 1.5, 1.0, "Z", h=0.16, kmax=24)
        f0 = _first_sums(0.16, 24, 4, 0.0, -1.5)  # e0 = beta - 1, p0 = -alpha
        assert _first_sums.cache_info().hits == 1 and not f0.flags.writeable
        with pytest.raises(ValueError):
            f0[0] = 0.0
        x, wts, ts, ranks = _rule_tables(0.16, 24)
        assert _rule_tables.cache_info()[:2] == (2, 1)  # hits, misses: F_0 and this call hit
        assert (len(ts), len(ranks)) == (4, 3)
        for a in (x, wts, *ts, *ranks):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 0

    @pytest.mark.parametrize("letters", ["1100", "1h00"])
    @pytest.mark.parametrize("family,e0,p0", [("Z", 0.0, -1.5), ("zeta", 0.5, -1.0)])
    def test_pole_letter_leaves_memo(self, letters, family, e0, p0):
        # the 1/(1 - t) of the second letter divides F_0 out of place, and
        # neither it nor the gather writes to the rule's tables
        self.clear_memos()
        want = _first_sums(0.16, 24, 4, e0, p0).copy()
        _, _, ts, ranks = _rule_tables(0.16, 24)
        tables = [a.copy() for a in (*ts, *ranks)]
        cold = _simplex_integral(letters, 1.5, 1.0, family, h=0.16, kmax=24)
        self.clear_memos()
        fresh = _simplex_integral(letters, 1.5, 1.0, family, h=0.16, kmax=24)
        warm = _simplex_integral(letters, 1.5, 1.0, family, h=0.16, kmax=24)
        info = _first_sums.cache_info()
        assert (info.misses, info.hits) == (1, 1) and cold == fresh == warm
        assert np.array_equal(_first_sums(0.16, 24, 4, e0, p0), want)
        _, _, ts, ranks = _rule_tables(0.16, 24)
        assert all(np.array_equal(a, b) for a, b in zip((*ts, *ranks), tables, strict=True))

    def test_suite_misses_once_per_key(self):
        # pair, family, word: each of the 12 keys (2 families x 3 weights x
        # 2 rules) misses once, and the other 24 of the 36 quadratures hit;
        # the rule tables miss once per rule
        self.clear_memos()
        run_suite(*self.SUITE)
        info = _first_sums.cache_info()
        assert (info.misses, info.hits) == (12, 24)
        assert _rule_tables.cache_info().misses == 2


class TestMultisetTables:
    """The inner sums of the quadrature are tables over multisets of node
    indices in colex rank order, read at the rank of M + i."""

    @staticmethod
    def rank(c):
        return sum(math.comb(cj + j, j + 1) for j, cj in enumerate(sorted(c)))

    @pytest.mark.parametrize("n_nodes", range(1, 7))
    @pytest.mark.parametrize("k", range(4))
    def test_rows_in_colex_rank_order(self, n_nodes, k):
        # one call gives every size up to k; the rows of size k are not built
        x = np.linspace(0.1, 0.9, n_nodes)
        tables = _multisets(x, k)
        assert len(tables) == k + 1 and tables[k][0] is None
        for size, (rows, t) in enumerate(tables):
            combos = itertools.combinations_with_replacement(range(n_nodes), size)
            multisets = sorted(map(list, combos), key=self.rank)
            assert [self.rank(c) for c in multisets] == list(range(len(t)))
            for r, c in enumerate(multisets):
                assert t[r] == math.prod(x[c], start=1.0)
            if size == k:
                continue
            assert rows.dtype == np.int32 and rows.shape == (len(multisets), size)
            assert len(multisets) == math.comb(n_nodes + size - 1, size)
            assert len({tuple(r) for r in rows}) == len(rows)
            for r, c in enumerate(rows.tolist()):
                assert c == sorted(c) and self.rank(c) == r

    @pytest.mark.parametrize("n_nodes", range(1, 7))
    @pytest.mark.parametrize("k", range(4))
    def test_insert_ranks(self, n_nodes, k):
        # the rows of size k, from the tables up to size k + 1, which has none
        rows, _ = _multisets(np.linspace(0.1, 0.9, n_nodes), k + 1)[k]
        ranks = _insert_ranks(rows, n_nodes)
        assert ranks.shape == (len(rows), n_nodes)
        want = [[self.rank(sorted(c + [i])) for i in range(n_nodes)] for c in rows.tolist()]
        assert ranks.tolist() == want

    @pytest.mark.parametrize("family", ["Z", "zeta"])
    def test_fine_rule_memory(self, family):
        # from cold memos, the rule's tables and F_0 peak near 3.5 MiB; a rule holding
        # nodes^3 = 456,533 floats per outer node peaks at 7.1
        TestSimplexIntegral.clear_memos()
        tracemalloc.start()
        try:
            _simplex_integral(W("1:1,1/2:3").letters(), 1.5, 1.0, family, h=0.08, kmax=48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20, peak / 2**20

    def test_suite_memory(self):
        # the memos hold one fine and one coarse F_0 and rule's tables at a
        # time, and the suite peaks at 4.0 MiB from cold memos (2.1 with the
        # tables built); an F_0 memo that keeps all 12 reaches 4.7
        TestSimplexIntegral.clear_memos()
        tracemalloc.start()
        try:
            run_suite(*TestSimplexIntegral.SUITE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * 2**20, peak / 2**20
        assert _first_sums.cache_info().currsize == _rule_tables.cache_info().currsize == 2


class TestDerivativeCheck:
    def test_first_derivative(self):
        c = check_derivative_crosslink(W("1:2"), 1, Params(1, 1))
        assert c.passed and c.abs_dev < 1e-4

    def test_second_derivative(self):
        c = check_derivative_crosslink(W("1:1,1:2"), 2, Params(1, 1.3))
        assert c.passed and c.abs_dev < 1e-3

    def test_r_guard(self):
        # r = 0 is the duality check; every r >= 1 is read off the circle
        with pytest.raises(ValueError, match=r"r >= 1"):
            check_derivative_crosslink(W("1:2"), 0, Params(1, 1))
        assert check_derivative_crosslink(W("1:2"), 3, Params(1, 1), CFG).passed

    def test_pair_near_zero_passes(self):
        # the circle's radius is Re(b) / 3, so it stays in Re x > 0 however small b is
        c = check_derivative_crosslink(W("1:2"), 1, Params(1, 0.001), CFG)
        assert c.passed and c.tol <= 1e-8

    def test_complex_pair_passes(self):
        sc = SuiteConfig(weight_max=3, r_max=2, params_grid=((0.6 + 0.3j, 1), (1, 1.5 - 0.5j)))
        rep = run_suite("derivative", sc)
        assert len(rep.checks) == 16 and rep.passed
        assert all(c.tol <= 1e-8 for c in rep.checks)

    @pytest.mark.parametrize("x,a", [
        (0.6, 1), (1.5, 0.6), (0.3 + 0.4j, 1.2 - 0.3j), (1, 0.6 + 0.3j),
    ])
    def test_err_estimate_bounds_psi_closed_form(self, x, a):
        # Z(1:2; x, a) = (psi(x) - psi(a)) / (x - a), so its Taylor
        # coefficients in x come from mpmath alone
        def closed(t):
            return (mpmath.digamma(t) - mpmath.digamma(a)) / (t - a)

        with mpmath.workdps(30):
            coeffs = mpmath.taylor(closed, mpmath.mpmathify(x), 4)
        for r, (keys, coefficient) in enumerate(_taylor_coefficients(W("1:2"), range(1, 5), Params(x, a)), 1):
            got = coefficient([mzdual.evaluators.eval_spec(k, CFG) for k in keys])
            actual = abs(complex(got.value) - (-1) ** r * complex(coeffs[r]))
            assert got.converged and actual <= got.err_estimate, (r, actual, got.err_estimate)


class TestSuiteConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(weight_max=1)
        with pytest.raises(ValueError):
            SuiteConfig(tol=0)
        with pytest.raises(ValueError):
            SuiteConfig(r_max=-1)
        with pytest.raises(ValueError):
            SuiteConfig(depth_max=0)
        with pytest.raises(ValueError):
            SuiteConfig(tol=float("nan"))
        with pytest.raises(InvalidParamsError):
            SuiteConfig(params_grid=((1.0, 1.0), (1.0, -1.0)))

    def test_even_r_values(self):
        assert SuiteConfig(r_max=4, even_r_only=True).r_values() == [0, 2, 4]
        assert SuiteConfig(r_max=3).r_values() == [0, 1, 2, 3]

    def test_alphas_dedupe(self):
        sc = SuiteConfig(params_grid=((1.0, 0.5), (1.0, 1.5), (0.5, 1.0)))
        assert sc.alphas() == [1.0, 0.5]

    def test_pairs_dedupe(self):
        # the value list 1,1 makes the pair (1, 1) four times
        sc = SuiteConfig(params_grid=((1.0, 0.5), (1, 1), (1.0, 1.0), (1.0, 0.5), (1, 1.0)))
        assert sc.params_grid == ((1.0, 0.5), (1, 1))
        rep = run_suite("thm11i", SuiteConfig(weight_max=2, params_grid=((1.0, 1.0),) * 4))
        names = [c.name for c in rep.checks]
        assert len(names) == len(set(names)) == 3


class TestRunSuite:
    def test_near_equal_grid_values_named_apart(self):
        # both values print as 1 in the :g form
        sc = SuiteConfig(weight_max=2, params_grid=((1.0000001, 1.0), (1.0000002, 1.0)))
        rep = run_suite("duality", sc)
        names = [c.name for c in rep.checks]
        assert names == ["thm11i/w=1:2/r=0/a=1.0000001/b=1", "thm11i/w=1:2/r=0/a=1.0000002/b=1"]
        grid = rep.to_json(include_timestamp=False)["config"]["params_grid"]
        assert grid == [["1.0000001", "1"], ["1.0000002", "1"]]

    def test_singleton_universe(self):
        sc = SuiteConfig(weight_max=2, tol=1e-7)
        rep = run_suite("duality", sc)
        assert len(rep.checks) == 9  # one word, nine grid points
        assert rep.passed

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("bogus", SuiteConfig())

    def test_dispatch_resolved_at_call_time(self, monkeypatch):
        # a module attribute replaced after import must see every call: the
        # benchmark's compile layer counts the compilers' calls this way
        compilers = {"Z": ("z_spec", "zstar_spec"), "Zstar": ("zstar_spec",),
                     "zeta": ("hurwitz_spec",), "Hstar": ("hstar_spec",)}
        assert set(compilers) == set(mzdual.evaluators.FAMILIES)
        calls = {"z_spec": 0, "zstar_spec": 0, "hurwitz_spec": 0, "hstar_spec": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("z_spec", "zstar_spec", "hurwitz_spec", "hstar_spec"):
            counting(mzdual.evaluators, name)
        rep = run_suite("duality", SuiteConfig(weight_max=2))
        # nine checks planned, two sides each, a Z and a Z* at r = 0; z_spec compiles
        # through zstar_spec
        assert calls == {"z_spec": 9, "zstar_spec": 18, "hurwitz_spec": 0, "hstar_spec": 0}
        assert rep.passed
        # each family's row reaches its compilers through eval_family
        for family, compiled in compilers.items():
            before = dict(calls)
            eval_family(family, W("1:3"), (1,), Params(1.0, 1.0), CFG)
            assert {k: calls[k] - before[k] for k in calls} == {k: int(k in compiled) for k in calls}, family

    def test_deterministic_json(self):
        sc = SuiteConfig(weight_max=3, tol=1e-6, params_grid=((1.0, 1.0),))
        a = json.dumps(run_suite("duality", sc).to_json(include_timestamp=False), sort_keys=True)
        b = json.dumps(run_suite("duality", sc).to_json(include_timestamp=False), sort_keys=True)
        assert a == b

    def test_grid_order_invisible(self):
        # the values are evaluated pair by pair; the checks must not depend on
        # the order of the pairs
        grid = ((0.6, 1.5), (1.0, 0.6), (1.5, 1.0))
        reports = []
        for g in (grid, grid[::-1]):
            mzdual.evaluators._evaluate_cached.cache_clear()
            rep = run_suite("thm11i", SuiteConfig(weight_max=3, params_grid=g))
            reports.append(json.dumps(rep.to_json(include_timestamp=False)["checks"]))
        assert reports[0] == reports[1]

    def test_thm11i_r0_shares_specs(self, monkeypatch):
        # at r = 0 the right-hand side Z*(dual w; 0) at (b, a) compiles to
        # the left-hand side of the check of dual w at (b, a), a pair of the
        # symmetric grid, so the plan reads every spec twice, and the suite
        # evaluates each once
        sc = SuiteConfig(weight_max=4, r_max=0)
        plans = mzdual.verifier._SUITES["thm11i"](sc, words_up_to_weight(4))
        reads = Counter(k for _, *sides in plans for keys, _ in sides for k in keys)
        assert len(reads) == 117 and set(reads.values()) == {2}
        evaluate, evaluated = mzdual.evaluators.evaluate, Counter()

        def counted(spec, *args):
            evaluated[spec] += 1
            return evaluate(spec, *args)

        monkeypatch.setattr(mzdual.evaluators, "evaluate", counted)
        run_suite("thm11i", sc)
        assert evaluated == Counter(dict.fromkeys(reads, 1))

    def test_suite_leaves_compute_memo_empty(self):
        # a suite evaluates each of its values once, through no memo: the one
        # behind compute holds nothing after it
        mzdual.evaluators._evaluate_cached.cache_clear()
        assert run_suite("all", SuiteConfig(weight_max=3)).passed
        assert mzdual.evaluators._evaluate_cached.cache_info().currsize == 0

    def test_all_runs_each_identity_once(self):
        names = [c.name for c in run_suite("all", SuiteConfig(weight_max=3)).checks]
        assert len(set(names)) == len(names) == 216
        # duality and the sum formula are views of the thm11i checks
        sc = SuiteConfig(weight_max=3, params_grid=((1.0, 1.0),))
        thm11i = {c.name for c in run_suite("thm11i", sc).checks}
        duality = {c.name for c in run_suite("duality", sc).checks}
        sum_formula = {c.name for c in run_suite("sum_formula", sc).checks}
        assert duality <= thm11i and len(duality) == 4
        assert sum_formula <= thm11i and len(sum_formula) == 6

    def test_derivative_even_only(self):
        sc = SuiteConfig(weight_max=2, params_grid=((1.0, 1.0),), even_r_only=True)
        names = [c.name for c in run_suite("derivative", sc).checks]
        assert names and all("/r=2/" in n for n in names)

    def test_even_plus_odd_covers_full(self):
        sc_full = SuiteConfig(weight_max=3, r_max=3, params_grid=((1.0, 1.0),))
        sc_even = SuiteConfig(weight_max=3, r_max=3, params_grid=((1.0, 1.0),), even_r_only=True)
        full = {c.name for c in run_suite("thm11ii", sc_full).checks}
        even = {c.name for c in run_suite("thm11ii", sc_even).checks}
        odd = {n for n in full if n not in even}
        assert even | odd == full and even & odd == set()

    def test_report_serializations(self):
        sc = SuiteConfig(weight_max=2, tol=1e-6, params_grid=((1.0, 1.0),))
        rep = run_suite("duality", sc)
        js = rep.to_json()
        assert js["schema"] == 1 and "timestamp" in js
        assert js["n_checks"] == 1
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "name,lhs_re,lhs_im,rhs_re,rhs_im,rel_dev,tol,passed"
        table = rep.to_table()
        assert "1/1 passed" in table

    def test_json_keys_are_the_fields(self):
        rep = run_suite("duality", SuiteConfig(weight_max=2, params_grid=((1.0, 1.0),)))
        js = rep.to_json(include_timestamp=False)
        assert set(js["config"]) == {
            "weight_max", "depth_max", "r_max", "params_grid", "tol", "even_r_only"}
        assert js["config"]["params_grid"] == [["1", "1"]]
        (check,) = js["checks"]
        assert set(check) == {"name", "lhs", "rhs", "abs_dev", "rel_dev", "tol", "n_used",
                              "passed", "note"}
        assert check["lhs"] == [rep.checks[0].lhs.real, 0.0]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_suite("duality", SuiteConfig(weight_max=2), workers=workers)

    @pytest.mark.parametrize("grid, workers, cpus, started", [
        (((1.0, 1.0),), 500, 8, []),  # one value, one chunk: no pool
        # three values, Z(1:2) at (1, 1), (0.8, 1.2) and (1.2, 0.8): a chunk each
        (((1.0, 1.0), (0.8, 1.2), (1.2, 0.8)), 500, 8, [3]),
        (DEFAULT_GRID, 2, 8, [2]),
        (DEFAULT_GRID, 500, 2, [2]),  # nine values, but two usable CPUs
    ], ids=["one-chunk", "three-chunks", "two-workers", "two-cpus"])
    def test_pool_never_exceeds_chunks(self, monkeypatch, grid, workers, cpus, started):
        # the workers are capped at min(workers, CPUs, distinct values), each value in one
        # worker's chunk; a fork-started pool starts every worker at its first submit, so
        # record max_workers in a fake pool that evaluates the chunks in-process
        seen = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        sc = SuiteConfig(weight_max=2, tol=1e-6, params_grid=grid)
        rep = run_suite("duality", sc, workers=workers)
        assert seen == started and rep.passed

    def test_parallel_matches_serial(self):
        # the pool pickles the keys of every identity and their values
        sc = SuiteConfig(weight_max=3, tol=1e-6, params_grid=((1.0, 1.0), (0.8, 1.2)))
        serial = run_suite("all", sc, workers=1)
        parallel = run_suite("all", sc, workers=2)
        assert serial.to_json(include_timestamp=False) == parallel.to_json(include_timestamp=False)
        assert {c.name.split("/")[0] for c in serial.checks} == set(RELATIONS)
        assert serial.passed and parallel.passed

    def test_workers_evaluate_each_value_once(self, tmp_path, monkeypatch):
        # the forked workers inherit this wrapper, and each appends a line per evaluation
        # to its own file; the memo is cleared, so no worker inherits a value either
        evaluate = mzdual.evaluators.evaluate

        def counting(*args, **kwargs):
            with open(tmp_path / str(os.getpid()), "a") as fh:
                fh.write("evaluate\n")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(mzdual.evaluators, "evaluate", counting)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        mzdual.evaluators._evaluate_cached.cache_clear()
        run_suite("all", SuiteConfig(weight_max=3), workers=2)
        counts = [len(f.read_text().splitlines()) for f in tmp_path.iterdir()]
        assert str(os.getpid()) not in {f.name for f in tmp_path.iterdir()}
        # the distinct specs of all --weight-max 3; a pool of checks, each worker with
        # its own memo, made more than 420
        assert sum(counts) == 372 and len(counts) == 2
