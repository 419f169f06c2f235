import math

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from oracles import (
    EMPTY_WORD,
    emzv_prefix_sums,
    fit_limit,
    naive_Hstar,
    naive_Z,
    naive_Zstar,
    naive_hurwitz,
    truncated_sum,
)

from mzdual.evaluators import (
    Params,
    eval_family,
    eval_terms,
    hstar_spec,
    hurwitz_spec,
    sum_results,
    z_spec,
    zstar_spec,
)
from mzdual.nested_sum import EvalConfig, EvalResult, InvalidParamsError
from mzdual.words import LinComb, dual, parse_word, sigma_eps, words_up_to_weight

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854
ZETA4 = math.pi**4 / 90

CFG = EvalConfig(rel_tol=1e-11)

W = parse_word


class TestEvalZ:
    def test_empty_word_is_one(self):
        assert eval_family("Z", EMPTY_WORD, (), Params(1.3, 0.7)).value == 1.0

    def test_basel(self):
        assert abs(eval_family("Z", W("1:2"), (), Params(1, 1), CFG).value - ZETA2) < 1e-10

    def test_depth_two(self):
        assert abs(eval_family("Z", W("1:1,1:2"), (), Params(1, 1), CFG).value - ZETA3) < 1e-9

    def test_params_validated(self):
        with pytest.raises(InvalidParamsError):
            eval_family("Z", W("1:2"), (), Params(-1.0, 1.0))

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5])
    @pytest.mark.parametrize("beta", [0.6, 1.0, 1.5])
    @pytest.mark.parametrize("k", [2, 3])
    def test_depth_one_collapse(self, alpha, beta, k):
        # single block: sum 1/((m+alpha)(m+beta)^(k-1))
        got = eval_family("Z", W(f"1:{k}"), (), Params(alpha, beta), CFG).value
        m = np.arange(300_000, dtype=np.float64)
        ns, vals = [], []
        partial = 0.0
        chunks = np.split(1.0 / ((m + alpha) * (m + beta) ** (k - 1)), 10)
        for i, ch in enumerate(chunks):
            partial += float(np.sum(ch))
            ns.append(30_000 * (i + 1))
            vals.append(partial)
        oracle = fit_limit(ns, vals, s=float(k), tmax=0)
        assert abs(got - oracle) < 1e-10

    def test_truncated_matches_naive_enumeration(self):
        for text in ["1:2", "1:1,1:2", "1:1,1/2:2", "1:2,1/2:1,1:2"]:
            w = W(text)
            for a, b in [(1.0, 1.0), (0.7, 1.4), (1.5, 0.6)]:
                spec = z_spec(w, Params(a, b))
                got = truncated_sum(spec, 60)
                want = naive_Z(w, a, b, 60)
                assert abs(got - want) <= 1e-12 * abs(want), (text, a, b)

    def test_emzv_specialization_weight_5(self):
        # against the independent pure-python prefix enumerator at (1, 1)
        checkpoints = sorted({round(2 ** (j / 2.0)) for j in range(18, 33)})
        for w in words_up_to_weight(5):
            ks = w.exponents()
            cuts = [1 if w.inner_cut(i).value == "1" else 0 for i in range(1, w.depth)]
            vals = emzv_prefix_sums(ks, cuts, checkpoints)
            oracle = fit_limit(checkpoints, vals, s=float(ks[-1]), tmax=max(0, w.depth - 1))
            got = eval_family("Z", w, (), Params(1, 1), CFG).value
            assert abs(got - oracle) <= 1e-8 * abs(oracle), str(w)

    def test_self_dual_symmetry(self):
        w = W("1:1,1/2:2")
        assert dual(w) == w
        for a in (0.6, 1.0, 1.5):
            for b in (0.6, 1.0, 1.5):
                lhs = eval_family("Z", w, (), Params(a, b), CFG).value
                rhs = eval_family("Z", w, (), Params(b, a), CFG).value
                assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestEvalZstar:
    def test_zero_rvector_degenerates_to_Z(self):
        for text in ["1:2", "1:1,1:2", "1:1,1/2:3", "1:2,1/2:1,1:2"]:
            w = W(text)
            p = Params(1.2, 0.8)
            got = eval_family("Zstar", w, (0,) * w.depth, p, CFG).value
            want = eval_family("Z", w, (), p, CFG).value
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_zero_rvector_compiles_to_Z_spec(self):
        p = Params(0.8, 1.3)
        for w in words_up_to_weight(4):
            assert z_spec(w, p) == zstar_spec(w, (0,) * w.depth, p), w

    def test_depth_one_display(self):
        # rising powers attach directly to the single index:
        # sum (m+b)^-(r+1) (m+a)^-(k-1); at a=b=1 this is zeta(r+k)
        got = eval_family("Zstar", W("1:2"), (1,), Params(1, 1), CFG).value
        assert abs(got - ZETA3) < 1e-9
        got = eval_family("Zstar", W("1:3"), (1,), Params(1, 1), CFG).value
        assert abs(got - ZETA4) < 1e-9

    def test_truncated_matches_naive_chains(self):
        cases = [
            ("1:1,1:2", (0, 1)),
            ("1:1,1:2", (1, 2)),
            ("1:1,1/2:2", (2, 1)),
            ("1:2,1/2:1,1:2", (1, 0, 2)),
            ("1:1,1:1,1:2", (0, 2, 1)),
            # a chain closing into a 1/2 cut: the star-flipped strict link
            ("1:1,1:1,1/2:2", (0, 1, 0)),
        ]
        for text, rv in cases:
            w = W(text)
            for poch, main in [(1.0, 1.0), (0.8, 1.3), (0.6 + 0.4j, 1.3 - 0.2j)]:
                spec = zstar_spec(w, rv, Params(poch, main))
                got = truncated_sum(spec, 40)
                want = naive_Zstar(w, rv, poch, main, 40)
                assert abs(got - want) <= 1e-12 * abs(want), (text, rv)

    def test_rvector_length_checked(self):
        with pytest.raises(ValueError):
            eval_family("Zstar", W("1:1,1:2"), (1,), Params(1, 1))

    def test_empty_word(self):
        assert eval_family("Zstar", EMPTY_WORD, (), Params(1, 1)).value == 1.0


class TestEvalHurwitz:
    def test_basel(self):
        assert abs(eval_family("zeta", W("1:2"), (), Params(1.0), CFG).value - ZETA2) < 1e-10

    def test_half_gives_pi2_over_2(self):
        got = eval_family("zeta", W("1:2"), (), Params(0.5), CFG).value
        assert abs(got - math.pi**2 / 2) < 1e-9

    def test_empty_word(self):
        assert eval_family("zeta", EMPTY_WORD, (), Params(2.3)).value == 1.0

    def test_truncated_matches_naive(self):
        for text in ["1:3", "1:1,1/2:2", "1:1,1:1,1:2"]:
            w = W(text)
            for alpha in (0.75, 1.4):
                got = truncated_sum(hurwitz_spec(w, alpha), 80)
                want = naive_hurwitz(w, alpha, 80)
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_matches_Z_at_one_on_all_one_words(self):
        for text in ["1:3", "1:1,1:2", "1:2,1:2"]:
            w = W(text)
            lhs = eval_family("zeta", w, (), Params(1.0), CFG).value
            rhs = eval_family("Z", w, (), Params(1, 1), CFG).value
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 0.6), (4, 1.5), (5, 0.75)])
    def test_depth_one_is_hurwitz_zeta(self, k, alpha):
        got = eval_family("zeta", W(f"1:{k}"), (), Params(alpha), CFG).value
        assert abs(got - hurwitz_zeta(k, alpha)) < 1e-9 * hurwitz_zeta(k, alpha)


class TestEvalHstar:
    def test_empty_word(self):
        assert eval_family("Hstar", EMPTY_WORD, (), Params(1.7)).value == 1.0

    def test_zero_rvector_is_dual_hurwitz(self):
        # the starred family at r = 0 evaluates the dual's Hurwitz value
        for text in ["1:3", "1:1,1:2", "1:1,1/2:2"]:
            w = W(text)
            for alpha in (0.75, 1.0, 1.5):
                lhs = eval_family("Hstar", w, (0,) * W(text).depth, Params(alpha), CFG).value
                rhs = eval_family("zeta", dual(w), (), Params(alpha), CFG).value
                assert abs(lhs - rhs) <= 1e-9 * abs(rhs), (text, alpha)

    def test_harmonic_number_anchor(self):
        # q=1, r=1 at alpha=1: sum H_{m+1}/(m+1)^2 = 2 zeta(3)
        got = eval_family("Hstar", W("1:2"), (1,), Params(1.0), CFG).value
        assert abs(got - 2 * ZETA3) < 1e-9

    def test_truncated_matches_naive_chains(self):
        cases = [
            ("1:2", (2,)),
            ("1:1,1:2", (1, 1)),
            ("1:1,1/2:2", (0, 2)),
            ("1:1,1/2:2", (2, 0)),
            ("1:2,1/2:1,1:2", (1, 1, 0)),
            # a later chain closing into a 1/2 cut
            ("1:1,1:1,1/2:2", (0, 1, 0)),
        ]
        for text, rv in cases:
            w = W(text)
            for alpha in (0.75, 1.3, 0.6 + 0.4j):
                got = truncated_sum(hstar_spec(w, rv, alpha), 40)
                want = naive_Hstar(w, rv, alpha, 40)
                assert abs(got - want) <= 1e-12 * abs(want), (text, rv, alpha)


def lincomb_terms(lc, family):
    return [(c, family, w, (), False) for w, c in lc]


class TestEvalLincomb:
    """Linear combinations of series, through eval_terms and eval_family."""

    def test_singleton(self):
        terms = lincomb_terms(LinComb.of(W("1:2")), "Z")
        assert abs(eval_terms(terms, Params(1, 1), CFG).value - ZETA2) < 1e-10

    def test_empty_sum_is_zero(self):
        res = eval_terms((), Params(1, 1))
        assert res.value == 0.0 and res.err_estimate == 0.0

    def test_sigma_image(self):
        lc = sigma_eps(W("1:3"), 1)
        assert lc == LinComb.of(W("1:4"))
        got = eval_terms(lincomb_terms(lc, "Z"), Params(1, 1), CFG).value
        assert abs(got - ZETA4) < 1e-9

    def test_zeta_family(self):
        lc = LinComb([(W("1:2"), 2), (W("1:3"), -1)])  # Fraction coefficients
        got = eval_terms(lincomb_terms(lc, "zeta"), Params(0.5), CFG).value
        want = 2 * hurwitz_zeta(2, 0.5) - hurwitz_zeta(3, 0.5)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            eval_family("bogus", W("1:2"), (), Params(1, 1))
        with pytest.raises(ValueError):
            eval_terms([(1, "bogus", W("1:2"), (), False)], Params(1, 1))


class TestSumResults:
    @staticmethod
    def res(value):
        return EvalResult(value, 0.0, 1, True)

    def test_real_nan_stays_real(self):
        got = sum_results([(1.0, self.res(math.nan)), (-1.0, self.res(0.5))]).value
        assert isinstance(got, float) and math.isnan(got)

    def test_complex_sum_stays_complex(self):
        got = sum_results([(1.0, self.res(math.nan)), (1j, self.res(0.5))]).value
        assert isinstance(got, complex) and math.isnan(got.real) and math.isnan(got.imag)
        assert sum_results([(2.0, self.res(1 + 1j))]).value == 2 + 2j

    def test_zero_imaginary_total_is_real(self):
        got = sum_results([(1.0, self.res(1 + 2j)), (1.0, self.res(1 - 2j))]).value
        assert isinstance(got, float) and got == 2.0


class TestEmptyWord:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: eval_family("Z", EMPTY_WORD, (), Params(-1.0, 1.0)),
            lambda: eval_family("Zstar", EMPTY_WORD, (), Params(-1.0, 1.0)),
            lambda: eval_family("zeta", EMPTY_WORD, (), Params(-1.0)),
            lambda: eval_family("Hstar", EMPTY_WORD, (), Params(-1.0)),
        ],
        ids=["Z", "Zstar", "zeta", "Hstar"],
    )
    def test_params_checked(self, call):
        with pytest.raises(InvalidParamsError):
            call()


class TestParams:
    def test_complex_with_zero_imaginary_part_evaluates_real(self):
        p = Params(1 + 0j, 0.5 + 0j)
        assert isinstance(p.alpha, complex)
        for got, want in [
            (eval_family("Z", W("1:2"), (), p), eval_family("Z", W("1:2"), (), Params(1.0, 0.5))),
            (eval_family("Zstar", W("1:2"), (1,), p), eval_family("Zstar", W("1:2"), (1,), Params(1.0, 0.5))),
        ]:
            assert type(got.value) is float and got == want

    def test_beta_defaults_to_alpha(self):
        p = Params(1.4)
        assert p.beta == 1.4

    def test_swapped(self):
        assert Params(1.0, 2.0).swapped() == Params(2.0, 1.0)
