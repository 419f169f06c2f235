import itertools
import math

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from oracles import poch_ratio_first, poch_ratio_last, poch_ratio_last_shifted
from mzdual.evaluators import Params, z_spec
from mzdual.nested_sum import (
    EvalConfig,
    IndexWeight,
    InvalidParamsError,
    Link,
    NestedSumSpec,
    NonConvergentError,
    Prefactor,
    _fit_design,
    _GAMMA_RATIO_CACHE_BYTES,
    _GAMMA_RATIOS,
    _make_marks,
    _prefactor_array,
    _prefix_behaviour,
    _Stream,
    _tail_basis,
    _tail_fit,
    evaluate,
    lgamma_diff,
    tail_powers_log,
    term_behaviour,
    truncated_sum,
)
from mzdual.words import parse_word

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854


def single(b=2, a=0, prefactors=(), alpha=1.0, beta=1.0):
    return NestedSumSpec((IndexWeight(a=a, b=b, prefactors=prefactors),), (), alpha, beta)


class TestEvaluate:
    def test_basel(self):
        # sum 1/(m+1)^2
        res = evaluate(single(b=2, beta=1.0))
        assert res.converged
        assert abs(res.value - ZETA2) < 1e-10

    def test_half_shift(self):
        # sum 1/(m+1/2)^2 = pi^2/2
        res = evaluate(single(b=2, beta=0.5))
        assert abs(res.value - math.pi**2 / 2) < 1e-9

    def test_depth_two_strict(self):
        # sum_{0<=m1<m2} (m1+1)^-1 (m2+1)^-2 = zeta(3)
        spec = NestedSumSpec(
            (IndexWeight(b=1), IndexWeight(b=2)), (Link.STRICT,), 1.0, 1.0
        )
        res = evaluate(spec)
        assert abs(res.value - ZETA3) < 1e-9

    def test_err_estimate_reported(self):
        res = evaluate(single(b=3))
        assert res.err_estimate > 0
        assert abs(res.value - hurwitz_zeta(3, 1)) <= 10 * res.err_estimate

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            evaluate(single(alpha=-0.5))
        with pytest.raises(InvalidParamsError):
            evaluate(single(beta=0.0))

    def test_non_convergent(self):
        with pytest.raises(NonConvergentError):
            evaluate(single(b=1))

    def test_tolerance_not_reached_flagged(self):
        cfg = EvalConfig(rel_tol=1e-14, max_n=5000)
        spec = NestedSumSpec((IndexWeight(a=2),), (), 0.7, 1.0)
        res = evaluate(spec, cfg)
        assert not res.converged
        # still close: the flagged value carries an honest estimate
        assert abs(res.value - hurwitz_zeta(2, 0.7)) <= 10 * res.err_estimate

    def test_link_count_validation(self):
        with pytest.raises(ValueError):
            NestedSumSpec((IndexWeight(b=2),), (Link.WEAK,), 1.0, 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(n_initial=1)
        with pytest.raises(ValueError):
            EvalConfig(growth=1)
        with pytest.raises(ValueError):
            EvalConfig(rel_tol=2.0)


class TestBruteForceEquivalence:
    # DP partial sums equal naive full enumeration over index tuples,
    # exhaustively over strict/weak link patterns, depth <= 3, N <= 200
    N = 200

    @staticmethod
    def _naive_tensor(spec: NestedSumSpec, n: int) -> float:
        m = np.arange(n + 1, dtype=np.float64)
        weights = []
        for iw in spec.indices:
            w = np.ones(n + 1)
            if iw.a:
                w = w / (m + spec.alpha) ** iw.a
            if iw.b:
                w = w / (m + spec.beta) ** iw.b
            for pf in iw.prefactors:
                if pf is Prefactor.POCH_FIRST:
                    w = w * np.array(poch_ratio_first(spec.alpha, n))
                elif pf is Prefactor.POCH_LAST:
                    w = w * np.array(poch_ratio_last(spec.alpha, n))
                elif pf is Prefactor.POCH_FIRST_ZSTAR:
                    w = w * np.array(poch_ratio_first(spec.beta, n))
                elif pf is Prefactor.POCH_LAST_ZSTAR:
                    w = w * np.array(poch_ratio_last(spec.beta, n)) * (m + spec.alpha)
                elif pf is Prefactor.POCH_LAST_HSTAR:
                    w = w * np.array(poch_ratio_last_shifted(spec.alpha, n))
            weights.append(w)
        d = spec.depth
        grids = np.meshgrid(*([m] * d), indexing="ij", sparse=True)
        mask = np.ones([n + 1] * d, dtype=bool)
        for i, link in enumerate(spec.links):
            if link is Link.STRICT:
                mask &= grids[i] < grids[i + 1]
            else:
                mask &= grids[i] <= grids[i + 1]
        if spec.start_strict:
            mask &= grids[0] >= 1
        term = np.ones([n + 1] * d)
        for i, w in enumerate(weights):
            shape = [1] * d
            shape[i] = n + 1
            term = term * w.reshape(shape)
        total = np.sum(term * mask)
        return complex(total) if np.iscomplexobj(total) else float(total)

    def test_depth_three_all_link_patterns(self):
        idx = (
            IndexWeight(b=1, prefactors=(Prefactor.POCH_FIRST,)),
            IndexWeight(a=1),
            IndexWeight(b=2, prefactors=(Prefactor.POCH_LAST,)),
        )
        for links in itertools.product((Link.STRICT, Link.WEAK), repeat=2):
            spec = NestedSumSpec(idx, links, alpha=0.8, beta=1.3)
            dp = truncated_sum(spec, self.N)
            naive = self._naive_tensor(spec, self.N)
            assert abs(dp - naive) <= 1e-12 * abs(naive), links

    # complex parameters run the complex kernel path; a smaller N keeps the
    # complex depth-3 tensor small
    N_COMPLEX = 80

    @pytest.mark.parametrize("links", list(itertools.product((Link.STRICT, Link.WEAK), repeat=2)))
    @pytest.mark.parametrize("idx", [
        (
            IndexWeight(b=1, prefactors=(Prefactor.POCH_FIRST,)),
            IndexWeight(a=1),
            IndexWeight(b=2, prefactors=(Prefactor.POCH_LAST,)),
        ),
        (
            IndexWeight(a=1, prefactors=(Prefactor.POCH_FIRST_ZSTAR,)),
            IndexWeight(b=1),
            IndexWeight(a=2, prefactors=(Prefactor.POCH_LAST_ZSTAR,)),
        ),
        (
            IndexWeight(a=1),
            IndexWeight(a=1),
            IndexWeight(b=2, prefactors=(Prefactor.POCH_LAST_HSTAR,)),
        ),
    ], ids=["z", "zstar", "hstar"])
    def test_complex_parameters(self, idx, links):
        spec = NestedSumSpec(idx, links, alpha=0.6 + 0.4j, beta=1.3 - 0.2j)
        dp = truncated_sum(spec, self.N_COMPLEX)
        naive = self._naive_tensor(spec, self.N_COMPLEX)
        assert isinstance(dp, complex)
        assert abs(dp - naive) <= 1e-12 * abs(naive)

    def test_depth_two_and_one(self):
        for links, idx in [
            ((), (IndexWeight(b=2, prefactors=(Prefactor.POCH_FIRST, Prefactor.POCH_LAST)),)),
            ((Link.STRICT,), (IndexWeight(b=1), IndexWeight(a=2))),
            ((Link.WEAK,), (IndexWeight(a=1, b=1), IndexWeight(b=2))),
        ]:
            spec = NestedSumSpec(idx, links, alpha=1.5, beta=0.6)
            dp = truncated_sum(spec, self.N)
            naive = self._naive_tensor(spec, self.N)
            assert abs(dp - naive) <= 1e-12 * abs(naive)

    def test_start_strict(self):
        spec = NestedSumSpec((IndexWeight(b=2),), (), 1.0, 1.0, start_strict=True)
        assert abs(truncated_sum(spec, 50) - self._naive_tensor(spec, 50)) < 1e-14

    def test_hstar_prefactor_pattern(self):
        idx = (
            IndexWeight(a=1),
            IndexWeight(b=2, prefactors=(Prefactor.POCH_LAST_HSTAR,)),
        )
        for link in (Link.STRICT, Link.WEAK):
            spec = NestedSumSpec(idx, (link,), alpha=0.75, beta=1.0)
            dp = truncated_sum(spec, self.N)
            naive = self._naive_tensor(spec, self.N)
            assert abs(dp - naive) <= 1e-12 * abs(naive)


class TestMonotonicity:
    def test_partial_sums_increase(self):
        spec = NestedSumSpec(
            (IndexWeight(b=1, prefactors=(Prefactor.POCH_FIRST,)), IndexWeight(b=2)),
            (Link.STRICT,),
            0.9,
            1.1,
        )
        vals = [truncated_sum(spec, n) for n in (10, 50, 250, 1000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPrefactorTelescoping:
    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.6])
    def test_depth_one_collapse(self, alpha):
        # (alpha)_m/m! * m!/(alpha)_{m+1} = 1/(m+alpha): a+b+1 total weight
        spec = NestedSumSpec(
            (IndexWeight(a=1, b=1, prefactors=(Prefactor.POCH_FIRST, Prefactor.POCH_LAST)),),
            (),
            alpha,
            alpha,
        )
        res = evaluate(spec)
        assert abs(res.value - hurwitz_zeta(3, alpha)) < 1e-10


class TestErrEstimateHonesty:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("alpha", [1.0, 0.6])
    def test_hurwitz_anchors(self, k, alpha):
        spec = NestedSumSpec((IndexWeight(a=k),), (), alpha, 1.0)
        res = evaluate(spec, EvalConfig(rel_tol=1e-11))
        true_err = abs(res.value - hurwitz_zeta(k, alpha))
        assert true_err <= 10 * res.err_estimate

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0, 1.5, 2.7, 1 + 2j, 0.5 + 0.5j])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_hurwitz_against_mpmath(self, k, alpha, rel_tol):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        spec = NestedSumSpec((IndexWeight(a=k),), (), alpha, 1.0)
        res = evaluate(spec, EvalConfig(rel_tol=rel_tol))
        truth = complex(mp.zeta(k, mp.mpc(complex(alpha))))
        assert res.converged
        assert abs(res.value - truth) <= res.err_estimate

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
    def test_zeta_two_one(self, rel_tol):
        # Z(1:1,1:2) at (1, 1) is zeta(2,1) = zeta(3)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        res = evaluate(z_spec(parse_word("1:1,1:2"), Params(1.0, 1.0)), EvalConfig(rel_tol=rel_tol))
        assert res.converged
        assert abs(res.value - float(mp.zeta(3))) <= res.err_estimate


# Z(1:1,1:2) at (alpha, 1) has the tail exponents 2, 3, ... and alpha + 1,
# alpha + 2, ...; they coincide at alpha = 1 and are non-integer around it
CLIFF_ALPHAS = [0.99, 0.999, 1.0, 1.001, 1.01, 1.1, 1.5, 2.0]


def z_two_one(alpha: float):
    spec = z_spec(parse_word("1:1,1:2"), Params(alpha, 1.0))
    res = evaluate(spec, EvalConfig(rel_tol=1e-12))
    assert res.converged
    return res


class TestNoResonanceCliff:
    @pytest.mark.parametrize("alpha", CLIFF_ALPHAS)
    def test_terms_bounded(self, alpha):
        res = z_two_one(alpha)
        assert res.n_used <= 262_144
        # by duality it equals Z(1:3)(1, alpha) = sum_m 1 / ((m+1) (m+alpha)^2)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        a = mp.mpf(alpha)
        truth = float(mp.nsum(lambda m: 1 / ((m + 1) * (m + a) ** 2), [0, mp.inf]))
        assert abs(res.value - truth) <= res.err_estimate

    def test_terms_flat_across_alpha(self):
        counts = [z_two_one(alpha).n_used for alpha in CLIFF_ALPHAS]
        assert max(counts) <= 4 * min(counts)

    def test_every_exponent_gets_integer_steps(self):
        behaviour = term_behaviour(z_spec(parse_word("1:1,1:2"), Params(1.001, 1.0)))
        assert [e for e, _ in behaviour] == pytest.approx([-2.0, -2.001, -3.0, -4.0])
        exponents = [s for s, _ in _tail_basis(behaviour)]
        assert exponents == pytest.approx([2.0, 2.001, 3.0, 3.001, 4.0, 4.001, 5.0, 6.0])

    def test_complex_exponents_kept(self):
        # (alpha)_m / m! ~ m^(alpha - 1) keeps Im alpha in the tail exponents
        behaviour = term_behaviour(z_spec(parse_word("1:1,1:2"), Params(1 + 2j, 0.7)))
        assert any(isinstance(e, complex) for e, _ in behaviour)
        assert -behaviour[0][0].real == pytest.approx(2.0)
        assert any(isinstance(s, complex) for s, _ in _tail_basis(behaviour))

    def test_off_axis_exponent_not_resonant(self):
        # sum_{k<=m} k^(-1+2i) ~ C + m^(2i) / (2i): no log, unlike k^-1
        assert all(t == 0 for _, t in _prefix_behaviour([(-1 + 2j, 0)]))
        assert (0.0, 1) in _prefix_behaviour([(-1.0, 0)])


def recorded_partial_sums(spec: NestedSumSpec, n: int):
    """Marks up to n and the outer partial sums at them, as evaluate fits them."""
    prefix = _Stream(spec).run_block(n + 1)
    marks = np.array([m for m in _make_marks(n) if m >= 32], dtype=np.int64)
    return marks, prefix[marks], _tail_basis(term_behaviour(spec))


class TestFitDesignCache:
    SPECS = [
        z_spec(parse_word("1:1,1:2"), Params(1.001, 1.0)),
        z_spec(parse_word("1:1,1:2"), Params(1 + 2j, 0.7)),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["real", "complex"])
    def test_cold_and_warm_fits_identical(self, spec):
        marks, sums, basis = recorded_partial_sums(spec, 4096)
        _fit_design.cache_clear()
        cold = _tail_fit(marks, sums, basis, 1.0)
        warm = _tail_fit(marks, sums, basis, 1.0)
        assert _fit_design.cache_info().hits >= 1
        assert cold is not None and cold == warm

    def test_cached_arrays_read_only(self):
        marks, _, basis = recorded_partial_sums(self.SPECS[1], 4096)
        design = _fit_design(tuple(basis), tuple(int(m) for m in marks))
        for arr in (design.wrow, design.q, design.w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


DEPTH3 = (
    IndexWeight(b=1, prefactors=(Prefactor.POCH_FIRST,)),
    IndexWeight(a=1, b=1),
    IndexWeight(b=2, prefactors=(Prefactor.POCH_LAST,)),
)
# block ends: every index alone; a cut right after m = 0; the first
# blocks evaluate streams (n_initial + 1, then 4 * n_initial + 1)
SPLITS = {
    "ones": list(range(1, 301)),
    "after_zero": [1, 300],
    "evaluate_edges": [4097, 16385, 20000],
}


class TestStreamSplitInvariance:
    # the carries hand each level's prefix across block edges, so a stream
    # cut into blocks anywhere gives the prefixes of one single block
    @pytest.mark.parametrize("split", list(SPLITS))
    @pytest.mark.parametrize("start_strict", [False, True])
    @pytest.mark.parametrize("params", [(0.8, 1.3), (0.6 + 0.4j, 1.3 - 0.2j)], ids=["real", "complex"])
    @pytest.mark.parametrize("links", list(itertools.product((Link.STRICT, Link.WEAK), repeat=2)))
    def test_blocks_match_one_block(self, links, params, start_strict, split):
        spec = NestedSumSpec(DEPTH3, links, *params, start_strict=start_strict)
        edges = SPLITS[split]
        stream = _Stream(spec)
        blocks = np.concatenate([stream.run_block(hi) for hi in edges])
        whole = _Stream(spec).run_block(edges[-1])
        np.testing.assert_allclose(blocks, whole, rtol=1e-15, atol=0)
        if start_strict:
            assert whole[0] == 0


class TestGammaRatioCache:
    SPECS = [single(b=3, prefactors=(pf,), alpha=a, beta=b)
             for pf in Prefactor for a, b in [(0.7, 1.4), (0.6 + 0.4j, 1.3 - 0.2j)]]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.indices[0].prefactors[0].value}-{s.alpha}")
    def test_cold_and_warm_evaluate_identical(self, spec):
        cfg = EvalConfig(rel_tol=1e-12)
        _GAMMA_RATIOS.clear()
        cold = evaluate(spec, cfg)
        assert _GAMMA_RATIOS.hits == 0
        warm = evaluate(spec, cfg)
        assert _GAMMA_RATIOS.hits >= 1
        assert cold == warm

    def test_starred_ratio_shared_with_plain(self):
        # (beta)_m / m! is one array whether it comes from POCH_FIRST in
        # alpha = 1.4 or from POCH_FIRST_ZSTAR in beta = 1.4
        _GAMMA_RATIOS.clear()
        truncated_sum(single(b=3, prefactors=(Prefactor.POCH_FIRST,), alpha=1.4, beta=0.7), 100)
        truncated_sum(single(b=3, prefactors=(Prefactor.POCH_FIRST_ZSTAR,), alpha=0.7, beta=1.4), 100)
        assert (_GAMMA_RATIOS.hits, _GAMMA_RATIOS.misses) == (1, 1)

    def test_cached_arrays_read_only(self):
        spec = self.SPECS[-1]
        arr = _prefactor_array(spec.indices[0].prefactors[0], np.arange(64.0), spec.alpha, spec.beta, lo=0)
        with pytest.raises(ValueError):
            arr[0] = 0.0

    def test_bytes_bounded(self):
        spec = NestedSumSpec(DEPTH3, (Link.STRICT, Link.WEAK), 0.6 + 0.4j, 1.3 - 0.2j)
        _GAMMA_RATIOS.clear()
        truncated_sum(spec, 2**20 - 1)
        assert 0 < _GAMMA_RATIOS.nbytes <= _GAMMA_RATIO_CACHE_BYTES
        assert _GAMMA_RATIOS.misses == 2 * 16  # two ratios, sixteen blocks


def poch(pf: Prefactor, alpha: complex, m) -> np.ndarray:
    """The kernel's Pochhammer-ratio prefactor at the indices m."""
    return _prefactor_array(pf, np.asarray(m, dtype=np.float64), alpha, 1.0)


# each kernel prefactor and the oracle recurrence that tabulates it
POCH_ORACLES = (
    (Prefactor.POCH_FIRST, poch_ratio_first),  # (alpha)_m / m!
    (Prefactor.POCH_LAST, poch_ratio_last),  # m! / (alpha)_{m+1}
    (Prefactor.POCH_LAST_HSTAR, poch_ratio_last_shifted),  # (m+1)! / (alpha)_{m+1}
)


class TestPochhammerLog:
    # the kernel's one Pochhammer path: exp of lgamma_diff in _prefactor_array
    def test_factorial(self):
        # (1)_m = m!, so the three ratios are 1, 1/(m+1) and 1
        m = np.array([1.0, 5.0, 40.0, 1000.0])
        np.testing.assert_allclose(poch(Prefactor.POCH_FIRST, 1.0, m), 1.0, rtol=1e-14)
        np.testing.assert_allclose(poch(Prefactor.POCH_LAST, 1.0, m), 1.0 / (m + 1), rtol=1e-14)
        np.testing.assert_allclose(poch(Prefactor.POCH_LAST_HSTAR, 1.0, m), 1.0, rtol=1e-14)

    def test_zero_length(self):
        # (alpha)_0 = 1 and (alpha)_1 = alpha
        assert math.isclose(poch(Prefactor.POCH_FIRST, 1.7, [0])[0], 1.0, rel_tol=1e-15)
        assert math.isclose(poch(Prefactor.POCH_LAST, 1.7, [0])[0], 1 / 1.7, rel_tol=1e-15)

    def test_half(self):
        # (1/2)_2 / 2! = (1/2)(3/2) / 2
        assert math.isclose(poch(Prefactor.POCH_FIRST, 0.5, [2])[0], 0.375, rel_tol=1e-14)

    def test_pole(self):
        # the Pochhammer base must have a positive real part
        for alpha in (0.0, -2.0):
            spec = single(b=2, prefactors=(Prefactor.POCH_FIRST,), alpha=alpha)
            with pytest.raises(InvalidParamsError):
                evaluate(spec)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 2.5, 0.3 + 0.4j])
    @pytest.mark.parametrize("m", [0, 1, 31, 32, 33, 63, 64, 65, 100])
    def test_matches_recursive_product(self, alpha, m):
        for pf, oracle in POCH_ORACLES:
            want = oracle(alpha, m)[m]
            got = poch(pf, alpha, [m])[0]
            assert abs(got - want) <= 1e-13 * abs(want), pf

    def test_crossover_consistency(self):
        # z = m + 1 = 63 and 64 straddle the lgamma_diff crossover
        a, b = poch(Prefactor.POCH_FIRST, 1.3, [62, 63])
        assert math.isclose(b / a, (1.3 + 62) / 63, rel_tol=1e-13)


class TestLgammaDiff:
    @pytest.mark.parametrize("z,d", [(1e7, 0.6), (1e7, -0.4), (63.0, 1.2), (64.0, 1.2), (2.0, 0.5)])
    def test_against_mpmath(self, z, d):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        truth = float(mp.loggamma(mp.mpf(z) + mp.mpf(d)) - mp.loggamma(mp.mpf(z)))
        got = float(lgamma_diff(np.array([z]), d)[0])
        assert abs(got - truth) < 5e-14 * max(1.0, abs(truth))

    @pytest.mark.parametrize("d", [0.3 + 0.4j, 1 + 2j, -0.3 + 0.7j])
    @pytest.mark.parametrize("z", [64.0, 1e5, 1e7])
    def test_complex_against_mpmath(self, z, d):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        truth = complex(mp.loggamma(mp.mpf(z) + mp.mpc(d.real, d.imag)) - mp.loggamma(mp.mpf(z)))
        got = complex(lgamma_diff(np.array([z]), d)[0])
        assert abs(got - truth) < 5e-14 * max(1.0, abs(truth))


class TestTailPowerLog:
    @staticmethod
    def tail(s: float, t: int, m: int) -> float:
        return float(tail_powers_log(s, t, np.array([m]))[0])

    def test_plain_zeta_tail(self):
        assert math.isclose(self.tail(2, 0, 64), hurwitz_zeta(2, 65), rel_tol=1e-14)

    def test_log_weighted_self_consistency(self):
        for s, t, m in [(1.6, 0, 64), (1.6, 3, 64), (2.0, 2, 100)]:
            k = np.arange(m + 1, m + 200001, dtype=np.float64)
            head = float(np.sum(k ** (-s) * np.log(k) ** t))
            assert math.isclose(
                self.tail(s, t, m),
                head + self.tail(s, t, m + 200000),
                rel_tol=1e-12,
            )

    @pytest.mark.parametrize("s", [2 + 2j, 1.5 + 0.5j])
    @pytest.mark.parametrize("m", [32, 1000, 10**6])
    def test_complex_against_mpmath(self, s, m):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        got = complex(tail_powers_log(s, 0, np.array([m]))[0])
        truth = complex(mp.zeta(mp.mpc(s), m + 1))
        assert abs(got - truth) <= 1e-14 * abs(truth)

    def test_complex_log_weighted_self_consistency(self):
        s, m = 1.5 + 0.5j, 64
        k = np.arange(m + 1, m + 200001, dtype=np.float64)
        head = complex(np.sum(k ** (-s) * np.log(k)))
        got = complex(tail_powers_log(s, 1, np.array([m]))[0])
        rest = complex(tail_powers_log(s, 1, np.array([m + 200000]))[0])
        assert abs(got - (head + rest)) <= 1e-12 * abs(got)


def decay_exponent(spec: NestedSumSpec) -> float:
    """Effective algebraic decay s of the outermost terms (tail ~ N^(1-s))."""
    return -term_behaviour(spec)[0][0]


class TestDecayExponent:
    def test_plain(self):
        assert decay_exponent(single(b=3)) == pytest.approx(3.0)

    def test_growth_through_prefactor(self):
        # (alpha)_m/m! ~ m^(alpha-1) lifts the inner prefix, lowering decay
        spec = NestedSumSpec(
            (IndexWeight(b=1, prefactors=(Prefactor.POCH_FIRST,)), IndexWeight(b=1, prefactors=(Prefactor.POCH_LAST,))),
            (Link.STRICT,),
            1.5,
            1.5,
        )
        # inner prefix grows like m^0.5; outer own decay 1 + 1.5, net 2.0
        assert decay_exponent(spec) == pytest.approx(2.0)
