import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from oracles import (
    evaluate_block_ends,
    fit_windows,
    holder_integral,
    marks_loop,
    poch_ratio_first,
    poch_ratio_last,
    poch_ratio_last_shifted,
    product_one_shot,
    tail_fit_per_size,
    truncated_sum,
)
import mzdual.evaluators
import mzdual.nested_sum
from mzdual.evaluators import (
    Params,
    eval_hurwitz,
    eval_Z,
    hstar_spec,
    hurwitz_spec,
    z_spec,
    zstar_spec,
)
from mzdual.nested_sum import (
    EvalConfig,
    IndexWeight,
    InvalidParamsError,
    Link,
    NestedSumSpec,
    NonConvergentError,
    _FLOOR,
    _MARKS,
    _behaviour,
    _exponents,
    _fit_design,
    _mgs_qr,
    _prefix_behaviour,
    _product_block,
    _shared_product_block,
    _Stream,
    _tail_basis,
    _tail_column,
    _tail_fit,
    evaluate,
    tail_powers_log,
)
from mzdual.verifier import DEFAULT_GRID, SuiteConfig, check_identity, run_suite
from mzdual.words import compositions, parse_word, words_up_to_weight

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854


def single(b=2, a=0, poch=0, alpha=1.0, beta=1.0):
    return NestedSumSpec((IndexWeight(a=a, b=b, poch=poch),), (), alpha, beta)


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

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5 - 0.5j, 100.0])
    def test_every_basis_has_three_columns(self, alpha):
        # every fit tries the basis sizes from 3 up, so every spec of the four
        # compilers needs at least the lead exponent and its two integer steps
        p = Params(alpha, 1.0)
        specs = []
        for w in words_up_to_weight(5):
            specs += [z_spec(w, p), hurwitz_spec(w, alpha)]
            for extra in range(6 - w.weight):
                for r in compositions(extra, w.depth):
                    specs += [zstar_spec(w, r, p), hstar_spec(w, r, alpha)]
        assert len(specs) == 232
        assert all(len(_tail_basis(_exponents(s))) >= 3 for s in specs)

    def test_non_convergent(self):
        # the tail model refuses an outer decay of 1, and evaluate through it
        spec = single(b=1)
        with pytest.raises(NonConvergentError):
            _tail_basis(_exponents(spec))
        with pytest.raises(NonConvergentError):
            evaluate(spec)

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

    def test_empty_spec_is_empty_product(self):
        res = evaluate(NestedSumSpec((), (), alpha=1.3))
        assert res == (1.0, 0.0, 0, True) and type(res.value) is float

    def test_empty_spec_params_checked(self):
        with pytest.raises(InvalidParamsError):
            evaluate(NestedSumSpec((), (), alpha=-1))

    def test_empty_spec_takes_no_link(self):
        with pytest.raises(ValueError):
            NestedSumSpec((), (Link.WEAK,), alpha=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(max_n=2047)
        # the mark table bounds max_n from above
        assert EvalConfig(max_n=int(_MARKS[-1])).max_n == 2**62
        with pytest.raises(ValueError, match="max_n"):
            EvalConfig(max_n=int(_MARKS[-1]) + 1)
        with pytest.raises(ValueError):
            EvalConfig(rel_tol=2.0)


class TestSchedule:
    # every evaluation fits at 2048 * 2**j and streams no further than the
    # last of these <= max_n: one block to _FLOOR (or past the last), then
    # blocks to each checkpoint, _BLOCK at most, so none spans more than _FLOOR
    @pytest.mark.parametrize(
        "max_n,last",
        [(2048, 2048), (3000, 2048), (4096, 4096), (5000, 4096), (8191, 4096), (8192, 8192),
         (16383, 8192), (16384, 16384), (300_000, 262_144)],
    )
    def test_stream_ends_at_last_checkpoint(self, monkeypatch, max_n, last):
        run_block = _Stream.run_block
        his = []

        def recorded(stream, hi):
            his.append(hi)
            return run_block(stream, hi)

        monkeypatch.setattr(_Stream, "run_block", recorded)
        res = evaluate(single(b=2, beta=0.7), EvalConfig(rel_tol=1e-16, max_n=max_n))
        assert not res.converged
        assert res.n_used == last and his == evaluate_block_ends(last)
        assert his[0] == min(8193, last + 1) and his[-1] == last + 1

    def test_unconverged_value_from_last_fit(self):
        # the best of the fits at 2048, ..., 8388608, the last checkpoint
        # <= 10**7; the stream stops there
        res = evaluate(hurwitz_spec(parse_word("1:2"), 0.7), EvalConfig(rel_tol=1e-16, max_n=10**7))
        assert res == (2.8340491566946104, 1.4170245783473053e-14, 8388608, False)

    @pytest.mark.parametrize("limit", [4096, 16384, 4096 * 4**7, 2**62])
    def test_mark_table_is_the_loop(self, limit):
        assert _MARKS[: np.searchsorted(_MARKS, limit, "right")].tolist() == marks_loop(limit)
        assert not _MARKS.flags.writeable

    def test_fit_windows_are_the_old_rule(self, monkeypatch):
        # no fit has a finite value, so each of the 16 checkpoints to 4^13
        # hands its window over; the stream is stubbed, as the windows do not
        # depend on the sums
        def skipped(stream, hi):
            lo, stream.next_m = stream.next_m, hi
            return np.zeros((hi - lo, 2))

        windows = []

        def recorded(marks, sums, basis):
            windows.append(marks.tolist())
            return math.nan, math.inf

        monkeypatch.setattr(_Stream, "run_block", skipped)
        monkeypatch.setattr(mzdual.nested_sum, "_tail_fit", recorded)
        res = evaluate(single(b=2, beta=0.7), EvalConfig(max_n=4**13))
        assert res.n_used == 4**13 and len(windows) == 16
        assert windows == fit_windows(4**13)

    def test_no_fit_gives_unbounded_error(self, monkeypatch):
        # no fit has a finite value: the result is NaN with nothing known of
        # its error, at the last checkpoint
        monkeypatch.setattr(mzdual.nested_sum, "_tail_fit", lambda *args: (math.nan, math.inf))
        res = evaluate(single(b=2, beta=0.7), EvalConfig(max_n=20000))
        assert math.isnan(res.value) and res.err_estimate == math.inf
        assert res.n_used == 16384 and not res.converged


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
            w = w * np.array(poch_ratio_first(spec.alpha, n)) ** iw.poch
            weights.append(w)
        d = spec.depth
        grids = np.meshgrid(*([m] * d), indexing="ij", sparse=True)
        mask = np.ones([n + 1] * d, dtype=bool)
        for i, link in enumerate(spec.links):
            if link is Link.STRICT:
                mask &= grids[i] < grids[i + 1]
            else:
                mask &= grids[i] <= grids[i + 1]
        term = np.ones([n + 1] * d)
        for i, w in enumerate(weights):
            shape = [1] * d
            shape[i] = n + 1
            term = term * w.reshape(shape)
        total = np.sum(term * mask)
        return complex(total) if np.iscomplexobj(total) else float(total)

    def test_depth_three_all_link_patterns(self):
        idx = (
            IndexWeight(b=1, poch=1),
            IndexWeight(a=1),
            IndexWeight(a=1, b=2, poch=-1),
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
            IndexWeight(b=1, poch=1),
            IndexWeight(a=1),
            IndexWeight(a=1, b=2, poch=-1),
        ),
        (
            IndexWeight(a=1, b=1, poch=1),
            IndexWeight(a=1),
            IndexWeight(a=1, b=1, poch=-1),
        ),
        (
            IndexWeight(a=1),
            IndexWeight(a=1),
            IndexWeight(a=1, b=1, poch=-1),
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
            ((), (IndexWeight(a=1, b=2, poch=-1),)),
            ((Link.STRICT,), (IndexWeight(b=1), IndexWeight(a=2))),
            ((Link.WEAK,), (IndexWeight(a=1, b=1), IndexWeight(b=2))),
        ]:
            spec = NestedSumSpec(idx, links, alpha=1.5, beta=0.6)
            dp = truncated_sum(spec, self.N)
            naive = self._naive_tensor(spec, self.N)
            assert abs(dp - naive) <= 1e-12 * abs(naive)

    def test_hstar_prefactor_pattern(self):
        # hstar_spec's last index (m+1)^-(k-1) m!/(alpha)_{m+1}, that is
        # (m+1)^-(k-1) (m+alpha)^-1 over (alpha)_m/m!, is the paper's
        # (m+1)!/(alpha)_{m+1} (m+1)^-k, here with k = 2
        idx = (
            IndexWeight(a=1),
            IndexWeight(a=1, b=1, poch=-1),
        )
        m = np.arange(self.N + 1)
        inner = np.cumsum(1.0 / (m + 0.75))
        last = np.array(poch_ratio_last_shifted(0.75, self.N)) / (m + 1.0) ** 2
        for link in (Link.STRICT, Link.WEAK):
            spec = NestedSumSpec(idx, (link,), alpha=0.75, beta=1.0)
            dp = truncated_sum(spec, self.N)
            shifted = np.concatenate([[0.0], inner[:-1]]) if link is Link.STRICT else inner
            naive = float(np.sum(last * shifted))
            assert abs(dp - naive) <= 1e-12 * abs(naive)


class TestMonotonicity:
    def test_partial_sums_increase(self):
        spec = NestedSumSpec(
            (IndexWeight(b=1, poch=1), IndexWeight(b=2)),
            (Link.STRICT,),
            0.9,
            1.1,
        )
        vals = [truncated_sum(spec, n) for n in (10, 50, 250, 1000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPrefactorTelescoping:
    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.6])
    def test_depth_one_collapse(self, alpha):
        # (alpha)_m/m! * m!/(alpha)_{m+1} = 1/(m+alpha), so the one index of a
        # depth-1 word carries no ratio: Z*(1:2; r = 1) at (alpha, alpha) has
        # the weight (m+alpha)^-(r+1) (m+alpha)^-(k-1), a+b+1 in total
        spec = zstar_spec(parse_word("1:2"), (1,), Params(alpha, alpha))
        assert spec.indices == (IndexWeight(a=2, b=1),)
        res = evaluate(spec)
        assert abs(res.value - hurwitz_zeta(3, alpha)) < 1e-10


class TestHolderOracle:
    # the oracle of the honesty tests against closed forms
    @pytest.mark.parametrize(
        "word,alpha,beta,family,truth",
        [
            ("1:1,1:2", 1.0, 1.0, "Z", lambda mp: mp.zeta(3)),
            ("1:3", 0.7, 0.7, "zeta", lambda mp: mp.zeta(3, 0.7)),
            ("1:2", 0.3 + 0.4j, 0.3 + 0.4j, "zeta", lambda mp: mp.zeta(2, mp.mpc(0.3, 0.4))),
            # sum_m 1 / ((m + a) (m + b)) = (psi(a) - psi(b)) / (a - b)
            ("1:2", 2.5, 0.2, "Z", lambda mp: (mp.psi(0, 2.5) - mp.psi(0, 0.2)) / (mp.mpf(2.5) - mp.mpf(0.2))),
        ],
        ids=["zeta3", "hurwitz3", "hurwitz2-complex", "digamma"],
    )
    def test_closed_forms(self, word, alpha, beta, family, truth):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        want = complex(truth(mp))
        got = holder_integral(parse_word(word), alpha, beta, family)
        assert abs(got - want) <= 1e-14 * abs(want)


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

    # every Z and zeta word of weight <= 4; the deep Z words at
    # (0.3+0.4i, 1.2-0.3i) and 1e-12 are the hardest of these for the fit,
    # and the pairs far from the box guard where the schedule starts: started
    # at 1024, it stops zeta(1:1,1/2:1,1/2:2; 5) at 4096 with twice its estimate
    @pytest.mark.parametrize("family", ["Z", "zeta"])
    @pytest.mark.parametrize(
        "pair,rel_tol",
        [((0.3 + 0.4j, 1.2 - 0.3j), 1e-12), ((0.6 + 0.3j, 0.6 + 0.3j), 1e-12)]
        + [(pair, 1e-10) for pair in DEFAULT_GRID + ((0.3 + 0.4j, 1.2 - 0.3j),)]
        + [(pair, tol) for pair in ((2.5, 0.2), (0.2, 2.5), (5.0, 5.0)) for tol in (1e-9, 1e-12)],
    )
    def test_against_holder(self, pair, rel_tol, family):
        cfg = EvalConfig(rel_tol=rel_tol)
        short = []
        for w in words_up_to_weight(4):
            if family == "Z":
                res = eval_Z(w, Params(*pair), cfg)
            else:
                res = eval_hurwitz(w, pair[0], cfg)
            actual = abs(res.value - holder_integral(w, *pair, family))
            if not (res.converged and actual <= res.err_estimate):
                short.append((str(w), actual / res.err_estimate, res.n_used, res.converged))
        assert not short


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
        spec = z_spec(parse_word("1:1,1:2"), Params(1.001, 1.0))
        behaviour = _behaviour(_exponents(spec))
        assert [e for e, _ in behaviour] == pytest.approx([-2.0, -2.001, -3.0, -4.0])
        exponents = [s for s, _ in _tail_basis(_exponents(spec))]
        assert exponents == pytest.approx([2.0, 2.001, 3.0, 3.001, 4.0, 4.001, 5.0, 6.0])

    def test_complex_exponents_kept(self):
        # (alpha)_m / m! ~ m^(alpha - 1) keeps Im alpha in the tail exponents
        spec = z_spec(parse_word("1:1,1:2"), Params(1 + 2j, 0.7))
        behaviour = _behaviour(_exponents(spec))
        assert any(isinstance(e, complex) for e, _ in behaviour)
        assert -behaviour[0][0].real == pytest.approx(2.0)
        assert any(isinstance(s, complex) for s, _ in _tail_basis(_exponents(spec)))

    def test_off_axis_exponent_not_resonant(self):
        # sum_{k<=m} k^(-1+2i) ~ C + m^(2i) / (2i): no log, unlike k^-1
        assert all(t == 0 for _, t in _prefix_behaviour([(-1 + 2j, 0)]))
        assert (0.0, 1) in _prefix_behaviour([(-1.0, 0)])


class TestLargeAlpha:
    # (alpha)_m / m! ~ m^(alpha - 1) / Gamma(alpha) leaves float64 near
    # m = 49,000 at alpha = 100; a depth-1 word carries no ratio, and a deeper
    # one stops at the end of the first block past that range
    @pytest.mark.parametrize("alpha", [5.0, 40.0, 100.0, 150.0])
    def test_depth_one_needs_no_ratio(self, alpha):
        # Z(1:2; alpha, 1) = sum_m 1 / ((m + alpha) (m + 1)) = (psi(alpha) - psi(1)) / (alpha - 1)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        truth = float((mp.psi(0, alpha) - mp.psi(0, 1)) / (alpha - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = evaluate(z_spec(parse_word("1:2"), Params(alpha, 1.0)))
        assert res.converged
        assert abs(res.value - truth) <= res.err_estimate

    @pytest.mark.parametrize("alpha,stop", [(100.0, 49_152), (150.0, 8192)])
    def test_overflow_stops_at_once(self, alpha, stop):
        # the first block whose outer prefix passes 1e308 ends the stream, long
        # before max_n, with the best fit of the checkpoints before it: near
        # Z(1:3; 1, alpha) = sum_m 1 / ((m+1) (m+alpha)^2), its dual
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        truth = float(mp.nsum(lambda m: 1 / ((m + 1) * (m + alpha) ** 2), [0, mp.inf]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = evaluate(z_spec(parse_word("1:1,1:2"), Params(alpha, 1.0)))
        assert not res.converged and res.err_estimate == math.inf
        assert res.n_used == stop
        assert abs(res.value - truth) <= 1e-4 * truth


class TestComplexCost:
    # a complex tail exponent is one complex column of the fit, so complex
    # parameters stream no more than real ones
    def test_thm11i_complex_grid_streams_as_real(self, monkeypatch):
        # level terms: the indices of each streamed block times the depth
        run_block = _Stream.run_block
        count = [0]

        def counted(stream, hi):
            prefix = run_block(stream, hi)
            count[0] += len(prefix) * stream.spec.depth
            return prefix

        monkeypatch.setattr(_Stream, "run_block", counted)
        streamed = []
        for values in ((0.6 + 0.3j, 1.0, 1.5 - 0.5j), (0.6, 1.0, 1.5)):
            mzdual.evaluators._evaluate_cached.cache_clear()
            count[0] = 0
            grid = tuple((a, b) for a in values for b in values)
            assert run_suite("thm11i", SuiteConfig(weight_max=3, params_grid=grid)).passed
            streamed.append(count[0])
        assert streamed[0] == streamed[1]

    def test_deep_starred_spec(self):
        # a depth-4 starred spec, whose Pochhammer base puts alpha into the
        # tail exponents: the tail of a real alpha needs no more terms
        spec = NestedSumSpec(
            (
                IndexWeight(b=1, poch=1),
                IndexWeight(a=1),
                IndexWeight(a=1),
                IndexWeight(a=1, b=1, poch=-1),
            ),
            (Link.WEAK, Link.WEAK, Link.STRICT),
            0.6 + 0.3j,
            0.6 + 0.3j,
        )
        twin = NestedSumSpec(spec.indices, spec.links, 0.6, 0.6)
        res, real = (evaluate(s, EvalConfig(rel_tol=1e-9)) for s in (spec, twin))
        assert res.converged and res.n_used == real.n_used


def recorded_partial_sums(spec: NestedSumSpec, n: int):
    """Marks up to n and the outer partial sums at them, as evaluate fits
    them: one (hi, lo) pair per mark."""
    prefix = _Stream(spec).run_block(n + 1)
    marks = _MARKS[: np.searchsorted(_MARKS, n, "right")]
    return marks, prefix[marks], _tail_basis(_exponents(spec))


class TestFitDesignCache:
    SPECS = [
        z_spec(parse_word("1:1,1:2"), Params(1.001, 1.0)),
        z_spec(parse_word("1:1,1:2"), Params(1 + 2j, 0.7)),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["real", "complex"])
    def test_cold_and_warm_fits_identical(self, spec):
        marks, sums, basis = recorded_partial_sums(spec, 4096)
        _fit_design.cache_clear()
        cold = _tail_fit(marks, sums, basis)
        warm = _tail_fit(marks, sums, basis)
        assert _fit_design.cache_info().hits >= 1
        assert cold is not None and cold == warm

    @pytest.mark.parametrize("spec", [
        hurwitz_spec(parse_word("1:1,1:2"), 1 + 2j),
        z_spec(parse_word("1:1,1:2"), Params(1.0, 0.6 + 0.3j)),
    ], ids=["zeta-complex-alpha", "Z-complex-beta"])
    def test_err_does_not_depend_on_phase(self, spec):
        # complex sums on a real basis: the residual is a modulus, so turning
        # every sum by one phase turns the value and leaves the err alone.  The
        # residuals are ~1e-12 of the sums, so a turn's rounding alone moves the
        # err by up to ~2e-7, while a max(|Re|, |Im|) norm moves it by 0.6% and 6%.
        # The pairs are turned exactly: each turned sum is split into (hi, lo) again
        marks, sums, basis = recorded_partial_sums(spec, 16_384)
        assert not any(isinstance(s, complex) for s, _ in basis)
        phase = np.exp(0.25j * np.pi)
        value, err = _tail_fit(marks, sums, basis)
        exact = pair_values(sums) * phase
        hi = exact.astype(np.complex128)
        turned_sums = np.stack([hi, (exact - hi).astype(np.complex128)], axis=1)
        turned, turned_err = _tail_fit(marks, turned_sums, basis)
        assert turned == pytest.approx(value * phase, rel=1e-9, abs=0)
        assert turned_err == pytest.approx(err, rel=1e-6, abs=0)

    def test_cached_arrays_read_only(self):
        marks, _, basis = recorded_partial_sums(self.SPECS[1], 4096)
        design = _fit_design(tuple(basis), tuple(int(m) for m in marks))
        for arr in (design.wrow, design.q, design.w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestFitGuards:
    def test_nan_sum_gives_no_value(self):
        # one recorded sum that is NaN leaves no basis size a finite value
        spec = NestedSumSpec((IndexWeight(a=2),), (), 0.7, 1.0)
        marks, sums, basis = recorded_partial_sums(spec, 4096)
        sums[len(sums) // 2] = np.nan
        value, err = _tail_fit(marks, sums, basis)
        assert math.isnan(value) and err == math.inf

    def test_dependent_column_dropped(self):
        # the middle column is twice the first: it is dropped, and its q column stays zero
        a = np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
        q, r, kept = _mgs_qr(a)
        assert kept == [0, 2]
        assert not q[:, 1].any()
        assert np.allclose(q[:, kept].T @ q[:, kept], np.eye(2))
        assert np.allclose(q @ r, a)


DEPTH3 = (
    IndexWeight(b=1, poch=1),
    IndexWeight(a=1, b=1),
    IndexWeight(a=1, b=2, poch=-1),
)
# the ratio on every index, squared on the first, so that each level
# rebuilds its block from the one carry, and one divides by it mid-stream
DEPTH3_EVERY_INDEX = (
    IndexWeight(b=1, poch=2),
    IndexWeight(a=1, b=1, poch=-1),
    DEPTH3[2],
)
# block ends: every index alone; a cut right after m = 0; a cut after each
# of the first checkpoints (_N_INITIAL * 2**j + 1: "evaluate_edges");
# and the blocks evaluate streams, to _FLOOR, then to the next checkpoint + 1,
# and on in blocks of _BLOCK
SPLITS = {
    "ones": list(range(1, 301)),
    "after_zero": [1, 300],
    "evaluate_edges": [2049, 4097, 8193, 20000],
    "first_block_edges": [8193, 16385, 20000],
    "later_blocks": [8193, 16385, 24577, 32769, 40000],
}


class TestStreamSplitInvariance:
    # the carries hand each level's prefix across block edges, so a stream
    # cut into blocks anywhere gives the prefixes of one single block.  The
    # values the (hi, lo) pairs stand for are compared: numpy's complex
    # multiply rounds by position in the array, so a term can differ by an
    # ulp between two splits, and hi and lo each with it
    @pytest.mark.parametrize("split", list(SPLITS))
    @pytest.mark.parametrize("every_index", [False, True])
    @pytest.mark.parametrize("params", [(0.8, 1.3), (0.6 + 0.4j, 1.3 - 0.2j)], ids=["real", "complex"])
    @pytest.mark.parametrize("links", list(itertools.product((Link.STRICT, Link.WEAK), repeat=2)))
    def test_blocks_match_one_block(self, links, params, every_index, split):
        spec = NestedSumSpec(DEPTH3_EVERY_INDEX if every_index else DEPTH3, links, *params)
        edges = SPLITS[split]
        stream = _Stream(spec)
        blocks = np.concatenate([stream.run_block(hi) for hi in edges])
        whole = _Stream(spec).run_block(edges[-1])
        np.testing.assert_allclose(pair_values(blocks), pair_values(whole), rtol=1e-15, atol=0)


class TestStreamMemory:
    # every block is one pass over at most _FLOOR indices, so the stream's
    # temporaries do not grow with max_n: a depth-3 complex evaluation to
    # 2^20 terms peaks at 1.1 MiB with warm memos; blocks of 65,536 indices
    # would reach 6.9
    def test_peak_does_not_grow_with_the_stream(self):
        spec = z_spec(parse_word("1:1,1:1,1:2"), Params(0.6 + 0.3j, 1.5))
        cfg = EvalConfig(rel_tol=1e-16, max_n=2**20)
        evaluate(spec, cfg)  # the memos, warm
        tracemalloc.start()
        try:
            res = evaluate(spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_used == 2**20
        assert peak < 2 * 2**20, peak / 2**20


def pair_values(pairs: np.ndarray) -> np.ndarray:
    """The values that rows of (hi, lo) pairs stand for, in long double."""
    hi, lo = pairs.T
    return hi.astype(np.clongdouble if np.iscomplexobj(hi) else np.longdouble) + lo


def clear_shared_work():
    for cache in (_shared_product_block, _tail_basis, _tail_column, _fit_design):
        cache.cache_clear()


class TestSharedWork:
    # work shared across specs gives the bytes of work done per spec
    @pytest.mark.parametrize("alpha", [1.3, 0.6 + 0.4j], ids=["real", "complex"])
    # the ratio's two powers, under the ids of the two weights they stream:
    # (alpha)_m / m!, and m! / (alpha)_{m+1} = (m + alpha)^-1 over it
    @pytest.mark.parametrize("power", [1, -1], ids=["Prefactor.POCH_FIRST", "Prefactor.POCH_LAST"])
    def test_chunked_product_is_one_cumprod(self, power, alpha):
        # each call is one cumprod; the second takes the carry across the
        # edge between the two calls, as later blocks of a stream do
        head, head_carry = _product_block(alpha, 0, 5000, None)
        tail, carry = _product_block(alpha, 5000, 70_000, head_carry)
        want, want_carry = product_one_shot(alpha, 0, 70_000, None)
        assert np.concatenate([head, tail]).tobytes() == want.tobytes()
        assert head_carry == product_one_shot(alpha, 0, 5000, None)[1]
        assert carry == want_carry
        want_tail, _ = product_one_shot(alpha, 5000, 70_000, head_carry)
        assert tail.tobytes() == want_tail.tobytes()
        # an index streams that product, to its power, across the same edge
        m = np.arange(70_000)
        weight = poch(IndexWeight(a=int(power < 0), poch=power), alpha, m, edges=[5000, 70_000])
        expect = want if power > 0 else 1.0 / (m + alpha) / want
        assert weight.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("alpha", [1.3, 0.6 + 0.4j], ids=["real", "complex"])
    def test_shared_block_is_a_fresh_block(self, alpha):
        clear_shared_work()
        for _ in range(2):  # a miss, then a hit
            shared = _shared_product_block(alpha, _FLOOR)
            fresh = _product_block(alpha, 0, _FLOOR, None)
            assert shared[0].tobytes() == fresh[0].tobytes() and shared[1] == fresh[1]
        assert _shared_product_block.cache_info()[:2] == (1, 1)  # hits, misses
        with pytest.raises(ValueError):
            shared[0][0] = 0.0

    def test_ratio_built_once_per_block(self, monkeypatch):
        # three indices carry the ratio, and one build serves them all: the
        # shared first block, then one build for each later block
        builds = []
        product_block = _product_block

        def counted(alpha, lo, hi, carry):
            builds.append((lo, hi))
            return product_block(alpha, lo, hi, carry)

        monkeypatch.setattr(mzdual.nested_sum, "_product_block", counted)
        _shared_product_block.cache_clear()
        stream = _Stream(NestedSumSpec(DEPTH3_EVERY_INDEX, (Link.STRICT, Link.WEAK), 0.8, 1.3))
        for hi in SPLITS["first_block_edges"]:
            stream.run_block(hi)
        assert builds == [(0, 8193), (8193, 16385), (16385, 20000)]

    def test_one_check_misses_once_per_block(self):
        # a check streams the first block of the one ratio at two bases,
        # (alpha, beta) and (beta, alpha), each built once
        clear_shared_work()
        mzdual.evaluators._evaluate_cached.cache_clear()
        check = check_identity("thm11i", parse_word("1:1,1/2:2"), 1, Params(0.6, 1.5))
        assert check.passed
        info = _shared_product_block.cache_info()
        assert info.misses == 2 and info.hits > 0 and info.currsize == info.maxsize == 2

    def test_tail_model_shared_by_equal_exponents(self):
        # the tail model reads only the exponents: the indices of the two
        # specs differ, and every index weight of both behaves like m^-2
        _tail_basis.cache_clear()
        for indices in ((IndexWeight(a=1, b=1), IndexWeight(a=2)),
                        (IndexWeight(a=2), IndexWeight(b=2))):
            assert evaluate(NestedSumSpec(indices, (Link.STRICT,), 0.7, 1.3)).converged
        assert _tail_basis.cache_info()[:2] == (1, 1)  # hits, misses

    def test_memos_hold_a_suite_without_evicting(self):
        # the derivative suite's circle points make the largest working set at
        # a given weight; every miss stays cached, so none is made twice
        clear_shared_work()
        mzdual.evaluators._evaluate_cached.cache_clear()
        assert run_suite("derivative", SuiteConfig(weight_max=3)).passed
        for memo in (_fit_design, _tail_column, _tail_basis):
            info = memo.cache_info()
            assert info.misses == info.currsize > 0, (memo.__name__, info)

    def test_one_pass_fit_is_the_per_size_fit(self, monkeypatch):
        # every fit of a real and a complex thm11i suite, and the recorded
        # sums of real and complex designs, complex sums on a real basis
        # among them, at several lengths
        fits = []

        def checked(marks, sums, basis):
            got = _tail_fit(marks, sums, basis)
            fits.append((got, tail_fit_per_size(marks, sums, basis)))
            return got

        monkeypatch.setattr(mzdual.nested_sum, "_tail_fit", checked)
        mzdual.evaluators._evaluate_cached.cache_clear()
        grid = ((0.6, 1.5), (1.5 - 0.5j, 1.0), (1.0, 0.6 + 0.3j))
        run_suite("thm11i", SuiteConfig(weight_max=3, params_grid=grid))
        # and noisy sums, where the noise term sets the error of every size
        noise = np.random.default_rng(7)
        for spec in (*TestFitDesignCache.SPECS, hurwitz_spec(parse_word("1:1,1:2"), 1 + 2j)):
            for n in (4096, 16_384, 65_536):
                marks, sums, basis = recorded_partial_sums(spec, n)
                for y in (sums, sums * (1 + 1e-9 * noise.standard_normal(len(sums))[:, None])):
                    fits.append((_tail_fit(marks, y, basis), tail_fit_per_size(marks, y, basis)))
        assert len(fits) > 150
        assert all(math.isfinite(got[1]) and got == want for got, want in fits)

    def test_evaluation_order_invisible(self):
        # the same specs forward and in reverse, each run from cold caches
        words = words_up_to_weight(4)
        # a first index that divides by the shared block, then Z and Z*
        both = IndexWeight(a=1, poch=-1)
        specs = []
        for alpha, beta in ((0.6, 1.5), (1.5, 0.6), (0.6 + 0.3j, 1.0)):
            specs.append(NestedSumSpec((both, IndexWeight(b=2)), (Link.STRICT,), alpha, beta))
            p = Params(alpha, beta)
            for w in words:
                specs += [z_spec(w, p), zstar_spec(w, (1,) * w.depth, p)]
        runs = []
        for order in (specs, specs[::-1]):
            clear_shared_work()
            runs.append({spec: evaluate(spec) for spec in order})
        assert _shared_product_block.cache_info().hits > 0
        assert runs[0] == runs[1]


FIRST = IndexWeight(poch=1)  # (alpha)_m / m!
LAST = IndexWeight(a=1, poch=-1)  # m! / (alpha)_{m+1} = (m+alpha)^-1 m! / (alpha)_m
# hstar_spec's last index at k = 2: (m+1)^-1 m! / (alpha)_{m+1}, which is
# the paper's (m+1)! / (alpha)_{m+1} times (m+1)^-2
HSTAR_LAST = IndexWeight(a=1, b=1, poch=-1)


def poch(iw: IndexWeight, alpha: complex, m, edges=None) -> np.ndarray:
    """The kernel's streamed weight of the one index iw, in base alpha and
    with beta = 1, at the indices m, from blocks ending at edges, by
    default the blocks evaluate streams."""
    m = np.asarray(m)
    if edges is None:
        edges = evaluate_block_ends(int(m.max()))
    stream = _Stream(NestedSumSpec((iw,), (), alpha, 1.0))
    w = []
    for hi in edges:
        x = np.arange(stream.next_m, hi, dtype=np.float64)
        w.append(stream._weights_block(0, x, stream._ratio_block(hi)))
        stream.next_m = hi
    return np.concatenate(w)[m]


def _hstar_last_oracle(alpha: complex, n: int) -> list:
    return [x / (m + 1) ** 2 for m, x in enumerate(poch_ratio_last_shifted(alpha, n))]


# each kernel weight and the oracle recurrence that tabulates it
POCH_ORACLES = (
    (FIRST, poch_ratio_first),  # (alpha)_m / m!
    (LAST, poch_ratio_last),  # m! / (alpha)_{m+1}
    (HSTAR_LAST, _hstar_last_oracle),  # (m+1)! / (alpha)_{m+1} (m+1)^-2
)


class TestPochhammerLog:
    # the kernel's one Pochhammer path: running products streamed by _Stream
    def test_factorial(self):
        # (1)_m = m!, so the three weights are 1, 1/(m+1) and 1/(m+1)^2
        m = np.array([1, 5, 40, 1000])
        np.testing.assert_allclose(poch(FIRST, 1.0, m), 1.0, rtol=1e-14)
        np.testing.assert_allclose(poch(LAST, 1.0, m), 1.0 / (m + 1), rtol=1e-14)
        np.testing.assert_allclose(poch(HSTAR_LAST, 1.0, m), 1.0 / (m + 1) ** 2, rtol=1e-14)

    def test_zero_length(self):
        # (alpha)_0 = 1 and (alpha)_1 = alpha
        assert poch(FIRST, 1.7, [0])[0] == 1.0
        assert math.isclose(poch(LAST, 1.7, [0])[0], 1 / 1.7, rel_tol=1e-15)

    def test_half(self):
        # (1/2)_2 / 2! = (1/2)(3/2) / 2
        assert math.isclose(poch(FIRST, 0.5, [2])[0], 0.375, rel_tol=1e-14)

    def test_pole(self):
        # the Pochhammer base must have a positive real part
        for alpha in (0.0, -2.0):
            spec = single(b=2, poch=1, alpha=alpha)
            with pytest.raises(InvalidParamsError):
                evaluate(spec)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 2.5, 0.3 + 0.4j])
    @pytest.mark.parametrize("m", [0, 1, 31, 32, 33, 63, 64, 65, 100])
    def test_matches_recursive_product(self, alpha, m):
        for iw, oracle in POCH_ORACLES:
            want = oracle(alpha, m)[m]
            got = poch(iw, alpha, [m])[0]
            assert abs(got - want) <= 1e-13 * abs(want), iw

    @pytest.mark.parametrize("edge", [4097, 16385])
    def test_block_edge_consistency(self, edge):
        # the product carried across a block edge takes the same step as
        # one inside a block: (1.3)_m / m! grows by (1.3 + m - 1) / m
        a, b, c = poch(FIRST, 1.3, [edge - 1, edge, edge + 1], edges=[edge, edge + 2])
        assert math.isclose(b / a, (1.3 + edge - 1) / edge, rel_tol=1e-15)
        assert math.isclose(c / b, (1.3 + edge) / (edge + 1), rel_tol=1e-15)

    @pytest.mark.parametrize("base", [0.6, 1.5, 0.3 + 0.4j, 1 + 2j])
    @pytest.mark.parametrize(
        "iw", [FIRST, LAST, HSTAR_LAST], ids=["poch_first", "poch_last", "poch_last_hstar"]
    )
    def test_against_mpmath(self, iw, base):
        # no loss of order m * eps out to m = 2^22 - 1, 67 blocks deep
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        b = mp.mpmathify(base)
        ms = [0, 1, 4096, 4097, 16384, 65536, 2**22 - 1]
        truth = {
            FIRST: lambda m: mp.rf(b, m) / mp.factorial(m),
            LAST: lambda m: mp.factorial(m) / mp.rf(b, m + 1),
            HSTAR_LAST: lambda m: mp.factorial(m + 1) / mp.rf(b, m + 1) / (m + 1) ** 2,
        }[iw]
        for m, got in zip(ms, poch(iw, base, ms)):
            want = truth(m)
            assert abs(mp.mpmathify(complex(got)) - want) <= 2e-15 * abs(want), m


class TestTailPowerLog:
    @staticmethod
    def tail(s: float, t: int, m: int) -> float:
        return float(tail_powers_log(s, t, np.array([m]))[0])

    def test_plain_zeta_tail(self):
        assert math.isclose(self.tail(2, 0, 64), hurwitz_zeta(2, 65), rel_tol=1e-14)

    @pytest.mark.parametrize("s", [1.0, 0.5, 1.0 + 2j])
    def test_needs_re_s_above_one(self, s):
        # the tail of m^-s diverges for Re s <= 1
        with pytest.raises(ValueError, match="Re s > 1"):
            tail_powers_log(s, 0, np.array([64]))

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
    return -_behaviour(_exponents(spec))[0][0]


class TestDecayExponent:
    def test_plain(self):
        assert decay_exponent(single(b=3)) == pytest.approx(3.0)

    def test_growth_through_prefactor(self):
        # (alpha)_m/m! ~ m^(alpha-1) lifts the inner prefix, lowering decay
        spec = NestedSumSpec(
            (IndexWeight(b=1, poch=1), IndexWeight(a=1, b=1, poch=-1)),
            (Link.STRICT,),
            1.5,
            1.5,
        )
        # inner prefix grows like m^0.5; outer own decay 1 + 1.5, net 2.0
        assert decay_exponent(spec) == pytest.approx(2.0)
