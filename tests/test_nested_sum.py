import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

import oracles
from oracles import (
    evaluate_block_ends,
    holder_integral,
    poch_ratio_first,
    poch_ratio_last,
    poch_ratio_last_shifted,
    product_one_shot,
    truncated_sum,
)
import mzdual.evaluators
import mzdual.nested_sum
from mzdual.evaluators import (
    Params,
    eval_family,
    eval_terms,
    hstar_spec,
    hurwitz_spec,
    z_spec,
    zstar_spec,
)
from mzdual.nested_sum import (
    _EPS,
    _MAX_N,
    _N_START,
    EvalConfig,
    IndexWeight,
    InvalidParamsError,
    Link,
    NestedSumSpec,
    NonConvergentError,
    _basis,
    _expand,
    _inner_level,
    _lead_decay,
    _plan,
    _pochhammer_log,
    _product_block,
    _scale,
    _STACK,
    _Stream,
    _tail_fit,
    _weight,
    evaluate,
    first_states,
)
from mzdual.cli import parse_grid
from mzdual.verifier import DEFAULT_GRID, RELATIONS, SuiteConfig, run_suite
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
    def test_every_compiled_spec_stops_at_its_first_n(self, alpha):
        # the expansions are exact to 1e-17 of their lead at the first N, so
        # every spec of the four compilers meets the default tolerance there:
        # N = 1,024, or 8,192 at alpha = 100, where the ratio stays in range
        p = Params(alpha, 1.0)
        specs = []
        for w in words_up_to_weight(5):
            specs += [z_spec(w, p), hurwitz_spec(w, alpha)]
            for extra in range(6 - w.weight):
                for r in compositions(extra, w.depth):
                    specs += [zstar_spec(w, r, p), hstar_spec(w, r, alpha)]
        assert len(specs) == 232
        first = 8192 if alpha == 100.0 else _N_START
        results = [evaluate(s) for s in specs]
        assert all(res.converged and res.n_used == first for res in results)

    @pytest.mark.parametrize("alpha", [1e-160, 1e-200, 1e-300])
    def test_strict_link_has_no_term_below_zero(self, alpha):
        # zeta(1:1,1:2; alpha) = sum_{m1 < m2} (m1 + alpha)^-1 (m2 + alpha)^-2
        # is zeta(2) / alpha but for 1e-150 of it.  A strict link's first term
        # at m = 0 is 0, with no prefix below it, though (0 + alpha)^-2 is inf
        mp = pytest.importorskip("mpmath")
        res = eval_family("zeta", parse_word("1:1,1:2"), (), Params(alpha, 1.0))
        assert res.converged and res.n_used == _N_START
        assert abs(res.value - float(mp.zeta(2) / mp.mpf(alpha))) <= res.err_estimate

    def test_non_convergent(self):
        # an outer decay of 1 is refused before anything is streamed
        spec = single(b=1)
        assert _lead_decay(spec) == -1.0
        with pytest.raises(NonConvergentError):
            evaluate(spec)

    def test_tolerance_not_reached_flagged(self):
        # no error estimate is below eps |value|, so 1e-17 is never met
        cfg = EvalConfig(rel_tol=1e-17, max_n=5000)
        spec = NestedSumSpec((IndexWeight(a=2),), (), 0.7, 1.0)
        res = evaluate(spec, cfg)
        assert not res.converged and res.n_used == 4096
        # still close: the flagged value carries an honest estimate
        assert abs(res.value - hurwitz_zeta(2, 0.7)) <= 10 * res.err_estimate

    def test_link_count_validation(self):
        with pytest.raises(ValueError):
            NestedSumSpec((IndexWeight(b=2),), (Link.WEAK,), 1.0, 1.0)

    @pytest.mark.parametrize(
        "make,expected",
        [
            # sum (m + 1.5)^2 / (m + 1)^5 = 2.5436 "converged" to 0.4498, as (m + 1.5)^-2 was streamed
            (lambda: single(a=-2, b=5, alpha=1.5), ValueError),
            # sum (m + 1.5) / (m + 1)^3 = 2.2460 streamed 67,108,864 terms to 0.4687
            (lambda: single(a=-1, b=3, alpha=1.5), ValueError),
            # the link "<" was read as weak: 2.4041, not zeta(2, 1) = zeta(3)
            (lambda: NestedSumSpec((IndexWeight(b=1), IndexWeight(b=2)), ("<",), 1.0, 1.0), ValueError),
            # lists were unhashable in the level memo; they are kept as tuples
            (lambda: NestedSumSpec([IndexWeight(b=1), IndexWeight(b=2)], [Link.STRICT], 1.0, 1.0), ZETA3),
            # a float exponent failed in range()
            (lambda: single(b=2.0), ValueError),
        ],
        ids=["a=-2", "a=-1", "string-link", "lists", "float-exponent"],
    )
    def test_spec_fields_checked(self, make, expected):
        if expected is ValueError:
            with pytest.raises(ValueError):
                make()
            return
        spec = make()
        res = evaluate(spec)
        assert type(spec.indices) is tuple and type(spec.links) is tuple
        assert res.converged and abs(res.value - expected) <= res.err_estimate + 2 * _EPS * expected

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
        # max_n is at least the first N, and at most 2^62
        with pytest.raises(ValueError):
            EvalConfig(max_n=_N_START - 1)
        assert EvalConfig(max_n=_MAX_N).max_n == 2**62
        with pytest.raises(ValueError, match="max_n"):
            EvalConfig(max_n=_MAX_N + 1)
        with pytest.raises(ValueError):
            EvalConfig(rel_tol=2.0)


class TestSchedule:
    # N doubles from its first value while the error exceeds the tolerance and
    # 2N <= max_n, so an evaluation streams to the last N <= max_n at most, in
    # blocks that end at each N read, _BLOCK apart at most; the first N / 2 and
    # N are read from one block [0, N] when it holds N + 1 <= _BLOCK indices
    @pytest.mark.parametrize(
        "max_n,last",
        [(2048, 2048), (3000, 2048), (4096, 4096), (5000, 4096), (8191, 4096), (8192, 8192),
         (16383, 8192), (16384, 16384), (300_000, 262_144)],
    )
    def test_stream_ends_at_last_checkpoint(self, monkeypatch, max_n, last):
        run_block = _Stream.run_block
        his = []

        def recorded(stream, hi, *marks):
            his.append(hi)
            return run_block(stream, hi, *marks)

        monkeypatch.setattr(_Stream, "run_block", recorded)
        res = evaluate(single(b=2, beta=0.7), EvalConfig(rel_tol=1e-16, max_n=max_n))
        assert not res.converged
        assert res.n_used == last and his == evaluate_block_ends(last)
        assert his[0] == 1025 and his[-1] == last + 1

    def test_stream_reads_forward(self):
        # states(n) streams to index n and gives the state there; a later read
        # continues the same stream, which cannot go back, and a state whose
        # level sums are not finite is None
        spec = single(b=2, beta=0.7)
        stream = _Stream(spec)
        (_, ratio), = stream.states(4096)
        assert stream.next_m == 4097 and ratio is None
        assert stream.states(8192) == _Stream(spec).states(8192) and stream.next_m == 8193
        with pytest.raises(ValueError):
            stream.states(2048)
        overflow = _Stream(z_spec(parse_word("1:1,1:2"), Params(300.0, 1.0)))
        assert overflow.states(512)[0] is not None and overflow.states(8192) == [None]

    @pytest.mark.parametrize("alpha", [0.6, 0.6 + 0.3j], ids=["real", "complex"])
    def test_one_block_reads_both_states(self, alpha):
        # the state at N / 2 read off the column of the block [0, N] is the
        # one a block ending there gives, and so is the state at N
        spec = z_spec(parse_word("1:1,1/2:1,1:2"), Params(alpha, 1.5))
        stream = _Stream(spec)
        assert stream.states(512, 1024) == _Stream(spec).states(512) + _Stream(spec).states(1024)
        assert stream.next_m == 1025

    def test_block_before_both_states(self):
        # at beta = 200 the first N is 16,384: the first block, [0, 8,192), ends
        # before N / 2 and gives no state, so N / 2 and N give one state each
        spec = z_spec(parse_word("1:1,1:2"), Params(0.6, 200.0))
        half, full = _Stream(spec).states(8192, 16384)
        assert [half, full] == _Stream(spec).states(8192) + _Stream(spec).states(16384) and full
        assert evaluate(spec).n_used == 16384

    def test_overflow_at_n_half_stops_the_stream(self, monkeypatch):
        # a state that is None ends the stream: a first N of 16,384 reads
        # N / 2 = 8,192 in two blocks, and after its None nothing is streamed
        run_block = _Stream.run_block
        his = []

        def recorded(stream, hi, *marks):
            his.append(hi)
            return run_block(stream, hi, *marks)

        monkeypatch.setattr(_Stream, "run_block", recorded)
        stream = _Stream(z_spec(parse_word("1:1,1:2"), Params(300.0, 1.0)))
        assert stream.states(8192, 16384) == [None, None] and his == [8192, 8193]
        # one block reads both; the None at N / 2 is reported at N / 2
        res = evaluate(hurwitz_spec(parse_word("1:3"), 1e-110))
        assert res.n_used == 512 and math.isnan(res.value) and res.err_estimate == math.inf

    def test_first_n_of_8192_streams_two_blocks(self, monkeypatch):
        # at (100, 1) the first N is 8,192: one block to N / 2 and one to N,
        # where the value converges
        run_block = _Stream.run_block
        his = []

        def recorded(stream, hi, *marks):
            his.append(hi)
            return run_block(stream, hi, *marks)

        monkeypatch.setattr(_Stream, "run_block", recorded)
        res = evaluate(z_spec(parse_word("1:1,1:2"), Params(100.0, 1.0)))
        assert res.converged and res.n_used == 8192 and his == [4097, 8193]

    def test_unconverged_value_from_last_fit(self):
        # the best of the values at 1024, ..., 8388608, the last N <= 10**7;
        # the stream stops there
        res = evaluate(hurwitz_spec(parse_word("1:2"), 0.7), EvalConfig(rel_tol=1e-16, max_n=10**7))
        assert res == (2.834049156694611, 2.5171413013534525e-15, 8388608, False)

    def test_no_fit_gives_unbounded_error(self, monkeypatch):
        # no fit has a finite value: the result is NaN with nothing known of
        # its error, at the last N
        monkeypatch.setattr(mzdual.nested_sum, "_tail_fit", lambda *args: (math.nan, math.inf))
        res = evaluate(single(b=2, beta=0.7), EvalConfig(max_n=20000))
        assert math.isnan(res.value) and res.err_estimate == math.inf
        assert res.n_used == 16384 and not res.converged

    @pytest.mark.parametrize("x,first", [(1.5, 1024), (20.0, 1024), (40.0, 2048), (150.0, 8192)])
    def test_first_n_grows_with_the_parameters(self, monkeypatch, x, first):
        # the first N is the least power of two from 1,024 with (x / N)^10 <= 1e-17
        # (x = max(|alpha|, |beta|)), and the fit runs there first
        ns = []

        def recorded(spec, n, half, full):
            ns.append(n)
            return 1.0, 0.0

        monkeypatch.setattr(mzdual.nested_sum, "_tail_fit", recorded)
        assert evaluate(single(b=2, beta=x)).n_used == first
        assert ns == [first]

    def test_n_doubles_while_err_exceeds_the_tolerance(self, monkeypatch):
        # the error halves with each doubling; the first that meets rel_tol stops
        ns = []

        def recorded(spec, n, half, full):
            ns.append(n)
            return 1.0, 1e-6 * 1024 / n

        monkeypatch.setattr(mzdual.nested_sum, "_tail_fit", recorded)
        res = evaluate(single(b=2), EvalConfig(rel_tol=1e-7))
        assert ns == [1024, 2048, 4096, 8192, 16384] and res == (1.0, 6.25e-8, 16384, True)


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
        want = truth(mp)
        got = holder_integral(parse_word(word), alpha, beta, family)
        assert abs(got - want) <= 1e-24 * abs(want)


class TestErrEstimateHonesty:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("alpha", [1.0, 0.6])
    def test_hurwitz_anchors(self, k, alpha):
        spec = NestedSumSpec((IndexWeight(a=k),), (), alpha, 1.0)
        res = evaluate(spec, EvalConfig(rel_tol=1e-11))
        true_err = abs(res.value - hurwitz_zeta(k, alpha))
        assert true_err <= 10 * res.err_estimate

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0, 1.5, 2.7, 1 + 2j, 0.5 + 0.5j, 0.2, 0.3 + 0.4j])
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

    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-13])
    def test_hurwitz_estimate_is_tight(self, rel_tol):
        # zeta(2, 2.7) once streamed 65,536 terms at 1e-12, against an estimate
        # 25 times its error; its estimate now bounds the error from above, by
        # at most 100 times that error or 1e-14 of the value, at 1,024 terms
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        res = evaluate(hurwitz_spec(parse_word("1:2"), 2.7), EvalConfig(rel_tol=rel_tol))
        actual = abs(res.value - float(mp.zeta(2, 2.7)))
        assert res.converged and res.n_used <= 2048
        assert actual <= res.err_estimate <= max(100 * actual, 1e-14 * abs(res.value))

    # every Z and zeta word of weight <= 4; the pairs far from the box guard
    # where the first N is, and the complex and small-parameter ones the
    # cancellation in the constants
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
            res = eval_family(family, w, (), Params(*pair), cfg)
            ref = holder_integral(w, *pair, family)
            actual = abs(res.value - ref)
            if not (res.converged and actual <= res.err_estimate):
                short.append((str(w), float(actual / res.err_estimate), res.n_used, res.converged))
        assert not short


AUDIT_PAIRS = [(0.6, 1.5), (1.0, 1.0), (0.3 + 0.4j, 1.2 - 0.3j)]


class TestAccuracyAudit:
    # every Z and zeta value of weight <= 4 against the Hoelder integral, and
    # every Z* and H* value through the relations of Theorems 1.1(i) and 3.1,
    # whose other sides are those values: at rel_tol 1e-13, each side's
    # estimate bounds its error, an independent method checking the kernel
    CFG = EvalConfig(rel_tol=1e-13)

    @pytest.mark.parametrize("pair", AUDIT_PAIRS)
    @pytest.mark.parametrize("family", ["Z", "zeta"])
    def test_values_against_the_integral(self, family, pair):
        short = []
        for w in words_up_to_weight(4):
            res = eval_family(family, w, (), Params(*pair), self.CFG)
            ref = holder_integral(w, *pair, family)
            if not (res.converged and abs(res.value - ref) <= res.err_estimate):
                short.append((str(w), float(abs(res.value - ref) / res.err_estimate)))
        assert not short

    @pytest.mark.parametrize("pair", AUDIT_PAIRS)
    @pytest.mark.parametrize("identity", ["thm11i", "thm31"])
    def test_relations_within_their_estimates(self, identity, pair):
        p = Params(*pair) if identity == "thm11i" else Params(pair[0])
        short = []
        for w in words_up_to_weight(4):
            for r in range(3):
                lhs, rhs = (eval_terms(side, p, self.CFG) for side in RELATIONS[identity](w, r))
                dev = abs(complex(lhs.value) - complex(rhs.value))
                if not (lhs.converged and rhs.converged and dev <= lhs.err_estimate + rhs.err_estimate):
                    short.append((str(w), r, dev / (lhs.err_estimate + rhs.err_estimate)))
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
        assert max(counts) == min(counts) == _N_START

    def test_every_exponent_gets_integer_steps(self):
        # at alpha = 1.001 the inner prefix's m^0.001 is expanded in log m, and
        # the outer terms step both exponent families, -2.001 and -3, by integers
        spec = z_spec(parse_word("1:1,1:2"), Params(1.001, 1.0))
        _, terms = outer_expansion(spec)
        exponents = sorted({n + k * 0.001 for n, k, _ in terms}, reverse=True)
        assert exponents[:8] == pytest.approx([-2.001, -3.0, -3.001, -4.0, -4.001, -5.0, -5.001, -6.0])
        assert max(t for n, k, t in terms if (n, k) == (-2, -1)) > 2

    def test_complex_exponents_kept(self):
        # (alpha)_m / m! ~ m^(alpha - 1) keeps Im alpha in the exponents, exactly
        # as the key (n, k, t) of m^(n + k (alpha - 1)) log^t m
        spec = z_spec(parse_word("1:1,1:2"), Params(1 + 2j, 0.7))
        _, terms = outer_expansion(spec)
        assert any(k for _, k, _ in terms)
        assert max(n + k * 0.0 for n, k, _ in terms) == -2.0

    def test_off_axis_exponent_not_resonant(self):
        # sum_{k<=m} k^(-1+2i) ~ C + m^(2i) / (2i): no log, unlike k^-1
        off_axis = summatory({(-1, 1, 0): 1.0}, 2j, 6, 1024, 1.0, False)
        assert off_axis[(0, 1, 0)] == -0.5j and all(t == 0 for _, _, t in off_axis)
        assert summatory({(-1, 0, 0): 1.0}, 2j, 6, 1024, 1.0, False)[(0, 0, 1)] == 1.0


def summatory(terms: dict, d: complex, orders: int, n: int, g, outer: bool) -> dict:
    """F of an expansion {(n, k, t): c} of a level's terms, from the plan of a
    first index whose weight has their keys."""
    plan = _plan((tuple(terms), None, False, d, orders, n, g, outer))
    coeffs = np.array(list(terms.values()))
    return dict(zip(plan.keys, np.add.reduceat(coeffs[plan.index] * plan.factor, plan.starts)))


def outer_expansion(spec: NestedSumSpec, n: int = _N_START) -> tuple[dict, dict]:
    """The expansions {(n, k, t): c} (prefix, terms) of a spec's outermost
    level at N = n, from the stream's state there; the prefix leaves out the
    constant."""
    (sums, ratio), = _Stream(spec).states(n)
    plan, prefix, terms = _expand(spec.alpha, spec.beta, spec.indices, spec.links, n, sums, ratio, True)
    return dict(zip(plan.keys, prefix)), dict(zip(plan.term_keys, terms))


class TestLargeAlpha:
    # (alpha)_m / m! ~ m^(alpha - 1) / Gamma(alpha) leaves float64 near
    # m = 49,000 at alpha = 100 and m = 7,700 at alpha = 150; the first N is
    # 8,192 for both.  A depth-1 word carries no ratio, and a deeper one
    # converges if the ratio stays in range through N
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

    @pytest.mark.parametrize("alpha", [40.0, 100.0])
    def test_converges_before_overflow(self, alpha):
        # Z(1:1,1:2; alpha, 1) equals its dual Z(1:3; 1, alpha)
        truth = z_three_dual(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = evaluate(z_spec(parse_word("1:1,1:2"), Params(alpha, 1.0)))
        assert res.converged and res.n_used == (2048 if alpha == 40.0 else 8192)
        assert abs(res.value - truth) <= res.err_estimate

    @pytest.mark.parametrize("alpha,stop", [(150.0, 8192)])
    def test_overflow_stops_at_once(self, alpha, stop):
        # the level sums at N = 8,192 pass 1e308, which ends the stream there,
        # long before max_n, with the value at N / 2 and an infinite error:
        # near Z(1:3; 1, alpha), its dual
        truth = z_three_dual(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = evaluate(z_spec(parse_word("1:1,1:2"), Params(alpha, 1.0)))
        assert not res.converged and res.err_estimate == math.inf
        assert res.n_used == stop
        assert abs(res.value - truth) <= 1e-4 * truth

    def test_ratio_past_float64_divides_to_zero(self):
        # H*(1:2; alpha) equals zeta(2, alpha).  Its one index divides by the
        # ratio, whose long double carry holds r(8,192) ~ 1e323, past float64's
        # range: the terms that carry its inverse are 0 there, and the
        # evaluation converges at its first N.  Where long double is float64
        # the carry itself overflows, which ends the stream there, with the
        # value at N / 2
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        truth = float(mp.zeta(2, 150))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = evaluate(hstar_spec(parse_word("1:2"), (0,), 150.0))
        assert res.n_used == 8192
        assert res.converged == (np.finfo(np.longdouble).max > np.finfo(np.float64).max)
        assert abs(res.value - truth) <= (res.err_estimate if res.converged else 1e-14 * truth)


def z_three_dual(alpha: float) -> float:
    """Z(1:3; 1, alpha) = sum_m 1 / ((m+1) (m+alpha)^2), by partial fractions
    (psi(alpha) - psi(1)) / (alpha - 1)^2 - psi'(alpha) / (alpha - 1); mpmath's
    nsum of the series is off by 2.8e-6 of it at alpha = 80 and 6.4e-6 at 100."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    return float((mp.psi(0, alpha) - mp.psi(0, 1)) / (alpha - 1) ** 2 - mp.psi(1, alpha) / (alpha - 1))


class TestComplexCost:
    # a complex exponent is one key of the expansion, as a real one is, so
    # complex parameters stream no more than real ones
    def test_thm11i_complex_grid_streams_as_real(self, monkeypatch):
        # level terms: the indices of each streamed block times the points and the levels it stacks
        run_block = _Stream.run_block
        count = [0]

        def counted(stream, hi, *marks):
            prefix = run_block(stream, hi, *marks)
            count[0] += prefix.shape[0] * len(stream.points) * (stream.spec.depth - stream.first)
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


class TestFitGuards:
    def test_nan_sum_gives_no_value(self):
        # a level sum that is NaN leaves the value NaN and its error unbounded
        spec = NestedSumSpec((IndexWeight(a=2),), (), 0.7, 1.0)
        half, full = _Stream(spec).states(512, 1024)
        (hi, lo), = full[0]
        value, err = _tail_fit(spec, 1024, half, (((math.nan, lo),), None))
        assert math.isnan(value) and err == math.inf


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
# block ends: every index alone; a cut right after m = 0; cuts after powers
# of two, and _BLOCK apart; and the blocks evaluate streams to 40,000
SPLITS = {
    "ones": list(range(1, 301)),
    "after_zero": [1, 300],
    "evaluate_edges": [2049, 4097, 8193, 20000],
    "first_block_edges": [8193, 16385, 20000],
    "later_blocks": [8193, 16385, 24577, 32769, 40000],
    "evaluate_blocks": evaluate_block_ends(39_999),
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
    # every block is one pass over at most _BLOCK indices, so the stream's
    # temporaries do not grow with max_n: a depth-3 complex evaluation to
    # 2^20 terms peaks below 2 MiB with warm memos; blocks of 65,536 indices
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


def state_bytes(states: list) -> list:
    """The bytes of each state's sums, and its ratio (long double, compared
    by value: its padding bytes are not its own)."""
    return [s if s is None else (np.array(s[0]).tobytes(), s[1]) for s in states]


def clear_shared_work():
    # every kernel memo: the plans, the expansions and their parts
    for cache in (_plan, _inner_level, _weight, _pochhammer_log, _scale, _basis):
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
        head, head_exact = _product_block(alpha, 0, 5000, None)
        head_carry = head_exact[-1]
        tail, exact = _product_block(alpha, 5000, 70_000, head_carry)
        want, want_carry = product_one_shot(alpha, 0, 70_000, None)
        assert np.concatenate([head, tail]).tobytes() == want.tobytes()
        assert head_carry == product_one_shot(alpha, 0, 5000, None)[1]
        assert exact[-1] == want_carry
        # the long double block is the one the float one rounds
        assert tail.tobytes() == exact.astype(tail.dtype).tobytes()
        want_tail, _ = product_one_shot(alpha, 5000, 70_000, head_carry)
        assert tail.tobytes() == want_tail.tobytes()
        # an index streams that product, to its power, across the same edge
        m = np.arange(70_000)
        weight = poch(IndexWeight(a=int(power < 0), poch=power), alpha, m, edges=[5000, 70_000])
        expect = want if power > 0 else 1.0 / (m + alpha) / want
        assert weight.tobytes() == expect.tobytes()

    def test_ratio_built_once_per_block(self, monkeypatch):
        # three indices carry the ratio, and one build serves them all, one
        # build for each block; a stack of points builds one per point, in the
        # stack's order, so two points of one alpha build the same product twice
        builds = []
        product_block = _product_block

        def counted(alpha, lo, hi, carry):
            builds.append((alpha, lo, hi))
            return product_block(alpha, lo, hi, carry)

        monkeypatch.setattr(mzdual.nested_sum, "_product_block", counted)
        for links in ((Link.STRICT, Link.WEAK), (Link.WEAK, Link.STRICT)):
            stream = _Stream(NestedSumSpec(DEPTH3_EVERY_INDEX, links, 0.8, 1.3))
            for hi in SPLITS["first_block_edges"]:
                stream.run_block(hi)
        assert builds == [(0.8, 0, 8193), (0.8, 8193, 16385), (0.8, 16385, 20000)] * 2
        builds.clear()
        points = ((0.8, 1.3), (0.8, 0.6), (1.5, 1.3), (1.5, 0.8))
        dict(first_states([NestedSumSpec(DEPTH3_EVERY_INDEX, links, *p) for p in points
                           for links in itertools.product(Link, repeat=2)], EvalConfig()))
        assert builds == [(0.8, 0, 1025)] * 2 + [(1.5, 0, 1025)] * 2

    SPECS = [
        z_spec(parse_word("1:1,1:2"), Params(1.001, 1.0)),
        z_spec(parse_word("1:1,1:1,1:2"), Params(1 + 2j, 0.7)),
        zstar_spec(parse_word("1:1,1/2:1,1:2"), (1, 0, 1), Params(0.6, 1.5)),
        zstar_spec(parse_word("1:1,1/2:2"), (0, 2), Params(0.6 + 0.3j, 1.0)),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["real", "complex", "real-star", "complex-star"])
    def test_cold_and_warm_levels_identical(self, spec):
        # the inner levels' expansions, built or read from the memos, give one result
        clear_shared_work()
        cold = evaluate(spec)
        warm = evaluate(spec)
        assert _inner_level.cache_info().hits >= 1
        assert cold == warm
        # and so does a spec that extends this one, streamed in one trie with it
        longer = NestedSumSpec(spec.indices + (IndexWeight(a=1, b=1),), spec.links + (Link.WEAK,),
                               spec.alpha, spec.beta)
        cfg = EvalConfig()
        warm = evaluate(longer, cfg, dict(first_states([spec, longer], cfg))[1])
        clear_shared_work()
        assert evaluate(longer) == warm

    def test_level_shared_by_specs_with_one_prefix(self):
        # an inner level depends on its prefix alone: two specs that differ
        # only in their outer index share its expansion
        clear_shared_work()
        for last in (IndexWeight(a=2), IndexWeight(a=1, b=2)):
            assert evaluate(NestedSumSpec((IndexWeight(a=1, b=1), last), (Link.STRICT,), 0.7, 1.3)).converged
        assert _inner_level.cache_info()[:2] == (1, 1)  # hits, misses

    def test_memos_hold_a_suite_without_evicting(self):
        # the derivative suite's circle points make the largest working set at
        # a given weight; every miss stays cached, so none is made twice
        clear_shared_work()
        mzdual.evaluators._evaluate_cached.cache_clear()
        assert run_suite("derivative", SuiteConfig(weight_max=3)).passed
        for memo in (_plan, _inner_level, _weight, _pochhammer_log, _basis):
            info = memo.cache_info()
            assert info.misses == info.currsize > 0, (memo.__name__, info)

    def test_evaluation_order_invisible(self):
        # the same specs forward and in reverse, each run from cold caches
        words = words_up_to_weight(4)
        # a first index that divides by the ratio, then Z and Z*
        both = IndexWeight(a=1, poch=-1)
        specs = []
        for alpha, beta in ((0.6, 1.5), (1.5, 0.6), (0.6 + 0.3j, 1.0)):
            specs.append(NestedSumSpec((both, IndexWeight(b=2)), (Link.STRICT,), alpha, beta))
            p = Params(alpha, beta)
            for w in words:
                specs += [z_spec(w, p), zstar_spec(w, (1,) * w.depth, p)]
        runs, cfg = [], EvalConfig()
        for order in (specs, specs[::-1]):
            clear_shared_work()
            runs.append({order[i]: evaluate(order[i], cfg, st) for i, st in first_states(order, cfg)})
        assert _inner_level.cache_info().hits > 0
        assert runs[0] == runs[1]
        # and with no memo at all, each spec streamed and expanded alone
        alone = {}
        for spec in specs:
            clear_shared_work()
            alone[spec] = evaluate(spec)
        assert alone == runs[0]

    def test_each_distinct_level_streamed_once(self, monkeypatch):
        # at one pair, the specs' prefixes make one trie over two points, the
        # swapped terms' (1.5, 0.6) and (0.6, 1.5): each distinct prefix makes
        # one running sum, over a stack of the points that reach it, so each
        # distinct level (a prefix at a point) is one row of one stack; a run of
        # prefixes that no spec ends inside, at the same points, is one node
        sums, stacked, nodes = [0], [], [0]
        running_sum, run_block = mzdual.nested_sum._running_sum, _Stream.run_block

        def counted(out, carry):
            sums[0] += 1
            return running_sum(out, carry)

        def recorded(stream, hi, *marks):
            nodes[0] += 1
            for j in range(stream.first + 1, stream.spec.depth + 1):  # the levels it streams
                stacked.append((stream.spec.indices[:j], stream.spec.links[:j - 1], tuple(stream.points)))
            return run_block(stream, hi, *marks)

        monkeypatch.setattr(mzdual.nested_sum, "_running_sum", counted)
        monkeypatch.setattr(_Stream, "run_block", recorded)
        assert run_suite("thm11i", SuiteConfig(weight_max=3, params_grid=((0.6, 1.5),))).passed
        # 31 specs and 42 distinct levels, 37 distinct prefixes, 33 nodes and the root
        assert sums[0] == len(stacked) == len({(i, l) for i, l, _ in stacked}) == 37
        assert sum(len(points) for *_, points in stacked) == 42 and nodes[0] == 34

    def test_each_level_stacked_once(self, monkeypatch):
        # thm11i at weight 4: 1,080 specs of 120 structures at 9 points, whose
        # 176 distinct prefixes each reach the 9, so one trie of 176 nodes,
        # each one running sum over a stack of 9 points; every spec converges
        # at its first N, so nothing is streamed past it
        sums, stacked = [0], []
        running_sum, run_block = mzdual.nested_sum._running_sum, _Stream.run_block

        def counted(out, carry):
            sums[0] += 1
            return running_sum(out, carry)

        def recorded(stream, hi, *marks):
            prefix = run_block(stream, hi, *marks)
            stacked.extend([len(stream.points)] * (stream.spec.depth - stream.first))
            return prefix

        monkeypatch.setattr(mzdual.nested_sum, "_running_sum", counted)
        monkeypatch.setattr(_Stream, "run_block", recorded)
        assert run_suite("thm11i", SuiteConfig(weight_max=4)).passed
        assert sums[0] == len(stacked) == 176 and set(stacked) == {9}

    def test_stacks_stay_within_their_bound(self, monkeypatch):
        # a stacked block holds at most _STACK points times indices: the derivative
        # suite's prefixes reach up to 234 circle points, in stacks of at most 15
        # over a first block of 1,025 indices; at beta = 200 the first N is 16,384,
        # streamed in blocks of 8,192, 1 and 8,192 indices, and a stack holds 2 points
        run_block, shapes = _Stream.run_block, []

        def recorded(stream, hi, *marks):
            prefix = run_block(stream, hi, *marks)
            if stream.spec.depth:
                shapes.append(prefix.shape[:2])
            return prefix

        monkeypatch.setattr(_Stream, "run_block", recorded)
        assert run_suite("derivative", SuiteConfig(weight_max=3)).passed
        assert max(n * p for n, p in shapes) <= _STACK and max(p for _, p in shapes) == 15
        shapes.clear()
        w = parse_word("1:1,1:1,1:2")
        dict(first_states([z_spec(w, Params(0.6 + k * 0.1j, 200.0)) for k in range(1, 21)], EvalConfig()))
        assert max(n * p for n, p in shapes) <= _STACK and set(shapes) == {(8192, 2), (1, 2)}

    @pytest.mark.parametrize("suite,grid,weight", [
        ("all", "default", 4), ("all", "0.6+0.3i,1,1.5-0.5i", 4), ("all", "4:4;20:20;1:20", 4),
        ("derivative", "default", 3)])
    def test_stacked_states_match_lone_streams(self, monkeypatch, suite, grid, weight):
        # each spec's first states from its stack in the trie are those of its lone
        # stream, byte for byte; real and complex points are stacked apart, and so
        # are points whose alpha or beta alone is complex
        trie, kinds = mzdual.nested_sum._trie, set()

        def recorded(stack):
            kinds.add(frozenset((isinstance(s.alpha, complex), isinstance(s.beta, complex)) for s in stack))
            return trie(stack)

        monkeypatch.setattr(mzdual.nested_sum, "_trie", recorded)
        sc = SuiteConfig(weight_max=weight, params_grid=parse_grid(grid))
        plans = mzdual.verifier._SUITES[suite](sc, words_up_to_weight(weight))
        specs = list(dict.fromkeys(k for _, *sides in plans for ks, _ in sides for k in ks))
        cfg = sc.eval_config()
        differ = []
        for i, (n, *got) in first_states(specs, cfg):
            if state_bytes(got) != state_bytes(_Stream(specs[i]).states(n // 2, n)):
                differ.append(specs[i])
        assert len(specs) > 900 and not differ and all(len(kind) == 1 for kind in kinds)

    @pytest.mark.parametrize("grid", ["default", "0.6+0.3i,1,1.5-0.5i", "4:4;20:20;1:20"])
    def test_compiled_levels_match_the_dict_algebra(self, monkeypatch, grid):
        # every spec of the weight-4 relations, its levels from the shared plans and
        # from oracles.level, the dict algebra expanded anew point by point: within
        # 1e-15 of its value and within its estimate, at the same N; at (20, 20)
        # the orders kept rise to 10
        sc = SuiteConfig(weight_max=4, params_grid=parse_grid(grid))
        plans = mzdual.verifier._SUITES["all"](sc, words_up_to_weight(4))
        specs = dict.fromkeys(k for _, *sides in plans for ks, _ in sides for k in ks)
        compiled = {spec: evaluate(spec, sc.eval_config()) for spec in specs}
        monkeypatch.setattr(mzdual.nested_sum, "_tail_fit", oracles.tail_fit)
        short = []
        for spec, res in compiled.items():
            ref = evaluate(spec, sc.eval_config())
            dev = abs(res.value - ref.value)
            if not (dev <= 1e-15 * abs(ref.value) and dev <= ref.err_estimate and res[2:] == ref[2:]):
                short.append((spec, res, ref))
        assert len(specs) > 500 and not short

    def test_plans_shared_across_beta(self, monkeypatch):
        # a plan's key holds alpha - 1 and the key sets, not beta or a stream sum:
        # thm11i at weight 4 expands 1,584 levels from 222 plans
        clear_shared_work()
        mzdual.evaluators._evaluate_cached.cache_clear()
        expand, calls = mzdual.nested_sum._expand, [0]

        def counted(*args):
            calls[0] += 1
            return expand(*args)

        monkeypatch.setattr(mzdual.nested_sum, "_expand", counted)
        assert run_suite("thm11i", SuiteConfig(weight_max=4)).passed
        assert (calls[0], _plan.cache_info().currsize) == (1584, 222)

    def test_plans_stay_within_their_bound(self):
        # the plan memo holds at most its bound of plans; all at weight 5 keeps
        # every one of its 1,284 plans, each built once (all at weight 6: 2,841)
        clear_shared_work()
        mzdual.evaluators._evaluate_cached.cache_clear()
        assert run_suite("all", SuiteConfig(weight_max=5)).passed
        info = _plan.cache_info()
        assert info.currsize == info.misses == 1284 < info.maxsize == 4096


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
        stream.run_block(hi)  # the ratio, then the level
        w.append(stream._weights_block(0, x, stream.r)[0])
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
    # the tail sum_{k>m} k^-s log^t k is -F(m), F the Euler-Maclaurin
    # summatory function of m^-s log^t m, which vanishes at infinity: the
    # closed form every outermost level's tail is made of
    @staticmethod
    def tail(s: complex, t: int, m: int) -> complex:
        terms = {(0, 1, t): 1.0}  # m^(0 + 1 * d) log^t m with d = -s
        prefix = summatory(terms, -s, 10, m, None, True)
        return -(np.array(list(prefix.values())) @ _basis(tuple(prefix), m, m**-s))

    def test_plain_zeta_tail(self):
        assert math.isclose(self.tail(2.0, 0, 64), hurwitz_zeta(2, 65), rel_tol=1e-14)

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
        got = self.tail(s, 0, m)
        truth = complex(mp.zeta(mp.mpc(s), m + 1))
        assert abs(got - truth) <= 1e-14 * abs(truth)

    def test_complex_log_weighted_self_consistency(self):
        s, m = 1.5 + 0.5j, 64
        k = np.arange(m + 1, m + 200001, dtype=np.float64)
        head = complex(np.sum(k ** (-s) * np.log(k)))
        got = self.tail(s, 1, m)
        rest = self.tail(s, 1, m + 200000)
        assert abs(got - (head + rest)) <= 1e-12 * abs(got)


def decay_exponent(spec: NestedSumSpec) -> float:
    """Effective algebraic decay s of the outermost terms (tail ~ N^(1-s))."""
    return -_lead_decay(spec)


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
