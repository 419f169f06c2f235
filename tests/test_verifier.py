import json
import math

import pytest

import mzdual.evaluators
import mzdual.verifier
from mzdual.evaluators import Params, eval_Z
from mzdual.nested_sum import EvalConfig
from mzdual.verifier import (
    SuiteConfig,
    check_derivative_crosslink,
    check_duality,
    check_integral_repr,
    check_prop24,
    check_sum_formula,
    check_thm11_i,
    check_thm11_ii,
    check_thm31,
    run_suite,
    starred_rvectors,
)
from mzdual.words import (
    LinComb,
    parse_word,
    sigma_b1,
    sigma_b2,
    sigma_eps,
)

W = parse_word
CFG = EvalConfig(rel_tol=3e-10)
ZETA4 = 1.0823232337111382


class TestDualityCheck:
    def test_classic_weight_three(self):
        c = check_duality(W("1:3"), Params(1, 1), CFG)
        assert c.passed and c.rel_dev < 1e-8
        assert abs(c.lhs - 1.2020569031595943) < 1e-9

    def test_self_dual_depth_one(self):
        c = check_duality(W("1:2"), Params(0.9, 1.4), CFG)
        assert c.passed

    def test_mixed_cut_weight_four(self):
        c = check_duality(W("1h00"), Params(1.3, 0.7), CFG)
        assert c.passed and c.rel_dev < 1e-7

    def test_complex_pochhammer_base(self):
        # the dual side has only real tail exponents, so it checks the
        # complex ones of the left side independently; at rel_tol 1e-11 the
        # derived tol is the floor, not widened by the evaluations' errors
        c = check_duality(W("1:1,1/2:2"), Params(1 + 2j, 0.7), EvalConfig(rel_tol=1e-11))
        assert c.passed and "tolerance-not-reached" not in c.note
        assert c.tol <= 1e-9 and c.n_used <= 10**6


class TestThm11iCheck:
    def test_reduces_to_duality_at_r0(self):
        w = W("1:1,1/2:2")
        assert sigma_b1(w, 0) == LinComb.of(w)
        assert starred_rvectors(w, 0) == [(0, 0)]
        c0 = check_thm11_i(w, 0, Params(1.1, 0.8), CFG)
        cd = check_duality(w, Params(1.1, 0.8), CFG)
        assert c0.passed and cd.passed
        assert abs(c0.lhs - cd.lhs) < 1e-12

    def test_depth_one(self):
        c = check_thm11_i(W("1:3"), 1, Params(1, 1), CFG)
        assert c.passed and c.rel_dev < 1e-7

    def test_half_cut_shape(self):
        c = check_thm11_i(W("1:1,1/2:2"), 1, Params(0.8, 1.2), CFG)
        assert c.passed and c.rel_dev < 1e-7

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
        c = check_thm11_i(w, 2, Params(1.0, 1.3), CFG)
        assert c.passed


class TestThm11iiCheck:
    def test_ohno_instance(self):
        c = check_thm11_ii(W("1:3"), 1, 1.0, CFG)
        assert c.passed
        # both sides are the classical even-weight value: pi^4/120 + pi^4/360
        assert abs(c.lhs - ZETA4) < 1e-8
        assert abs(c.rhs - (math.pi**4 / 120 + math.pi**4 / 360)) < 1e-8

    def test_self_dual_structural_zero(self):
        c = check_thm11_ii(W("1:1,1/2:2"), 3, 1.2, CFG)
        assert c.passed and c.rel_dev == 0.0

    def test_weak_tail_relation(self):
        c = check_thm11_ii(W("1:1,1/2:2"), 2, 1.0, CFG)
        assert c.passed and c.rel_dev < 1e-7


class TestProp24Check:
    def test_r0_is_diagonal_duality(self):
        c = check_prop24(W("1:1,1:2"), 0, 1.0, CFG)
        d = check_duality(W("1:1,1:2"), Params(1.0, 1.0), CFG)
        assert c.passed
        assert abs(c.lhs - d.lhs) < 1e-12

    def test_examples(self):
        assert check_prop24(W("1:3"), 1, 1.0, CFG).passed
        assert check_prop24(W("1:1,1:2"), 2, 1.4, CFG).passed


class TestThm31Check:
    def test_r0_is_hurwitz_duality(self):
        c = check_thm31(W("1:3"), 0, 0.75, CFG)
        assert c.passed

    def test_examples(self):
        assert check_thm31(W("1:3"), 1, 1.0, CFG).passed
        assert check_thm31(W("1:1,1/2:2"), 1, 0.75, CFG).passed

    def test_example32_both_displays(self):
        # first display: the half-cut tower word; second: its dual
        from mzdual.words import dual

        v0 = W("1:1,1/2:2")
        for w in (v0, dual(v0)):
            for r in (0, 1, 2):
                assert check_thm31(w, r, 0.75, CFG).passed, (w, r)


class TestSumFormulaCheck:
    def test_depth_one_duality(self):
        c = check_sum_formula(2, 0, Params(1, 1), CFG)
        assert c.passed and abs(c.lhs - math.pi**2 / 6) < 1e-9

    def test_examples(self):
        assert check_sum_formula(3, 1, Params(1, 1), CFG).passed
        assert check_sum_formula(2, 2, Params(1.2, 0.9), CFG).passed

    def test_k1_validated(self):
        with pytest.raises(ValueError):
            check_sum_formula(1, 0, Params(1, 1))


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


class TestDerivativeCheck:
    def test_first_derivative(self):
        c = check_derivative_crosslink(W("1:2"), 1, Params(1, 1))
        assert c.passed and c.abs_dev < 1e-4

    def test_second_derivative(self):
        c = check_derivative_crosslink(W("1:1,1:2"), 2, Params(1, 1.3))
        assert c.passed and c.abs_dev < 1e-3

    def test_r_guard(self):
        with pytest.raises(ValueError):
            check_derivative_crosslink(W("1:2"), 3, Params(1, 1))


class TestSuiteConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(weight_max=1)
        with pytest.raises(ValueError):
            SuiteConfig(tol=0)

    def test_even_r_values(self):
        assert SuiteConfig(r_max=4, even_r_only=True).r_values() == [0, 2, 4]
        assert SuiteConfig(r_max=3).r_values() == [0, 1, 2, 3]

    def test_alphas_dedupe(self):
        sc = SuiteConfig(params_grid=((1.0, 0.5), (1.0, 1.5), (0.5, 1.0)))
        assert sc.alphas() == [1.0, 0.5]


class TestRunSuite:
    def test_singleton_universe(self):
        sc = SuiteConfig(weight_max=2, tol=1e-7)
        rep = run_suite("duality", sc)
        assert len(rep.checks) == 9  # one word, nine grid points
        assert rep.passed

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("bogus", SuiteConfig())

    def test_dispatch_resolved_at_call_time(self, monkeypatch):
        # a module attribute replaced after import must see every call
        calls = {"check_duality": 0, "z_spec": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(mzdual.verifier, "check_duality")
        counting(mzdual.evaluators, "z_spec")
        rep = run_suite("duality", SuiteConfig(weight_max=2))
        assert calls == {"check_duality": 9, "z_spec": 18}  # two sides per check
        assert rep.passed
        eval_Z(W("1:3"), Params(1.0, 1.0), CFG)
        assert calls["z_spec"] == 19

    def test_deterministic_json(self):
        sc = SuiteConfig(weight_max=3, tol=1e-6, params_grid=((1.0, 1.0),))
        a = json.dumps(run_suite("duality", sc).to_json(include_timestamp=False), sort_keys=True)
        b = json.dumps(run_suite("duality", sc).to_json(include_timestamp=False), sort_keys=True)
        assert a == b

    def test_grid_order_invisible(self):
        # the tasks run pair by pair, so the grid order sets which Gamma
        # ratios the kernel still holds; the checks must not depend on it
        grid = ((0.6, 1.5), (1.0, 0.6), (1.5, 1.0))
        reports = []
        for g in (grid, grid[::-1]):
            mzdual.evaluators._evaluate_cached.cache_clear()
            rep = run_suite("thm11i", SuiteConfig(weight_max=3, params_grid=g))
            reports.append(json.dumps(rep.to_json(include_timestamp=False)["checks"]))
        assert reports[0] == reports[1]

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

    def test_parallel_matches_serial(self):
        sc = SuiteConfig(weight_max=3, tol=1e-6, params_grid=((1.0, 1.0), (0.8, 1.2)))
        serial = run_suite("duality", sc, workers=1)
        parallel = run_suite("duality", sc, workers=2)
        assert [c.name for c in serial.checks] == [c.name for c in parallel.checks]
        assert serial.passed and parallel.passed
