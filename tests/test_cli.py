import json

import pytest

import mzdual.evaluators
import mzdual.nested_sum
from mzdual.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestCompute:
    def test_basel(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "Z", "--word", "1:2", "--alpha", "1", "--beta", "1"
        )
        assert code == 0
        assert "1.64493406685" in out
        assert "err_estimate" in out and "n_used" in out

    def test_hurwitz_half(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "zeta", "--word", "1:2", "--alpha", "0.5"
        )
        assert code == 0
        assert "4.93480220054" in out

    def test_inadmissible_word_exits_2(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "Z", "--word", "1:1", "--alpha", "1", "--beta", "1"
        )
        assert code == 2
        assert "exponent" in err

    def test_starred_families(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "Zstar", "--word", "1:2",
            "--r-vector", "1", "--alpha", "1", "--output", "json",
        )
        assert code == 0
        assert abs(json.loads(out)["value"][0] - 1.2020569031595943) < 1e-9
        code, out, _ = run(
            capsys, "compute", "--family", "Hstar", "--word", "1:2",
            "--r-vector", "1", "--alpha", "1", "--output", "json",
        )
        assert code == 0
        assert abs(json.loads(out)["value"][0] - 2.4041138063191886) < 1e-8

    def test_json_deterministic(self, capsys):
        args = ("compute", "--family", "Z", "--word", "1:1,1:2", "--alpha", "1.5",
                "--beta", "0.6", "--output", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_complex_parameter(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "Z", "--word", "1:2",
            "--alpha", "1+0.3i", "--beta", "1", "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["value"][1] != 0.0

    def test_complex_pochhammer_base_converges(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "Z", "--word", "1:1,1:2", "--alpha", "1+2i",
            "--beta", "0.7", "--max-n", "1000000",
        )
        assert code == 0, err

    def test_tolerance_not_reached_exits_3(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "Z", "--word", "1:2", "--alpha", "0.7",
            "--beta", "0.7", "--rel-tol", "1e-14", "--max-n", "5000",
        )
        assert code == 3
        assert "tolerance" in err


class TestDual:
    def test_weight_three(self, capsys):
        code, out, _ = run(capsys, "dual", "--word", "1:3")
        assert code == 0
        assert "1:1,1:2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dual", "--word", "1:1,1/2:2", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dual"] == "1:1,1/2:2"
        assert payload["dual_letters"] == "1h0"

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "dual", "--word", "nope")
        assert code == 2 and "error" in err


class TestSigma:
    def test_b2_coefficient(self, capsys):
        code, out, _ = run(capsys, "sigma", "--op", "b2", "--word", "1:2", "--r", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload == [{"coeff_num": 2, "coeff_den": 1, "word": "1:3"}]

    def test_eps_table(self, capsys):
        code, out, _ = run(
            capsys, "sigma", "--op", "eps", "--word", "1:1,1:2", "--r", "1",
            "--output", "table",
        )
        assert code == 0
        assert "1:2,1:2" in out and "1:1,1:3" in out

    def test_negative_r(self, capsys):
        code, _, err = run(capsys, "sigma", "--op", "b1", "--word", "1:2", "--r", "-1")
        assert code == 2


class TestVerify:
    def test_duality_smoke(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "duality", "--weight-max", "2",
            "--grid", "default", "--tol", "1e-7",
        )
        assert code == 0
        assert "9/9 passed" in out

    def test_even_only_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "thm11ii", "--weight-max", "3",
            "--r-max", "2", "--even-only", "--grid", "1.0",
        )
        assert code == 0

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_json_no_timestamp_bitwise_stable(self, capsys):
        args = ("verify", "--suite", "duality", "--weight-max", "2", "--grid", "1.0",
                "--output", "json", "--no-timestamp")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["schema"] == 1 and "timestamp" not in payload

    def test_fit_design_cache_invisible(self, capsys, monkeypatch):
        # the suite's JSON is the same when every tail fit builds its design anew
        args = ("verify", "--suite", "thm11i", "--weight-max", "3", "--output", "json",
                "--no-timestamp")
        mzdual.evaluators._evaluate_cached.cache_clear()
        _, warm, _ = run(capsys, *args)
        design = mzdual.nested_sum._fit_design

        def cold_design(basis, marks):
            design.cache_clear()
            return design(basis, marks)

        monkeypatch.setattr(mzdual.nested_sum, "_fit_design", cold_design)
        mzdual.evaluators._evaluate_cached.cache_clear()
        _, cold, _ = run(capsys, *args)
        assert json.loads(warm)["checks"] and cold == warm

    def test_gamma_ratio_cache_invisible(self, capsys, monkeypatch):
        # the suite's JSON is the same when every block computes its
        # Gamma ratios anew
        args = ("verify", "--suite", "thm11i", "--weight-max", "3", "--output", "json",
                "--no-timestamp")
        mzdual.evaluators._evaluate_cached.cache_clear()
        mzdual.nested_sum._GAMMA_RATIOS.clear()
        _, warm, _ = run(capsys, *args)
        assert mzdual.nested_sum._GAMMA_RATIOS.hits > 0
        run_block = mzdual.nested_sum._Stream.run_block

        def cold_block(stream, hi):
            mzdual.nested_sum._GAMMA_RATIOS.clear()
            return run_block(stream, hi)

        monkeypatch.setattr(mzdual.nested_sum._Stream, "run_block", cold_block)
        mzdual.evaluators._evaluate_cached.cache_clear()
        _, cold, _ = run(capsys, *args)
        assert json.loads(warm)["checks"] and cold == warm

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "duality", "--weight-max", "2",
            "--grid", "1.0", "--output", "csv",
        )
        assert code == 0
        header, row = out.splitlines()[:2]
        assert header == "name,lhs_re,lhs_im,rhs_re,rhs_im,rel_dev,tol,passed"
        assert row.endswith("true")

    def test_pair_grid_syntax(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "duality", "--weight-max", "2",
            "--grid", "0.8:1.2;1.0:1.0",
        )
        assert code == 0
        assert "2/2 passed" in out
