import argparse
import csv
import json
import os
import subprocess
import sys

import pytest

import mzdual.evaluators
import mzdual.nested_sum
from mzdual.cli import build_parser, main
from mzdual.nested_sum import EvalConfig
from mzdual.verifier import SuiteConfig


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def strict_json(text):
    # json.loads without the NaN, Infinity and -Infinity tokens that strict parsers reject
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


# every flag that a family's row does not read, with a value for it
FOREIGN_FLAGS = [
    (name, flag, value)
    for name, family in mzdual.evaluators.FAMILIES.items()
    for flag, value, reads in (("--r-vector", "3,3", family.reads_r), ("--beta", "2", family.reads_beta))
    if not reads
]


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

    def test_json_keys_are_the_fields(self, capsys):
        _, out, _ = run(capsys, "compute", "--family", "Z", "--word", "1:2", "--alpha", "1",
                        "--beta", "1", "--output", "json")
        payload = json.loads(out)
        assert set(payload) == {"value", "err_estimate", "n_used", "converged"}
        assert len(payload["value"]) == 2 and payload["converged"] is True

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
        # no error estimate is below eps |value|, so 1e-17 is not met by N = 4096
        code, _, err = run(
            capsys, "compute", "--family", "Z", "--word", "1:2", "--alpha", "0.7",
            "--beta", "0.7", "--rel-tol", "1e-17", "--max-n", "5000",
        )
        assert code == 3
        assert "tolerance not reached in 4096 terms" in err

    def test_overflow_json_is_strict(self, capsys):
        # the level sums overflow by N / 2 = 8,192, before any N has a value, so
        # neither the value nor its error is finite: both are written as null
        code, out, _ = run(
            capsys, "compute", "--family", "Z", "--word", "1:1,1:2", "--alpha", "300",
            "--beta", "1", "--output", "json",
        )
        assert code == 3
        data = strict_json(out)
        assert data["err_estimate"] is None and data["value"] == [None, 0.0]
        assert data["n_used"] == 8192 and data["converged"] is False

    @pytest.mark.parametrize("max_n", ["10", "-5", "1023"])
    def test_max_n_below_first_checkpoint_exits_2(self, capsys, max_n):
        code, out, err = run(
            capsys, "compute", "--family", "Z", "--word", "1:2", "--alpha", "1",
            "--beta", "1", "--max-n", max_n,
        )
        assert code == 2 and out == ""
        assert "max_n" in err

    def test_max_n_beyond_mark_table_exits_2(self, capsys):
        # max_n is at most 2^62
        code, out, err = run(
            capsys, "compute", "--family", "Z", "--word", "1:2", "--alpha", "1",
            "--beta", "1", "--max-n", "100000000000000000000000",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: max_n")

    @pytest.mark.parametrize("family, alpha, beta", [
        ("Z", "1e400", "1"), ("Z", "1+1e400i", "1"), ("zeta", "1e400", None), ("Z", "1", "1e400"),
    ])
    def test_non_finite_parameter_exits_2(self, capsys, family, alpha, beta):
        # an infinite parameter is outside the domain, not a value or a hang
        argv = ["compute", "--family", family, "--word", "1:2", "--alpha", alpha]
        code, out, err = run(capsys, *argv, *(["--beta", beta] if beta else []))
        assert code == 2 and out == ""
        assert err.startswith("error: need finite alpha, beta")

    def test_foreign_flags_follow_the_paper(self):
        # Z has no r-vector; zeta and Hstar have one parameter, zeta no r-vector
        foreign = {(family, flag) for family, flag, _ in FOREIGN_FLAGS}
        assert foreign == {("Z", "--r-vector"), ("zeta", "--r-vector"), ("zeta", "--beta"), ("Hstar", "--beta")}

    @pytest.mark.parametrize("family, flag, value", FOREIGN_FLAGS)
    def test_flag_foreign_to_family_exits_2(self, capsys, family, flag, value):
        # a flag the family has no slot for is an error, not ignored
        code, out, err = run(
            capsys, "compute", "--family", family, "--word", "1:1,1:2", "--alpha", "1",
            flag, value,
        )
        assert code == 2 and out == ""
        assert flag in err

    @pytest.mark.parametrize("rvector", ["1,,1", "1,"])
    def test_empty_r_vector_item_exits_2(self, capsys, rvector):
        # an empty item is an error, not dropped
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--family", "Zstar", "--word", "1:1,1:2", "--alpha", "1",
                  "--beta", "1", "--r-vector", rvector])
        assert exc.value.code == 2
        assert "bad r-vector" in capsys.readouterr().err


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

    def test_overflow_json_is_strict(self, capsys):
        # Z(w; 300, 1) of depth 2 overflows, so its checks have no finite deviation or tol
        code, out, _ = run(
            capsys, "verify", "--suite", "duality", "--weight-max", "3", "--grid", "300:1",
            "--output", "json", "--no-timestamp",
        )
        assert code == 1
        checks = strict_json(out)["checks"]
        failed = [c for c in checks if not c["passed"]]
        assert len(checks) == 4 and len(failed) == 2
        assert all(c["rel_dev"] is None and c["tol"] is None for c in failed)

    def test_infinite_tol_fails(self, capsys):
        # at alpha = 150 one side of each depth-2 check overflows at N = 8,192 and keeps
        # its value at N / 2, so its error and tol are infinite; a check passes only
        # within a finite tol.  At alpha = 100 every check converges
        code, out, _ = run(
            capsys, "verify", "--suite", "duality", "--weight-max", "3", "--grid", "150:1",
            "--output", "json", "--no-timestamp",
        )
        assert code == 1
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        for word in ("1:1,1:2", "1:1,1/2:2"):
            bad = checks.pop(f"thm11i/w={word}/r=0/a=150/b=1")
            assert bad["tol"] is None and bad["rel_dev"] < 1e-9 and bad["passed"] is False
        assert len(checks) == 2 and all(c["passed"] for c in checks.values())
        code, out, _ = run(
            capsys, "verify", "--suite", "duality", "--weight-max", "3", "--grid", "100:1",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0 and all(c["tol"] == 1e-9 for c in strict_json(out)["checks"])

    def test_real_overflow_stays_real(self, capsys):
        # every check of a real pair is real: an overflowed lhs is a real NaN, so its
        # imaginary part is 0.0, not null
        _, out, _ = run(
            capsys, "verify", "--suite", "duality", "--weight-max", "3", "--grid", "300:1",
            "--output", "json", "--no-timestamp",
        )
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        assert checks["thm11i/w=1:1,1/2:2/r=0/a=300/b=1"]["lhs"] == [None, 0.0]
        assert all(c["lhs"][1] == 0.0 and c["rhs"][1] == 0.0 for c in checks.values())

    def test_even_only_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "thm11ii", "--weight-max", "3",
            "--r-max", "2", "--even-only", "--grid", "1.0",
        )
        assert code == 0

    @pytest.mark.parametrize("suite,flag,value", [
        pytest.param("duality", "--r-max", "-1", id="--r-max--1"),
        pytest.param("duality", "--depth-max", "0", id="--depth-max-0"),
        # no pair in [1, 2]^2, and no r >= 1 for the cross-link
        pytest.param("integral", "--grid", "0.5:0.5", id="integral---grid-0.5:0.5"),
        pytest.param("derivative", "--r-max", "0", id="derivative---r-max-0"),
    ])
    def test_empty_suite_exits_2(self, capsys, suite, flag, value):
        # a suite with no checks to run is an argument error, not a pass
        code, out, err = run(capsys, "verify", "--suite", suite, "--weight-max", "2", flag, value)
        assert code == 2 and out == ""
        assert flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize("flag,value", [
        ("--grid", "1.0:-1"), ("--grid", "1e400"), ("--tol", "nan"), ("--tol", "0"),
        ("--workers", "0"), ("--workers", "-3"),
    ])
    def test_bad_input_exits_2(self, capsys, flag, value):
        # bad input is a usage error (2), not a failed check (1)
        code, out, err = run(capsys, "verify", "--suite", "duality", "--weight-max", "2", flag, value)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_all_suites_weight_three(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--weight-max", "3")
        assert code == 0
        assert "216/216 passed" in out

    def test_kernel_error_exits_2(self, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise mzdual.nested_sum.NonConvergentError("series diverges")

        monkeypatch.setattr("mzdual.cli.run_suite", diverge)
        code, _, err = run(capsys, "verify", "--suite", "duality", "--weight-max", "2")
        assert code == 2 and err.startswith("error:")

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

    def test_level_cache_invisible(self, capsys, monkeypatch):
        # the suite's JSON is the same when every level is expanded from a plan,
        # weights and a basis built anew
        args = ("verify", "--suite", "thm11i", "--weight-max", "3", "--output", "json",
                "--no-timestamp")
        _, warm, _ = run(capsys, *args)

        def cold(memo):
            def call(*key):
                memo.cache_clear()
                return memo(*key)
            return call

        for name in ("_plan", "_weight", "_basis"):
            monkeypatch.setattr(mzdual.nested_sum, name, cold(getattr(mzdual.nested_sum, name)))
        _, cold_run, _ = run(capsys, *args)
        assert json.loads(warm)["checks"] and cold_run == warm

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "duality", "--weight-max", "2",
            "--grid", "1.0", "--output", "csv",
        )
        assert code == 0
        header, row = out.splitlines()[:2]
        assert header == "name,lhs_re,lhs_im,rhs_re,rhs_im,rel_dev,tol,passed"
        assert row.endswith("true")

    def test_csv_quotes_names_with_commas(self, capsys):
        args = ("verify", "--suite", "thm11i", "--weight-max", "3", "--grid", "1.0")
        _, out, _ = run(capsys, *args, "--output", "csv")
        _, js, _ = run(capsys, *args, "--output", "json")
        header, *rows = csv.reader(out.splitlines())
        assert len(header) == 8 and all(len(row) == 8 for row in rows)
        assert any("," in row[0] for row in rows)
        assert [row[0] for row in rows] == [c["name"] for c in json.loads(js)["checks"]]

    def test_pair_grid_syntax(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "duality", "--weight-max", "2",
            "--grid", "0.8:1.2;1.0:1.0",
        )
        assert code == 0
        assert "2/2 passed" in out

    @pytest.mark.parametrize("grid", ["1,1", "1:1;1:1"])
    def test_repeated_pairs_run_once(self, capsys, grid):
        code, out, _ = run(capsys, "verify", "--suite", "thm11i", "--weight-max", "2",
                           "--grid", grid)
        assert code == 0
        assert "3/3 passed" in out


@pytest.mark.parametrize("argv, message", [
    ("compute --family Zstar --word 1:1,1:2 --alpha 1 --r-vector 1,-1",
     "r-vector entries must be >= 0"),
    ("compute --family Z --word 1:2 --alpha abc --beta 1", "argument --alpha: not a number: 'abc'"),
    ("compute --family Z --word 01 --alpha 1", "word must begin with letter '1'"),
    ("dual --word 1:0,1:2", "exponent must be >= 1, got 0"),
], ids=["negative-r-entry", "alpha-not-a-number", "leading-zero-letter", "zero-exponent"])
def test_rejected_input_exits_2(capsys, argv, message):
    # the parser's own errors exit through SystemExit, the rest through main's return
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert message in cap.err


def test_every_option_has_help():
    parser = build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    bare = [(p.prog, opt) for p in parsers for a in p._actions
            if a.option_strings and "-h" not in a.option_strings and not a.help
            for opt in a.option_strings]
    assert len(parsers) == 5 and not bare, bare


class _Built(Exception):
    """Stops a command once it has built its config."""


class TestDefaults:
    # the parser takes every default from the config it builds
    def test_compute_builds_default_eval_config(self, monkeypatch):
        built = []

        def record(family, word, r, p, cfg):
            built.append(cfg)
            raise _Built

        monkeypatch.setattr("mzdual.cli.eval_family", record)
        with pytest.raises(_Built):
            main(["compute", "--family", "Z", "--word", "1:2", "--alpha", "1", "--beta", "1"])
        assert built == [EvalConfig()]

    def test_verify_builds_default_suite_config(self, monkeypatch):
        built = []

        def record(suite, sc, workers):
            built.append(sc)
            raise _Built

        monkeypatch.setattr("mzdual.cli.run_suite", record)
        with pytest.raises(_Built):
            main(["verify", "--suite", "thm11i"])
        assert built == [SuiteConfig()]


def test_runtime_needs_numpy_alone():
    # scipy is a test oracle, never imported by the package itself
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import mzdual.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
