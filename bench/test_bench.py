"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

``test_exact_counts_repeat`` makes nine traced passes (about four minutes
on two cores); the other tests take well under a second.
"""

from __future__ import annotations

import os
import time

import pytest

from run import DEADLINE_S, OUT_DIR, gate, judge, spawn
from tracing import layer_metrics, read_spans
from workloads import WORKLOADS, ZETA3_OP, commands

ZETA3 = 1.2020569031595942


def _span(layer, start, end, parent=-1, count=0):
    return {"name": layer, "layer": layer, "start": start, "end": end,
            "parent": parent, "op": 0, "count": count}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_order_not_work(workload):
    def work(argvs):
        out = []
        for argv in argvs:
            argv = list(argv)
            if "--grid" in argv:
                i = argv.index("--grid") + 1
                argv[i] = sorted(argv[i].split(";"))
            out.append(repr(argv))
        return sorted(out)

    runs = [commands(workload, seed) for seed in range(6)]
    assert all(work(r) == work(runs[0]) for r in runs)
    if workload != "integral-d2":  # one pair, one command: nothing to permute
        assert any(r != runs[0] for r in runs)


def test_self_time_subtracts_direct_children():
    spans = [
        _span("check", 0, 100),
        _span("lookup", 10, 90, parent=0),
        _span("evaluate", 20, 80, parent=1, count=1),
        _span("stream", 30, 50, parent=2, count=40),
        _span("fit", 50, 70, parent=2),
    ]
    m = layer_metrics(spans, set(), (3, 1))
    assert m["verifier.self_s"][0] == pytest.approx(20e-9)
    assert m["evaluators.lookup_s"][0] == pytest.approx(20e-9)
    assert m["nested_sum.evaluate_s"][0] == pytest.approx(20e-9)
    assert m["nested_sum.stream_s"][0] == pytest.approx(20e-9)
    assert m["nested_sum.stream_ns_per_level_term"][0] == pytest.approx(0.5)
    assert m["nested_sum.converged_ratio"][0] == 1.0
    assert m["evaluators.cache_hit_ratio"][0] == 0.75
    assert m["verifier.check_p90_ms"][0] == 0.0  # fewer than 100 checks


def test_missing_hook_drops_only_its_layer():
    m = layer_metrics([_span("fit", 0, 10)], {"stream"}, None)
    assert "nested_sum.stream_s" not in m and "evaluators.cache_hit_ratio" not in m
    assert m["nested_sum.fit_calls"] == (1, "count")


def _compute(value, err=1e-13, rc=0, name="compute/zeta/w=1:2/a=2"):
    return {"name": name, "rc": rc, "value": [value, 0.0], "err": err}


def test_gate_counts_deviation_non_convergence_and_missing_ops():
    ref = _compute(1.5)
    assert judge(_compute(1.5 + 1e-13), ref, ZETA3) == (False, False)
    assert judge(_compute(1.5 + 1e-12), ref, ZETA3) == (True, True)
    assert judge(_compute(1.5, rc=3), ref, ZETA3) == (True, False)
    assert judge(_compute(1.5), None, ZETA3) == (True, True)
    # held to zeta(3) even when the run agrees with its reference
    off = _compute(ZETA3 + 1e-12, err=1e-13, name=ZETA3_OP)
    assert judge(off, off, ZETA3) == (True, True)

    check = {"name": "thm11i/x", "rc": 0, "lhs": [2.0, 0.0], "rhs": [2.0, 0.0],
             "tol": 1e-9, "passed": True, "note": ""}
    assert judge(check, check, ZETA3) == (False, False)
    assert judge(dict(check, note="tolerance-not-reached"), check, ZETA3) == (True, False)
    assert judge(dict(check, lhs=[2.0 + 1e-8, 0.0]), check, ZETA3) == (True, True)

    refs = {"thm11i/x": check, "thm11i/y": check}
    attempted, failed, problems = gate({"n_ops": 2, "ops": [check]}, refs, ZETA3)
    assert (attempted, failed) == (2, 1) and problems


EXACT = ("nested_sum.level_terms", "nested_sum.evaluate_calls", "nested_sum.fit_calls",
         "verifier.quad_points", "words.terms_out")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    os.makedirs(OUT_DIR, exist_ok=True)
    counts = []
    for seed in (1, 1, 2):
        path = os.path.join(OUT_DIR, f"test-spans-{workload}-{seed}.jsonl")
        rec = spawn(workload, seed, "trace", time.monotonic() + DEADLINE_S, path)
        m = layer_metrics(read_spans(path), set(rec["missing"].values()), rec["cache_info"])
        counts.append({name: m[name][0] for name in EXACT})
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["nested_sum.evaluate_calls"] > 0
