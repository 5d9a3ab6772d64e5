"""Harness pieces: line count, time limit, tracer, and the run's exit codes."""

import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracing
from workloads import Case

BENCH = Path(run.__file__).resolve().parent


def test_src_lines_ignore_comments_docstrings_and_line_wrapping(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        '"""Module docstring."""\n\n'
        "# a comment\n"
        "def f(x):\n"
        '    """Docstring\n    on two lines."""\n'
        "    y = (x +\n"
        "         1)  # trailing comment\n"
        "\n"
        "    return y\n")
    assert run.count_src_lines(pkg) == 3
    (pkg / "a.py").write_text("def f(x):\n    y = (x + 1)\n    return y\n")
    assert run.count_src_lines(pkg) == 3


def test_a_timed_out_case_stops_and_leaves_nothing_running():
    def spin():
        while True:
            pass

    old = signal.signal(signal.SIGALRM, run._on_alarm)
    threads = threading.active_count()
    try:
        t0 = time.perf_counter()
        status, seconds, out = run.run_case(Case("spin", spin, None, limit_s=0.2))
        elapsed = time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, old)
    assert (status, seconds, out) == ("timeout", 0.2, None)
    assert elapsed < 1.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert threading.active_count() == threads


def test_run_case_reports_errors_and_results():
    def boom():
        raise ValueError("bad input")

    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        assert run.run_case(Case("ok", lambda: 42, None))[::2] == ("ok", 42)
        status, _, exc = run.run_case(Case("boom", boom, None))
    finally:
        signal.signal(signal.SIGALRM, old)
    assert status == "error" and isinstance(exc, ValueError)


def test_self_time_subtracts_child_spans():
    t = tracing.Tracer()
    t.spans = [["taylor.backward_taylor", 0.0, 10.0, -1],
               ["functional.directional", 1.0, 4.0, 0],
               ["functional.collect_terms", 4.0, 6.0, 0],
               ["special.hermite_eval", 2.0, 3.0, 1]]
    agg = t._aggregate(0, 4)
    assert agg["taylor.self_s"] == 5.0
    assert agg["functional.derive_s"] == 2.0
    assert agg["functional.collect_s"] == 2.0
    assert agg["special.hermite_s"] == 1.0
    assert agg["functional.derive_calls"] == 1


def test_tracer_wraps_boundaries_only_and_uninstalls():
    import types

    from fbmseries import functional, taylor
    from fbmseries.functional import GridPath
    from fbmseries.parser import parse

    original = taylor.directional
    caller = types.ModuleType("caller")
    caller.evaluate = functional.evaluate
    t = tracing.Tracer()
    t.install([caller])
    try:
        assert taylor.directional is not original
        assert functional.directional is original
        t.active = True
        path = GridPath((0.0, 0.5, 1.0), [0.0, 0.1, 0.2])
        caller.evaluate(parse("exp(B(0.5)*B(1)) + B(1)^2"), 0.7, path)
    finally:
        t.uninstall()
    assert taylor.directional is original
    names = [s[0] for s in t.spans]
    assert names.count("functional.evaluate") == 1
    assert t.counts["functional.evaluate_values"] == 1


def test_count_nodes_counts_shared_subtrees_once():
    from fbmseries.parser import parse

    e = parse("exp(B(1))*exp(B(1)) + exp(B(1))")
    total, unique = tracing.count_nodes([e])
    assert total > unique
    assert tracing.count_nodes([e, e]) == (2 * total, unique)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_is_whole(trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    import workloads

    def tiny(seed):
        return [c for c in workloads._expform_levels(seed)
                if c.name in ("expform.examples.o12", "expform.level1.r0.o1")]

    monkeypatch.setitem(workloads._BUILDERS, "expform-levels", tiny)
    monkeypatch.setattr(run, "measure_setup", lambda w, s: 0.5)
    assert run.main(["--workload", "expform-levels", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] == 2 and out["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(out["metrics"]) == sorted(names)


def test_every_per_layer_name_is_derived_from_spans_and_counts():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    t = tracing.Tracer()
    calls = ["functional.directional", "functional.collect_terms", "functional.freeze",
             "functional.evaluate", "functional.make_sum", "special.hermite_eval",
             "kernel.rect_integral", "quadrature.adaptive_panels", "fbm.simulate",
             "taylor.psi_orders", "expformula.second_derivative",
             "applications.merton_bond_price", "parser.parse"]
    t.spans = [["cli.main", 0.0, 100.0, -1], ["taylor.backward_taylor", 1.0, 40.0, 0],
               ["expformula.exp_series", 50.0, 90.0, 0]]
    t.spans += [[name, 2.0 + i, 2.5 + i, 1] for i, name in enumerate(calls)]
    for key in ("functional.result_nodes", "functional.result_unique_nodes",
                "functional.evaluate_values", "quadrature.integrand_calls",
                "quadrature.integrand_points", "fbm.draws", "route.exact",
                "route.factorized", "route.quadrature"):
        t.counts[key] = 1.0
    out = t.metrics((0, {}), 1, names)
    assert sorted(out) == sorted(names)
    assert [n for n in names if not out[n] > 0] == []


def test_a_check_that_raises_any_exception_counts_as_a_wrong_output():
    def bad_check(out):
        return out["missing"]

    problems = []
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        times, cals, timeouts, failed = run.run_pass([Case("ok", lambda: {}, bad_check)],
                                                     problems.append)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert failed == 1 and len(times) == 1 and len(cals) == 2 and timeouts == [False]
    assert problems and "KeyError" in problems[0]


def test_truncated_check_sees_a_missing_top_order():
    import workloads

    want = np.linspace(0.5, 2.0, 32)
    workloads._truncated(want * (1 + 1e-9), want, 1e-8, "close")
    with pytest.raises(workloads.CheckFailed):
        workloads._truncated(want * (1 + 1e-7), want, 1e-8, "top order missing")
    spike = want.copy()
    spike[3] *= 1 + 1e-6
    workloads._truncated(spike, want, 1e-8, "one path off by 100 tol")
    spike[3] = want[3] * (1 + 1e-4)
    with pytest.raises(workloads.CheckFailed):
        workloads._truncated(spike, want, 1e-8, "one path off by 1e4 tol")


def test_case_times_are_scaled_by_the_calibrations_either_side():
    ref = run.CAL_REF_S
    got = run.scale_times([1.0, 2.0, 1.5], [ref, ref, 3 * ref, ref], [False, False, True])
    assert got == pytest.approx([1.0, 1.0, 1.5])
