"""The names perfbench's tracer binds in the package keep their contracts.

perfbench/tracer.py wraps expformula._level_value, whose first argument it
counts as the level's product terms and whose item 1 of the result it reads
as the route string, taylor._package, whose second argument it counts as
the order terms, and every binding of functional.evaluate, whose third
argument it reads as the path.  A change that breaks any of them shows here
by name, not only as a failed case of a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from fbmseries import expformula
from fbmseries.expformula import exp_series
from fbmseries.functional import GridPath, TimeGrid, fbm_sample
from fbmseries.parser import parse
from fbmseries.taylor import backward_taylor

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_routes_and_terms_of_both_engines():
    t = _load_tracer().Tracer()
    t.install([])
    try:
        t.active = True
        exp_series(parse("exp(IB(0,1))"), 0.0, 1.0, 0.7, 2)
        after_levels = t.counts["functional.result_nodes"]
        backward_taylor(parse("B(1)^2"), 0.5, TimeGrid((0.0, 0.5, 1.0)), 2, 0.7)
    finally:
        t.uninstall()
    assert t.counts["route.exact"] == 1
    assert t.counts["route.factorized"] == 1
    assert after_levels > 0
    assert t.counts["functional.result_nodes"] > after_levels


def test_positional_evaluate_keeps_the_path_third():
    # evaluate(expr, h, path): with h dropped or the parameters reordered,
    # 0.7 would be read as the path and the tracer would count no 3 paths
    ensemble = GridPath((0.0, 0.5, 1.0), np.arange(9.0).reshape(3, 3))
    t = _load_tracer().Tracer()
    t.install([])
    try:
        assert hasattr(expformula.evaluate, "__wrapped__")
        t.active = True
        before = t.counts["functional.evaluate_values"]
        expformula.evaluate(fbm_sample(0.5), 0.7, ensemble)
    finally:
        t.uninstall()
    assert t.counts["functional.evaluate_values"] == before + 3
