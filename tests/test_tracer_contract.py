"""The names perfbench's tracer binds in the package keep their contracts.

perfbench/tracer.py wraps expformula._level_value, whose first argument it
counts as the level's product terms and whose item 1 of the result it reads
as the route string, and taylor._package, whose second argument it counts as
the order terms.  A change that breaks either shows here by name, not only
as a failed case of a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from fbmseries.expformula import exp_series
from fbmseries.functional import TimeGrid
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
