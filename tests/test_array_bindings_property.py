"""Properties of random functionals: differentiated in v_1 then u_1 and
frozen, they evaluate on arrays of (u_1, v_1) as they do element by element;
frozen at r, they evaluate on a path as they do on the path stopped at r.

Skipped when hypothesis is not installed.
"""

import numpy as np
import pytest

from fbmseries.functional import GridPath, collect_terms, directional, evaluate, freeze
from fbmseries.parser import parse

from test_array_bindings import GRID_VALUES, check, single_path

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_T = ("0.25", "0.5", "0.75", "1")
_PAIRS = [(a, b) for a in ("0",) + _T for b in _T if float(a) < float(b)]
_LEAVES = st.one_of(
    st.sampled_from(_T).map("B({})".format),
    st.sampled_from(_PAIRS).map(lambda p: "IB({},{})".format(*p)),
    st.sampled_from(_PAIRS).map(lambda p: "IB2({},{})".format(*p)),
    st.sampled_from(_PAIRS).map(lambda p: "WI(1+2*s;{},{})".format(*p)))
_EXPRS = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.tuples(kids, kids).map("({0[0]})*({0[1]})".format),
    st.tuples(kids, kids).map("({0[0]})+({0[1]})".format),
    kids.map("exp(0.5*({}))".format)), max_leaves=4)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(text=_EXPRS, r=st.sampled_from((0.0, 0.25, 0.625)))
def test_frozen_second_derivatives_evaluate_alike(text, r):
    d = collect_terms(directional(collect_terms(directional(parse(text), "_v1")), "_u1"))
    # u and v over [0, 1]: grid times, points between them, equal and apart
    u, v = np.meshgrid(GRID_VALUES, GRID_VALUES[::3])
    check(freeze(d, r), {"_u1": u, "_v1": v}, single_path(), exact=False)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(text=_EXPRS, r=st.sampled_from((0.0, 0.25, 0.625, 1.0)))
def test_a_frozen_functional_is_the_functional_on_the_stopped_path(text, r):
    f, path = parse(text), single_path()
    stopped = GridPath(path.times, np.where(np.asarray(path.times) <= r,
                                            path.values, path.value(r)))
    want = evaluate(f, path=stopped)
    assert evaluate(freeze(f, r), path=path) == pytest.approx(want, rel=1e-12, abs=1e-12)
