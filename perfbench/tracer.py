"""Spans around the calls into fbmseries's layers, recorded from outside.

Tracer.install() replaces each boundary function with a wrapper, in the
namespace of the module that calls it: a function that module X imported
from module Y is wrapped in X's globals only, so a layer's calls into its
own functions (its recursion) stay unwrapped.  A few functions a module
calls within itself are wrapped too, because they mark an engine phase
(INTRA_MODULE).  Every wrapper appends a span (name, start, end, parent)
to a list in memory; metrics() derives self times and counts from it, and
write() dumps the spans as JSON lines at the end of the run.

Self time of a span is its duration minus the durations of its child
spans, so the self times of all spans add up to the traced time.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import types
from collections import defaultdict

PACKAGE = "fbmseries"

# helpers too small to trace: validation and scalar powers called from
# inner loops, where a span would cost more than the call
SKIP = {"_hval", "abs_pow"}

# functions called inside their own module that mark an engine phase
INTRA_MODULE = [
    ("taylor", "psi_orders"),
    ("taylor", "_package"),
    ("expformula", "second_derivative"),
    ("expformula", "_level_value"),
]

# attributes read by a function-level import (functional -> quadrature)
MODULE_ATTRIBUTES = [("quadrature", "phi_weighted_integral")]

QUADRATURE_ENTRIES = {"adaptive_panels", "nested_simplex",
                      "phi_weighted_integral", "fixed_panel"}

# span name -> metric group; a group's time is the self time of its spans,
# except for the phase markers in _INCLUSIVE, whose time is their duration
_GROUPS = {
    "functional.directional": "functional.derive",
    "functional.malliavin": "functional.derive",
    "functional.grid_partials": "functional.derive",
    "functional.collect_terms": "functional.collect",
    "functional.freeze": "functional.freeze_expand",
    "functional.expand": "functional.freeze_expand",
    "functional.evaluate": "functional.evaluate",
    "special.hermite_eval": "special.hermite",
    "fbm.simulate": "fbm.simulate",
    "taylor.psi_orders": "taylor.psi",
    "expformula.second_derivative": "expformula.derive",
    "parser.parse": "parser.parse",
}
_INCLUSIVE = {"taylor.psi_orders", "expformula.second_derivative", "parser.parse"}
_ENGINES = {"taylor.backward_taylor", "expformula.exp_series"}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.active = False
        self.counts = defaultdict(float)
        self.paused = 0.0        # seconds spent counting nodes, kept out of spans
        self._patched = []

    def now(self) -> float:
        """The span clock: perf_counter without the time spent counting nodes."""
        return time.perf_counter() - self.paused

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str):
        tracer = self
        quad = name.startswith("quadrature.") and fn.__name__ in QUADRATURE_ENTRIES
        hook = {"functional.evaluate": self._on_evaluate,
                "fbm.simulate": self._on_simulate,
                "taylor._package": self._on_package,
                "expformula._level_value": self._on_level}.get(name)
        routes = name == "expformula._level_value"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if quad and args:
                args = (tracer._count_integrand(args[0]),) + args[1:]
            if hook is not None:
                hook(args, kwargs)
            spans = tracer.spans
            idx = len(spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, tracer.now(), 0.0, parent]
            spans.append(span)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = tracer.now()
                tracer.stack.pop()
            if routes:  # (value, "exact+quadrature")
                for route in out[1].split("+"):
                    tracer.counts["route." + route] += 1
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, module, attr: str, fn, name: str) -> None:
        self._patched.append((module, attr, fn))
        setattr(module, attr, self._wrap(fn, name))

    def install(self, callers) -> None:
        """Wrap the package's cross-module calls and the callers' own bindings.

        callers are extra modules (the benchmark's) whose imported fbmseries
        functions are wrapped in their namespace as well.
        """
        pkg = [m for n, m in sorted(sys.modules.items())
               if n.startswith(PACKAGE + ".") and m is not None]
        for module in pkg + list(callers):
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or attr in SKIP:
                    continue
                home = obj.__module__ or ""
                if home.startswith(PACKAGE + ".") and home != module.__name__:
                    short = home.rsplit(".", 1)[-1]
                    self._patch(module, attr, obj, f"{short}.{obj.__name__}")
        for mod_short, attr in INTRA_MODULE + MODULE_ATTRIBUTES:
            module = sys.modules[f"{PACKAGE}.{mod_short}"]
            self._patch(module, attr, getattr(module, attr), f"{mod_short}.{attr}")

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # ------------------------------------------------------------ counters

    def _count_integrand(self, f):
        counts = self.counts

        def counted(x, *rest):
            counts["quadrature.integrand_calls"] += 1
            counts["quadrature.integrand_points"] += _points(x)
            return f(x, *rest)

        return counted

    def _on_evaluate(self, args, kwargs):
        path = args[2] if len(args) > 2 else kwargs.get("path")
        width = 1
        if path is not None:
            width = max(1, path.values.size // max(1, len(path.times)))
        self.counts["functional.evaluate_values"] += width

    def _on_simulate(self, args, kwargs):
        grid, cfg = args[0], args[2] if len(args) > 2 else kwargs["cfg"]
        self.counts["fbm.draws"] += cfg.n_paths * (len(grid.times) - 1)

    def _on_package(self, args, kwargs):
        self._count_terms(args[1])

    def _on_level(self, args, kwargs):
        self._count_terms(args[0])

    def _count_terms(self, exprs) -> None:
        """Count the nodes of an engine's symbolic terms, off the span clock."""
        t0 = time.perf_counter()
        total, unique = count_nodes(exprs)
        self.counts["functional.result_nodes"] += total
        self.counts["functional.result_unique_nodes"] += unique
        self.paused += time.perf_counter() - t0

    # ------------------------------------------------------------- results

    def mark(self) -> tuple:
        """Position that splits the set-up's spans and counts from the passes'."""
        return len(self.spans), dict(self.counts)

    def metrics(self, setup_mark: tuple, n_passes: int, names) -> dict:
        """The named per-layer metrics: the set-up once plus the average pass.

        A name is a module's self_s or calls, a group's _s or _calls (see
        _GROUPS), a counter, kernel.s, quadrature.s, expformula.levels_<route>
        or cli.engine_runs; a layer the run did not reach reads 0.
        """
        n_setup, setup_counts = setup_mark
        setup = self._aggregate(0, n_setup)
        passes = self._aggregate(n_setup, len(self.spans))
        for key, val in self.counts.items():
            setup[key] += setup_counts.get(key, 0.0)
            passes[key] += val - setup_counts.get(key, 0.0)
        for agg in (setup, passes):
            for route in ("exact", "factorized", "quadrature"):
                agg["expformula.levels_" + route] = agg["route." + route]
        n = max(1, n_passes)
        out = {key: setup[key] + passes[key] / n for key in names}
        cli_calls = setup["cli.calls"] + passes["cli.calls"]
        runs = setup["cli.engine_calls"] + passes["cli.engine_calls"]
        out["cli.engine_runs"] = runs / cli_calls if cli_calls else 0.0
        return out

    def _aggregate(self, lo: int, hi: int):
        spans = self.spans
        child = defaultdict(float)
        for i in range(lo, hi):
            _, start, end, parent = spans[i]
            if parent >= 0:
                child[parent] += end - start
        agg = defaultdict(float)
        for i in range(lo, hi):
            name, start, end, _ = spans[i]
            dur = end - start
            self_s = dur - child[i]
            module = name.split(".", 1)[0]
            agg[module + ".self_s"] += self_s
            agg[module + ".calls"] += 1
            group = _GROUPS.get(name)
            if group is None and module == "functional":
                group = "functional.other"
            if group is not None:
                agg[group + "_s"] += dur if name in _INCLUSIVE else self_s
                agg[group + "_calls"] += 1
            if name in _ENGINES and self._under(i, "cli.main"):
                agg["cli.engine_calls"] += 1
        agg["kernel.s"] = agg["kernel.self_s"]
        agg["quadrature.s"] = agg["quadrature.self_s"]
        return agg

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def _points(x) -> int:
    """Quadrature nodes in one integrand call: an array's size, else one."""
    return int(getattr(x, "size", 1))


def count_nodes(exprs) -> tuple:
    """(nodes counting repeats, structurally distinct nodes) of expression trees.

    A node is an instance of a dataclass defined in fbmseries.functional;
    its children are the nodes among its fields (directly or in a tuple).
    """
    ids = {}      # id(node) -> (node, uid, tree size)
    table = {}    # (type, leaf data, child uids) -> uid

    def visit(node):
        hit = ids.get(id(node))
        if hit is not None:
            return hit
        leaves, kids = [], []
        for fld in dataclasses.fields(node):
            val = getattr(node, fld.name)
            items = val if isinstance(val, tuple) else (val,)
            if any(_is_node(v) for v in items):
                kids.extend(visit(v) for v in items)
            else:
                leaves.append(val)
        key = (type(node), tuple(leaves), tuple(k[1] for k in kids))
        uid = table.setdefault(key, len(table))
        out = (node, uid, 1 + sum(k[2] for k in kids))
        ids[id(node)] = out
        return out

    total = sum(visit(e)[2] for e in exprs if _is_node(e))
    return total, len(table)


def _is_node(x) -> bool:
    return dataclasses.is_dataclass(x) and type(x).__module__ == PACKAGE + ".functional"
