"""Command-line driver for the series engines and worked models.

Subcommands: simulate, taylor, expform, merton, cir, lognormal.  Shared
flags: --hurst, --r, --T, --grid, --expr, --order, --mc.paths, --mc.seed,
--mc.refinement, --sigma, --mu, --z, --p, --format, --output, --config.
A config file holds key = value lines using the flag names (for example
"mc.paths = 100"); explicit flags win over config entries.  When --output
is a relative path and FBMSERIES_OUTPUT_DIR is set, the file lands in
that directory.

Exit codes: 0 success, 2 invalid configuration or expression, 3 failure
inside a numerical engine (a NaN or infinity in the output document, or a
quadrature that misses its tolerance, counts as one, whatever the format),
4 output I/O failure.

Output documents are flat key/value maps whose list-valued entries all
describe per-order (or per-path) rows.  JSON prints every float with 17
significant digits, which round-trips float64 exactly, so equal configs
give byte-identical files and the table rendering of a re-parsed JSON
document matches the original.  CSV uses "# key = value" comment lines
for scalars followed by one column per list key; simulate instead emits
a header row of grid times and one row per simulated path.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .applications import (cir_mc_check, cir_small_t, lognormal_cf_series,
                           lognormal_moment, merton_bond_price)
from .expformula import EngineError, exp_series
from .fbm import McConfig, simulate
from .functional import EvalError, TimeGrid, evaluate, is_deterministic, times
from .parser import ParseError, parse
from .quadrature import QuadratureError
from .taylor import backward_taylor

OUTPUT_DIR_ENV = "FBMSERIES_OUTPUT_DIR"


class ConfigError(ValueError):
    """Bad flag/config-file input, reported with exit code 2."""


def _fmt_float(x: float) -> str:
    return "%.17g" % x


def _render_num(v) -> str:
    return _fmt_float(v) if isinstance(v, float) else str(v)


# ---------------------------------------------------------------- output

def _json_text(obj) -> str:
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _check_finite(obj) -> None:
    """Raise EngineError for a NaN or infinity anywhere in an output document."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for v in obj:
            _check_finite(v)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise EngineError(f"non-finite value {obj} in output")


def _split(doc: dict, prefix: str) -> tuple:
    """(scalar lines "<prefix>key = value", {list key: rows}) of a document."""
    scalars, lists = [], {}
    for k, v in doc.items():
        if isinstance(v, (list, tuple)):
            lists[k] = list(v)
        else:
            scalars.append(f"{prefix}{k} = {v if isinstance(v, str) else _render_num(v)}")
    return scalars, lists


def _rows(lists: dict, cell) -> list:
    """The header and the n-indexed rows of a document's list keys, each
    value rendered by cell; a cell past the end of a short list is blank."""
    keys = list(lists)
    rows = [["n"] + keys]
    for i in range(max(len(v) for v in lists.values())):
        rows.append([str(i)] + [cell(lists[k][i]) if i < len(lists[k]) else ""
                                for k in keys])
    return rows


def _table_cell(v) -> str:
    if isinstance(v, (list, tuple)):
        return ",".join(_render_num(x) for x in v)
    return _render_num(v)


def render_table(doc: dict) -> str:
    """Aligned text rendering; a pure function of the output document."""
    lines, lists = _split(doc, "")
    if lists:
        rows = _rows(lists, _table_cell)
        widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
        if lines:
            lines.append("")
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _csv_text(doc: dict) -> str:
    if doc.get("subcommand") == "simulate":
        lines = [",".join(_fmt_float(t) for t in doc["times"])]
        lines += [",".join(_fmt_float(x) for x in row) for row in doc["values"]]
        return "\n".join(lines) + "\n"
    lines, lists = _split(doc, "# ")
    if lists:
        lines += [",".join(r) for r in _rows(lists, _render_num)]
    return "\n".join(lines) + "\n"


def _emit(doc: dict, fmt: str, output, stream) -> None:
    if fmt == "json":
        text = _json_text(doc) + "\n"
    elif fmt == "csv":
        text = _csv_text(doc)
    else:
        text = render_table(doc)
    if output:
        out_dir = os.environ.get(OUTPUT_DIR_ENV)
        if out_dir and not os.path.isabs(output):
            output = os.path.join(out_dir, output)
        with open(output, "w") as fh:
            fh.write(text)
    else:
        stream.write(text)


# ------------------------------------------------------------ arguments

# a converter's message is the whole error text for a flag and the tail of
# it for a config line
def _grid_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid list {text!r}: expected comma-separated times, such as 0,0.5,1")


def _output_format(text: str) -> str:
    if text not in ("json", "csv", "table"):
        raise argparse.ArgumentTypeError(
            f"unknown output format {text!r}: expected json, csv or table")
    return text


_CONFIG_KEYS = {
    "hurst": ("hurst", float),
    "r": ("r", float),
    "T": ("big_t", float),
    "grid": ("grid", _grid_list),
    "expr": ("expr", str),
    "order": ("order", int),
    "sigma": ("sigma", float),
    "mu": ("mu", float),
    "z": ("z", float),
    "p": ("p", int),
    "mc.paths": ("mc_paths", int),
    "mc.seed": ("mc_seed", int),
    "mc.refinement": ("mc_refinement", int),
    "format": ("format", _output_format),
    "output": ("output", str),
}


def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        dest, conv = _CONFIG_KEYS[key]
        try:
            out[dest] = conv(val)
        except (ValueError, argparse.ArgumentTypeError) as e:
            raise ConfigError(f"config line {ln}: bad value for {key!r}: {e}")
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call of the process
    and reused after it; parse_args leaves it as it was."""
    top = argparse.ArgumentParser(prog="fbmseries",
                                  description="series engines for conditional "
                                              "expectations of fBm functionals")
    subs = top.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        sp = subs.add_parser(name)
        for key, (dest, conv) in _CONFIG_KEYS.items():
            sp.add_argument("--" + key, dest=dest, type=conv, default=None)
        sp.add_argument("--config", type=str, default=None)
    return top


def _require(args, field, flag):
    val = getattr(args, field)
    if val is None:
        raise ConfigError(f"{args.subcommand} requires {flag}")
    return val


def _mc_config(args, default_paths: int) -> McConfig:
    try:
        return McConfig(n_paths=args.mc_paths if args.mc_paths is not None
                        else default_paths,
                        seed=args.mc_seed if args.mc_seed is not None else 0,
                        grid_refinement=args.mc_refinement
                        if args.mc_refinement is not None else 1)
    except ValueError as e:
        raise ConfigError(str(e))


def _hurst(args) -> float:
    h = _require(args, "hurst", "--hurst")
    if not 0.5 < h < 1.0:
        raise ConfigError(f"hurst = {h} unsupported: the kernel calculus "
                          "requires a Hurst index strictly between 1/2 and 1")
    return h


def _symbol_grid(args):
    """Grid backing the t1..tJ / T symbols in --expr, if any is known."""
    known = set(args.grid or ()) | ({args.big_t} if args.big_t is not None else set())
    return TimeGrid.covering(known) if known else None


def _parse_expr(args) -> "tuple":
    src = _require(args, "expr", "--expr")
    return parse(src, _symbol_grid(args)), src


def _sim_path(args, f, h, extra) -> tuple:
    """(path, n_paths) simulated on a grid carrying f's times and extra.

    One simulated path gives a single GridPath, more give the ensemble view.
    """
    cfg = _mc_config(args, default_paths=1)
    grid = TimeGrid.covering(times(f) | set(extra)).refine(cfg.grid_refinement)
    ens = simulate(grid, h, cfg)
    return (ens.path(0) if cfg.n_paths == 1 else ens.as_grid_path()), cfg.n_paths


# ---------------------------------------------------------- subcommands

def _run_simulate(args) -> dict:
    h = _hurst(args)
    cfg = _mc_config(args, default_paths=16)
    if args.grid:
        grid = TimeGrid.covering(args.grid)
    else:
        grid = TimeGrid((0.0, _require(args, "big_t", "--grid or --T")))
    grid = grid.refine(cfg.grid_refinement)
    ens = simulate(grid, h, cfg)
    return {
        "subcommand": "simulate",
        "hurst": h,
        "seed": cfg.seed,
        "n_paths": cfg.n_paths,
        "times": list(grid.times),
        "values": [list(map(float, row)) for row in ens.values],
    }


def _series_doc(args, res, n_paths: int) -> dict:
    terms = [float(np.mean(t)) for t in res.terms]
    sums = [float(np.mean(p)) for p in res.partial_sums]
    doc = {
        "subcommand": args.subcommand,
        "hurst": args.hurst,
        "r": args.r,
        "expr": args.expr,
        "order": res.order,
        "n_paths": n_paths,
        "value": sums[-1],
        "terms": terms,
        "partial_sums": sums,
    }
    if res.diagnostics:
        doc["n_terms"] = [d["n_terms"] for d in res.diagnostics]
        if all("route" in d for d in res.diagnostics):
            doc["routes"] = [d["route"] for d in res.diagnostics]
    return doc


def _run_taylor(args) -> dict:
    h = _hurst(args)
    grid_times = _require(args, "grid", "--grid")
    order = args.order if args.order is not None else 6
    r = args.r if args.r is not None else 0.0
    f, _ = _parse_expr(args)
    expand_grid = TimeGrid.covering(grid_times)
    if not 0.0 <= r <= expand_grid.final_time:
        raise ValueError(f"need 0 <= r <= horizon, got r={r}, "
                         f"horizon={expand_grid.final_time}")
    path, n_paths = _sim_path(args, f, h, expand_grid.times + (r,))
    res = backward_taylor(f, r, expand_grid, order, h, path=path)
    args.r = r
    return _series_doc(args, res, n_paths)


def _run_expform(args) -> dict:
    h = _hurst(args)
    big_t = _require(args, "big_t", "--T")
    order = args.order if args.order is not None else 10
    r = args.r if args.r is not None else 0.0
    f, _ = _parse_expr(args)
    if r > 0.0 and not is_deterministic(f):
        # the frozen series depends on the path up to r; simulate one
        path, n_paths = _sim_path(args, f, h, (r, big_t))
        res = exp_series(f, r, big_t, h, order, path=path)
    else:
        res = exp_series(f, r, big_t, h, order)
        vals = [float(v) for v in evaluate(res.terms + res.partial_sums)]
        res.terms, res.partial_sums = vals[:order + 1], vals[order + 1:]
        n_paths = 0
    args.r = r
    doc = _series_doc(args, res, n_paths)
    doc["T"] = big_t
    return doc


def _run_merton(args) -> dict:
    h = _hurst(args)
    big_t = _require(args, "big_t", "--T")
    order = args.order if args.order is not None else 12
    res = merton_bond_price(big_t, h, order)
    return {
        "subcommand": "merton",
        "hurst": h,
        "T": big_t,
        "order": order,
        "closed_form": res.closed_form,
        "value": res.partial_sums[-1],
        "partial_sums": list(res.partial_sums),
        "engine_sums": list(res.engine_sums),
        "rel_gaps": list(res.rel_gaps),
    }


def _run_cir(args) -> dict:
    h = _hurst(args)
    big_t = _require(args, "big_t", "--T")
    ce = cir_small_t(big_t, h)
    doc = {
        "subcommand": "cir",
        "hurst": h,
        "T": big_t,
        "c0": ce.c0,
        "c1": ce.c1,
        "c2": ce.c2,
        "c2_integral": ce.c2_integral,
        "approx": ce.approx,
    }
    if args.mc_paths is not None:
        chk = cir_mc_check(big_t, h, _mc_config(args, default_paths=args.mc_paths))
        doc.update({
            "mc": chk.mc,
            "stderr": chk.stderr,
            "band": chk.band,
            "refinement_gap": chk.refinement_gap,
            "truncation_budget": chk.truncation_budget,
            "n_paths": chk.n_paths,
        })
    return doc


def _run_lognormal(args) -> dict:
    h = _hurst(args)
    big_t = _require(args, "big_t", "--T")
    sigma = _require(args, "sigma", "--sigma")
    if args.p is not None:
        n_max = args.order if args.order is not None else 60
        val = lognormal_moment(args.p, big_t, h, sigma, n_max=n_max)
        return {
            "subcommand": "lognormal",
            "mode": "moment",
            "hurst": h,
            "T": big_t,
            "sigma": sigma,
            "p": args.p,
            "n_max": n_max,
            "value": val,
        }
    if args.z is not None:
        n_max = args.order if args.order is not None else 30
        mu = args.mu if args.mu is not None else 0.0
        ser = lognormal_cf_series(args.z, big_t, h, sigma, mu, n_max)
        return {
            "subcommand": "lognormal",
            "mode": "cf",
            "hurst": h,
            "T": big_t,
            "sigma": sigma,
            "mu": mu,
            "z": args.z,
            "n_max": n_max,
            "value_real": ser.value.real,
            "value_imag": ser.value.imag,
            "terms_real": [t.real for t in ser.terms],
            "terms_imag": [t.imag for t in ser.terms],
        }
    raise ConfigError("lognormal requires --p (moment) or --z "
                      "(characteristic function)")


_RUNNERS = {
    "simulate": _run_simulate,
    "taylor": _run_taylor,
    "expform": _run_expform,
    "merton": _run_merton,
    "cir": _run_cir,
    "lognormal": _run_lognormal,
}


def main(argv=None, stdout=None) -> int:
    stream = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            for dest, val in _read_config(args.config).items():
                if getattr(args, dest, None) is None:
                    setattr(args, dest, val)
        doc = _RUNNERS[args.subcommand](args)
        _check_finite(doc)
    except (ConfigError, ParseError, ValueError) as e:
        print(f"fbmseries: configuration error: {e}", file=sys.stderr)
        return 2
    except (EngineError, EvalError, QuadratureError, FloatingPointError,
            OverflowError) as e:
        print(f"fbmseries: engine error: {e}", file=sys.stderr)
        return 3
    try:
        _emit(doc, args.format or "table", args.output, stream)
    except OSError as e:
        print(f"fbmseries: output error: {e}", file=sys.stderr)
        return 4
    return 0
