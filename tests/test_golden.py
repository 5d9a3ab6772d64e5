"""Byte-for-byte CLI output and engine terms against golden documents.

tests/golden/cli.json holds the stdout and exit code of a fixed set of CLI
commands, as the package printed them before the derivative memo and the
joint evaluation schedule went into the backward Taylor engine; the
`expform` entry on exp(0.5*B(1))*B(0.5), whose levels from 2 up take the
separable route, as the package first printed it with that route; and the
`expform` entry on exp(-IB2(0,1)), whose level 2 takes the symmetrized
route, as the package first printed it with that route; and two
`expform` entries at r = 0.3 whose level-1 terms hold a time integral from
the bound variable u (exp(-IB2(0,1)) and IB2(0,1)*B(1)), as the package
printed them when that integral's kernel moment still ran one adaptive
quadrature per partner node; and a `cir` entry on 20000 paths, three
blocks of simulate, as the package printed it when each block's normals
were still drawn in line with its Cholesky product; and an `expform`
entry on three paths, exp(0.5*IB(0,1))*B(1), whose levels take the
factorized and separable routes with frozen prefactors shared across
levels, as the package printed it when each level's prefactors and
cluster moments were still evaluated term by term; and the level-1 entry
on exp(-IB2(0,1)) at refinement 64, whose path form has 65 pieces, as the
package printed it when each cell of the kernel moment still scanned every
piece, with a multi-threaded BLAS (its path's 128-point Cholesky factor
has other bits on one BLAS thread, OPENBLAS_NUM_THREADS=1).  A change
that keeps the numbers keeps every byte.

tests/golden/engines.json holds, per backward_taylor case, the SHA-1 of each
symbolic term and the hex floats of the terms on a few paths.  The blocked
case evaluates its terms on 20 paths in blocks of 8, three blocks, as the
package gave them when every sum and product step built a new array.  To rewrite the goldens after a
deliberate change of output, run

    PYTHONPATH=src python3 tests/test_golden.py

tests/golden/cir4.json holds the (I1, I2, I3) sums of the fourth-order
quadrature cross-check on its grid and on the bisected grid, as hex floats,
as the 3-D tensor-product sums gave them before the y-integrals were
separated out; a reordering of the same sums keeps them to rounding.  That
script leaves it as it is.

tests/golden/parse.json holds, for a fixed corpus of expression texts each
parsed without a grid and with the grid (0, 0.5, 1), the S-expression of the
parsed functional or the [exception type, message, offset] it raised, as
the parser first gave them with one rule per atom kind.  The corpus covers
every atom and operator, grid symbols in and out of range, Wiener weight
polynomials, nesting 100 levels deep and truncated, mutated and
trailing-garbage inputs.  The script above rewrites it too.
"""

import hashlib
import io
import json
import pathlib

import numpy as np
import pytest

from fbmseries import functional
from fbmseries.cli import main
from fbmseries.expformula import _cir_ordered_integrals
from fbmseries.fbm import McConfig, simulate
from fbmseries.functional import TimeGrid, evaluate, to_sexpr
from fbmseries.parser import parse
from fbmseries.taylor import backward_taylor

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"
ENGINES = pathlib.Path(__file__).parent / "golden" / "engines.json"
CIR4 = pathlib.Path(__file__).parent / "golden" / "cir4.json"
PARSE = pathlib.Path(__file__).parent / "golden" / "parse.json"

COMMANDS = [
    ["taylor", "--hurst", "0.7", "--r", "0.3", "--grid", "0,0.25,0.5,0.75,1",
     "--expr", "exp(0.5*B(1))*B(0.5)", "--order", "6", "--mc.paths", "16",
     "--mc.seed", "3", "--format", "json"],
    ["taylor", "--hurst", "0.8", "--r", "0.25", "--grid", "0,0.5,1",
     "--expr", "B(0.5)^2*B(1)", "--order", "6", "--mc.paths", "16",
     "--mc.seed", "42", "--format", "table"],
    ["expform", "--hurst", "0.75", "--T", "1", "--r", "0",
     "--expr", "exp(IB(0,1))", "--order", "10", "--format", "json"],
    ["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
     "--expr", "WI(1+s;0,1)*B(1)", "--order", "3", "--mc.paths", "1",
     "--mc.seed", "5", "--format", "table"],
    ["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
     "--expr", "IB(0,1)*B(1)", "--order", "3", "--mc.paths", "1",
     "--mc.seed", "5", "--format", "json"],
    ["expform", "--hurst", "0.7", "--T", "1", "--r", "0.25",
     "--expr", "exp(0.5*B(1))*B(0.5)", "--order", "3", "--mc.paths", "1",
     "--mc.seed", "5", "--format", "json"],
    ["expform", "--hurst", "0.7", "--T", "1", "--r", "0",
     "--expr", "exp(-IB2(0,1))", "--order", "2", "--format", "json"],
    ["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
     "--expr", "exp(-IB2(0,1))", "--order", "1", "--mc.paths", "1",
     "--mc.refinement", "8", "--format", "json"],
    ["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
     "--expr", "IB2(0,1)*B(1)", "--order", "2", "--mc.paths", "1",
     "--mc.seed", "5", "--format", "json"],
    ["simulate", "--hurst", "0.7", "--T", "1", "--grid", "0,0.25,0.5,0.75,1",
     "--mc.paths", "4", "--mc.seed", "1", "--format", "csv"],
    ["cir", "--hurst", "0.7", "--T", "0.3", "--mc.paths", "2000",
     "--mc.seed", "7", "--mc.refinement", "4", "--format", "json"],
    ["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
     "--expr", "exp(0.5*IB(0,1))*B(1)", "--order", "4", "--mc.paths", "3",
     "--mc.seed", "5", "--mc.refinement", "8", "--format", "json"],
    ["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
     "--expr", "IB2(0,1)^2", "--order", "2", "--mc.paths", "1",
     "--mc.seed", "5", "--format", "json"],
    ["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
     "--expr", "exp(-IB2(0,1))", "--order", "1", "--mc.paths", "1",
     "--mc.refinement", "64", "--format", "json"],
]

# commands whose paths simulate draws in more than one block
BLOCKED_COMMANDS = [
    ["cir", "--hurst", "0.7", "--T", "0.3", "--mc.paths", "20000",
     "--mc.seed", "7", "--mc.refinement", "16", "--format", "json"],
]


_G4 = "0,0.25,0.5,0.75,1"
_G8 = ",".join(str(i / 8) for i in range(9))

# (expr, grid, order) of backward_taylor at r = 0.3, H = 0.7
ENGINE_CASES = [
    ("exp(0.1*B(1.0))", _G4, 7),
    ("exp(0.1*B(1.0))", _G8, 4),
    ("exp(0.06*B(0.5)+0.08*B(1.0))", _G4, 6),
    ("exp(0.025*B(0.25)+0.025*B(0.5)+0.025*B(0.75)+0.025*B(1.0))", _G4, 5),
    ("B(0.5)^2*exp(0.1*B(1.0))", _G4, 5),
    ("B(0.75)*exp(0.1*B(1.0))", _G4, 5),
    ("B(0.25)*B(0.5)*B(0.75)*B(1.0)", _G4, 6),
    ("B(0.5)^2*B(1.0)", _G4, 6),
    ("B(0.5)^2*B(1.0)^2", _G4, 6),
]

# (expr, grid, order, paths) evaluated in blocks of _BLOCK paths
_BLOCK = 8
BLOCKED_ENGINE_CASES = [("exp(0.1*B(1.0))", _G4, 6, 20)]


PARSE_GRID = (0.0, 0.5, 1.0)

_PARSE_WHOLE = [
    # numbers, samples and grid symbols
    "0", "1", "0.5", ".5", "1.", "2e3", "1.5E-2", "2e+1", "007", "0.0",
    "B(0.5)", "B(0)", "B(1)", "B(.25)", "B(1.5)", "B(1e-3)", "B(T)", "B(t1)",
    "B(t2)", "B(t0)", "B(t3)", "B(t01)", "B(t10)", "B(tt)", "B(x)", "B(s)",
    "  B( 1 )  ", "\tB(1)\n",
    # Wiener integrals and their weight polynomials
    "WI(1;0,1)", "WI(s;0,1)", "WI(s^2;0,1)", "WI(s^0;0,1)", "WI(1+s;0,1)",
    "WI(1-0.5*s^2;0,1)", "WI(2*s^3+s-1;0,0.5)", "WI(s+s;0,1)", "WI(s-s;0,1)",
    "WI(0;0,1)", "WI(0*s;0,1)", "WI(1-1;0,1)", "WI(0-0*s;0,1)", "WI(0.5*s;t1,T)",
    "WI(3*s^2-2*s+1-s^2;0.25,0.75)", "WI(1e3*s^12;0,1)", "WI(1;0,T)",
    "WI(1;t1,t2)", "WI(1;t2,t1)", "WI(1;0.5,0.5)", "WI(1;1,0.5)", "WI(1;0,2)",
    "WI(s;0.5,1.5)", "WI(-s;0,1)", "WI(s*2;0,1)", "WI(2s;0,1)", "WI(s^;0,1)",
    "WI(s^1.5;0,1)", "WI(2*;0,1)", "WI(2*x;0,1)", "WI(x;0,1)", "WI(;0,1)",
    "WI(1,0,1)", "WI(1;0;1)", "WI(1;0,1", "WI(1;0,1,2)", "WI(1;T,T)", "WI(1;0,t3)",
    "WI 1;0,1", "WI", "WI(1;0,1)^2*B(1)", "WI(1;1,0.5", "WI(1;T,0.5,1)",
    # time integrals and exp
    "IB(0,1)", "IB2(0,1)", "IB(0.25,0.5)", "IB(0,T)", "IB2(t1,T)", "IB(1,0)",
    "IB(0.5,0.5)", "IB(0,1", "IB(1,0", "IB(0 1)", "IB(0,)", "IB(,1)", "IB3(0,1)",
    "IB(0,1.5)", "IB2(t1,t1)", "IB(t0,1)", "IB(0;1)", "IB2", "IB(0,1)^3",
    "exp(B(1))", "exp(0)", "exp(1)", "exp(-B(1))", "exp(exp(B(1)))",
    "exp(B(1)", "exp B(1)", "exp()", "exp(1000)", "exp(0.5e11T)", "exp(2^2000",
    "EXP(1)", "Exp(B(1))", "ex(1)", "exp", "exp(1)(2)",
    # grouping, operators and folding
    "(B(1))", "((B(1)))", "()", "(", ")", "", " ", "B(1)+B(0.5)", "B(1)-B(0.5)",
    "B(1)*B(0.5)", "-B(1)", "--B(1)", "-(-B(1))", "B(1)^2", "B(1)^0", "B(1)^1",
    "B(1)^10", "B(1)^2^2", "B(1)^-1", "B(1)^1.5", "B(1)^1e1", "B(1)^", "B(1)^x",
    "2^3", "2^2000", "-2^2", "(-2)^2", "B(1)-B(1)", "B(1)+-B(1)", "B(1)*-B(1)",
    "B(1)**2", "B(1)++B(1)", "B(1)+", "B(1)*", "3*B(1)*2", "0*B(1)", "B(1)*0",
    "B(1)+0", "1+2-3", "2*3", "-0", "-0.0*B(1)", "0.1+0.2", "B(0)*B(1)",
    "B(0.5)*B(0.5)", "-", "*B(1)", "+B(1)", "^2",
    # trailing garbage and stray characters
    "B(1)/2", "B(1)%2", "B(1)@", "B(1) B(1)", "B(1))", "B(1),", "B(1);",
    "B(1)x", "B(1)2", "B(1)s", "B[1]", "b(1)", "B1", "B", "B(", "B()", "B(1",
    "B(1,2)", "B(-1)", "B(+1)", "B(1e)", "1e", "1.2.3", "..5", "1e+", "$", "B(1)#",
    "é", "B(1) é", "B(1)\x00",
    # the functionals of the examples and goldens
    "B(0.5)^2*B(1)", "exp(0.5*B(1))*B(0.5)", "B(0.25)*B(0.5)*B(0.75)*B(1.0)",
    "exp(0.06*B(0.5)+0.08*B(1.0))", "exp(-IB2(0,1))", "IB2(0,1)*B(1)",
    "exp(0.5*IB(0,1))*B(1)", "WI(1+s;0,1)*B(1)", "IB2(0,1)^2", "exp(IB(0,1))",
    "exp(-0.7*exp(0.5*B(1)))", "B(t1)*B(T)-WI(s;t1,T)+IB(0,t2)",
    # nesting
    "(" * 100 + "B(1)" + ")" * 100, "exp(" * 100 + "B(1)" + ")" * 100,
    "-" * 100 + "B(1)", "(" * 100 + "B(1)" + ")" * 99,
]


def _parse_corpus():
    """The whole inputs, then every proper prefix of one long input, every
    one-character deletion from another, and valid inputs with garbage
    appended; each text once, at its first place."""
    long = "exp(0.5*WI(1-s^2;t1,T))*IB2(0,t1)^2+B(T)"
    mutated = "WI(2*s^3-s;0.25,T)*exp(-B(t1))"
    out = list(_PARSE_WHOLE)
    out += [long[:i] for i in range(1, len(long))]
    out += [mutated[:i] + mutated[i + 1:] for i in range(len(mutated))]
    out += [base + tail for base in ("B(T)", "IB(0,1)", "exp(1)")
            for tail in (")", ",", ";", "x", "1", "(", "^", "-", "(1)")]
    return list(dict.fromkeys(out))


PARSE_INPUTS = _parse_corpus()


def _parse_run(src, grid):
    try:
        out = to_sexpr(parse(src, TimeGrid(grid) if grid else None))
    except Exception as exc:
        out = [type(exc).__name__, str(exc), getattr(exc, "offset", None)]
    return {"src": src, "grid": grid, "out": out}


def _parse_runs():
    return [_parse_run(src, grid) for src in PARSE_INPUTS
            for grid in (None, list(PARSE_GRID))]


def _engine_run(case):
    """SHA-1 of each symbolic term's S-expression and the hex floats of the
    terms on the case's paths (8 if it names no count) drawn with seed 11."""
    text, grid_text, order, *n_paths = case
    r, h = 0.3, 0.7
    grid = TimeGrid(tuple(float(t) for t in grid_text.split(",")))
    terms = backward_taylor(parse(text), r, grid, order, h).terms
    ens = simulate(TimeGrid.covering(grid.times + (r,)), h,
                   McConfig(n_paths=n_paths[0] if n_paths else 8, seed=11))
    values = evaluate(list(terms), h=h, path=ens.as_grid_path())
    return {"case": "|".join(map(str, case)),
            "sexpr_sha1": [hashlib.sha1(to_sexpr(t).encode()).hexdigest()
                           for t in terms],
            "values": [[float(x).hex() for x in np.ravel(v)] for v in values]}


def _blocked_engine_run(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functional, "_PATH_BLOCK", _BLOCK)
        return _engine_run(case)


def _run(argv):
    out = io.StringIO()
    code = main(argv, stdout=out)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue()}


def _golden():
    return {" ".join(g["argv"]): g for g in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_command():
    assert sorted(_golden()) == sorted(
        " ".join(a) for a in COMMANDS + BLOCKED_COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_cli_output_is_byte_identical(argv):
    assert _run(argv) == _golden()[" ".join(argv)]


@pytest.mark.parametrize("argv", BLOCKED_COMMANDS, ids=lambda a: a[0])
def test_blocked_cli_output_is_byte_identical(argv):
    assert _run(argv) == _golden()[" ".join(argv)]


def test_engine_golden_covers_every_case():
    assert [g["case"] for g in json.loads(ENGINES.read_text())] == [
        "|".join(map(str, c)) for c in ENGINE_CASES + BLOCKED_ENGINE_CASES]


@pytest.mark.parametrize("case", ENGINE_CASES, ids=lambda c: f"{c[0]}-o{c[2]}")
def test_engine_terms_are_bit_identical(case):
    want = {g["case"]: g for g in json.loads(ENGINES.read_text())}
    assert _engine_run(case) == want["|".join(map(str, case))]


@pytest.mark.parametrize("case", BLOCKED_ENGINE_CASES,
                         ids=lambda c: f"{c[0]}-o{c[2]}-p{c[3]}")
def test_blocked_engine_terms_are_bit_identical(case):
    want = {g["case"]: g for g in json.loads(ENGINES.read_text())}
    assert _blocked_engine_run(case) == want["|".join(map(str, case))]


@pytest.mark.parametrize("row", json.loads(CIR4.read_text()),
                         ids=lambda g: f"T{g['T']}-H{g['H']}")
def test_cir4_sums_match_their_golden(row):
    for name, refine in (("coarse", False), ("fine", True)):
        want = np.array([float.fromhex(x) for x in row[name]])
        got = _cir_ordered_integrals(row["T"], row["H"], refine)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(want)), name


def test_parse_golden_covers_every_input():
    assert [g["src"] for g in json.loads(PARSE.read_text())[::2]] == PARSE_INPUTS


def test_parse_results_match_their_golden():
    want = json.loads(PARSE.read_text())
    assert [g for g, w in zip(_parse_runs(), want) if g != w] == []


def _in_file_order(commands):
    """The commands in the order of the golden file, new ones at its end,
    so a rewrite with the same output leaves every byte of it in place."""
    known = list(_golden()) if GOLDEN.exists() else []
    rank = {key: i for i, key in enumerate(known)}
    return sorted(commands, key=lambda a: rank.get(" ".join(a), len(known)))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_run(a) for a in _in_file_order(COMMANDS + BLOCKED_COMMANDS)],
                                 indent=1) + "\n")
    ENGINES.write_text(json.dumps([_engine_run(c) for c in ENGINE_CASES]
                                  + [_blocked_engine_run(c) for c in BLOCKED_ENGINE_CASES],
                                  indent=1) + "\n")
    PARSE.write_text(json.dumps(_parse_runs(), indent=1) + "\n")
