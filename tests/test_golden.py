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
quadrature per partner node.  A change that keeps the numbers keeps every
byte.  To rewrite the goldens after a
deliberate change of output, run

    PYTHONPATH=src python3 tests/test_golden.py

tests/golden/cir4.json holds the (I1, I2, I3) sums of the fourth-order
quadrature cross-check on its grid and on the bisected grid, as hex floats,
as the 3-D tensor-product sums gave them before the y-integrals were
separated out; a reordering of the same sums keeps them to rounding.  That
script leaves it as it is.
"""

import hashlib
import io
import json
import pathlib

import numpy as np
import pytest

from fbmseries.cli import main
from fbmseries.expformula import _cir_ordered_integrals
from fbmseries.fbm import McConfig, simulate
from fbmseries.functional import TimeGrid, evaluate, to_sexpr
from fbmseries.parser import parse
from fbmseries.taylor import backward_taylor

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"
ENGINES = pathlib.Path(__file__).parent / "golden" / "engines.json"
CIR4 = pathlib.Path(__file__).parent / "golden" / "cir4.json"

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


def _engine_run(case):
    """SHA-1 of each symbolic term's S-expression and the hex floats of the
    terms on 8 paths drawn with seed 11."""
    text, grid_text, order = case
    r, h = 0.3, 0.7
    grid = TimeGrid(tuple(float(t) for t in grid_text.split(",")))
    terms = backward_taylor(parse(text), r, grid, order, h).terms
    ens = simulate(TimeGrid.covering(grid.times + (r,)), h,
                   McConfig(n_paths=8, seed=11))
    values = evaluate(list(terms), h=h, path=ens.as_grid_path())
    return {"case": "|".join(map(str, case)),
            "sexpr_sha1": [hashlib.sha1(to_sexpr(t).encode()).hexdigest()
                           for t in terms],
            "values": [[float(x).hex() for x in np.ravel(v)] for v in values]}


def _run(argv):
    out = io.StringIO()
    code = main(argv, stdout=out)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue()}


def _golden():
    return {" ".join(g["argv"]): g for g in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_command():
    assert sorted(_golden()) == sorted(" ".join(a) for a in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_cli_output_is_byte_identical(argv):
    assert _run(argv) == _golden()[" ".join(argv)]


def test_engine_golden_covers_every_case():
    assert [g["case"] for g in json.loads(ENGINES.read_text())] == [
        "|".join(map(str, c)) for c in ENGINE_CASES]


@pytest.mark.parametrize("case", ENGINE_CASES, ids=lambda c: f"{c[0]}-o{c[2]}")
def test_engine_terms_are_bit_identical(case):
    want = {g["case"]: g for g in json.loads(ENGINES.read_text())}
    assert _engine_run(case) == want["|".join(map(str, case))]


@pytest.mark.parametrize("row", json.loads(CIR4.read_text()),
                         ids=lambda g: f"T{g['T']}-H{g['H']}")
def test_cir4_sums_match_their_golden(row):
    for name, refine in (("coarse", False), ("fine", True)):
        want = np.array([float.fromhex(x) for x in row[name]])
        got = _cir_ordered_integrals(row["T"], row["H"], refine)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(want)), name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_run(a) for a in COMMANDS], indent=1) + "\n")
    ENGINES.write_text(json.dumps([_engine_run(c) for c in ENGINE_CASES], indent=1)
                       + "\n")
