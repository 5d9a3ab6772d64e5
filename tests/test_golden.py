"""Byte-for-byte CLI output against golden documents.

tests/golden/cli.json holds the stdout and exit code of a fixed set of CLI
commands, as the package printed them before the derivative memo and the
joint evaluation schedule went into the backward Taylor engine; the
`expform` entry on exp(0.5*B(1))*B(0.5), whose levels from 2 up take the
separable route, as the package first printed it with that route.  A
change that keeps the numbers keeps every byte.  To rewrite the goldens after a
deliberate change of output, run

    PYTHONPATH=src python3 tests/test_golden.py
"""

import io
import json
import pathlib

import pytest

from fbmseries.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"

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
    ["simulate", "--hurst", "0.7", "--T", "1", "--grid", "0,0.25,0.5,0.75,1",
     "--mc.paths", "4", "--mc.seed", "1", "--format", "csv"],
    ["cir", "--hurst", "0.7", "--T", "0.3", "--mc.paths", "2000",
     "--mc.seed", "7", "--mc.refinement", "4", "--format", "json"],
]


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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_run(a) for a in COMMANDS], indent=1) + "\n")
