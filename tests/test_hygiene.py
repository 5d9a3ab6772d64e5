"""Source hygiene: every name a package module imports is used in that module.

A name counts as used when it appears, as a whole word, anywhere in the
module's text outside its own import statement; that covers names used
only inside string annotations, which an ast-only check would miss.
"""

import ast
import pathlib
import re

import pytest

import fbmseries

MODULES = sorted(pathlib.Path(fbmseries.__file__).parent.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(module):
    text = module.read_text()
    lines = text.splitlines()
    unused = []
    for node, name in _imported_names(ast.parse(text)):
        rest = lines[:node.lineno - 1] + lines[node.end_lineno:]
        if not re.search(rf"\b{re.escape(name)}\b", "\n".join(rest)):
            unused.append(f"{name} (line {node.lineno})")
    assert not unused, f"{module.name} imports unused names: {unused}"
