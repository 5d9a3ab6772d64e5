"""Source hygiene: every name a package module imports is used in that
module, every private top-level name is used somewhere in the package,
every node kind is slotted, built by package code and not subclassed,
the kinds with a pwpoly are the piecewise-polynomial ones that hold a
variable, the symbolic layer imports no quadrature, and no other module
imports gc.

A name counts as used when it appears, as a whole word, anywhere in the
module's text outside its own import statement; that covers names used
only inside string annotations, which an ast-only check would miss.
"""

import ast
import importlib
import pathlib
import re
from typing import get_args

import pytest

import fbmseries
from fbmseries import functional

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


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_private_top_level_name_is_used(module):
    # a leftover private constant or helper is dead code; a use inside its
    # own definition (a recursive call) does not count
    lines = module.read_text().splitlines()
    others = "\n".join(m.read_text() for m in MODULES if m != module)
    unused = []
    for node, name in _private_definitions(ast.parse("\n".join(lines))):
        rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:] + [others])
        if not re.search(rf"\b{re.escape(name)}\b", rest):
            unused.append(f"{name} (line {node.lineno})")
    assert not unused, f"{module.name} defines unused private names: {unused}"


def test_node_kinds_have_slots_and_no_instance_dict():
    # an instance dict costs memory per node, and a kind without __slots__
    # could carry state outside its interning key
    kinds = [obj for obj in vars(functional).values()
             if isinstance(obj, type) and issubclass(obj, functional._Node)
             and obj is not functional._Node]
    assert set(kinds) == set(get_args(functional.Expr))
    for kind in kinds:
        assert "__slots__" in vars(kind), kind.__name__
        assert kind.__dictoffset__ == 0, kind.__name__
    assert not hasattr(functional.Const(1.0), "__dict__")


def test_every_node_kind_is_built_by_package_code():
    # a kind that only the tests construct is dead code
    called = {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
              for module in MODULES for n in ast.walk(ast.parse(module.read_text()))
              if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))}
    kinds = {kind.__name__ for kind in get_args(functional.Expr)}
    assert kinds <= called, sorted(kinds - called)


def test_pwpoly_exactly_on_the_pw_kinds_that_hold_a_variable():
    # _factor_forms asks a pw factor that holds the integration variable for
    # its pwpoly and takes any other pw factor, such as Const, as a scale
    for kind in get_args(functional.Expr):
        holds_var = kind.free_vars is not functional._Node.free_vars
        assert hasattr(kind, "pwpoly") == (kind.pw and holds_var), kind.__name__


def test_no_node_kind_is_subclassed():
    # the hot constructors and walks test a kind with type(x) is K, which
    # a subclass of K would fail where isinstance(x, K) holds
    for module in MODULES:
        if module.stem != "__main__":
            importlib.import_module(f"fbmseries.{module.stem}")
    for kind in get_args(functional.Expr):
        assert kind.__subclasses__() == [], kind.__name__


def test_functional_imports_nothing_from_quadrature():
    # every kernel integral of the symbolic layer is a closed form; an
    # adaptive-quadrature branch must not come back into it
    tree = ast.parse(pathlib.Path(functional.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any("quadrature" in n.split(".") for n in names), ast.unparse(node)


@pytest.mark.parametrize("module", [m for m in MODULES if m.name != "functional.py"],
                         ids=lambda p: p.name)
def test_only_functional_imports_gc(module):
    # the cyclic collector is paused and restored in one place,
    # functional.gc_paused, around the calls that build the acyclic DAG
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert "gc" not in [n.split(".")[0] for n in names], ast.unparse(node)
