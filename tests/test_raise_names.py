"""Every `raise Name(...)` in the package names something the module binds
(an import, a definition or an assignment) or a builtin, so no error path
dies with a NameError instead of the typed error it meant to raise."""

import ast
import builtins
import pathlib

import pytest

import rieszcap

MODULES = sorted(pathlib.Path(rieszcap.__file__).parent.glob("*.py"))


def _bound_names(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_raised_names_are_bound(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _bound_names(tree)
    unbound = [
        f"{path.name}:{node.lineno} {node.exc.func.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id not in bound
        and not hasattr(builtins, node.exc.func.id)
    ]
    assert unbound == []
