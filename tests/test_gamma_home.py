"""Gamma is evaluated in one module: math.gamma and math.lgamma appear only
in special_functions.py, next to the exact quotients at integer and
half-integer arguments that every other module calls."""

import ast
import pathlib

import pytest

import rieszcap

_GAMMA = {"gamma", "lgamma"}
OTHER_MODULES = sorted(
    path
    for path in pathlib.Path(rieszcap.__file__).parent.glob("*.py")
    if path.stem != "special_functions"
)


def _gamma_lines(tree: ast.AST) -> list:
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _GAMMA
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            lines += [node.lineno for alias in node.names if alias.name in _GAMMA]
    return lines


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda path: path.stem)
def test_gamma_only_in_special_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [f"{path.name}:{line}" for line in _gamma_lines(tree)] == []
