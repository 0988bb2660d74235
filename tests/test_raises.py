"""Every exception the package raises has an ``mlq`` exit code: ``cli.main``
maps ``ValueError`` and ``IndexError`` to 2 and ``ShapeError`` and
``ChainError`` to 3; an ``AssertionError`` marks a failed internal self-check."""

import ast
from pathlib import Path

import pytest

import mlqueues
from mlqueues import cli

MODULES = sorted(Path(mlqueues.__file__).parent.glob("*.py"))
MAPPED = {"ValueError", "IndexError", "ShapeError", "ChainError"}


def _raised(tree: ast.AST) -> set[str]:
    """The names the ``raise`` statements of ``tree`` raise; a bare re-raise reads as ``raise``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add("raise" if exc is None else ast.unparse(exc))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_raise_has_an_exit_code(path):
    assert _raised(ast.parse(path.read_text(encoding="utf-8"))) - MAPPED - {"AssertionError"} == set()


def test_main_maps_every_raised_type():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            caught.update(map(ast.unparse, getattr(handler.type, "elts", [handler.type])))
    assert MAPPED <= caught
