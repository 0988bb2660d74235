"""Every module of the package uses each name it imports (``__init__`` re-exports),
and every private module-level name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

import mlqueues

MODULES = sorted(p for p in Path(mlqueues.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "returns" if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):  # quoted, e.g. -> "FermionicWord"
            names.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _imported(tree) - _used(tree) == set()


def _private_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded variables, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_private_module_name_is_read_in_the_package():
    # a private helper no caller reads any more is dead code
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in Path(mlqueues.__file__).parent.glob("*.py")}
    read = set().union(*map(_read, trees.values()))
    unread = {(stem, name) for stem, tree in trees.items() for name in _private_definitions(tree) if name not in read}
    assert unread == set()
