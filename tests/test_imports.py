"""Every module of the package uses each name it imports (``__init__`` re-exports)
and takes it from the module that defines it, and every private module-level
name is read somewhere in the package.  The
package exports the names below, and each entry point loads only the modules
it runs."""

import ast
import importlib
import os
import subprocess
import sys
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


def _definitions(tree: ast.Module) -> set[str]:
    """The names a module defines at its top level: functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _private_definitions(tree: ast.Module) -> set[str]:
    return {n for n in _definitions(tree) if n.startswith("_") and not n.startswith("__")}


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


def test_every_name_is_imported_from_its_defining_module():
    # a name taken from a module that only imports it ties the importer to that module's imports
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in Path(mlqueues.__file__).parent.glob("*.py")}
    defined = {stem: _definitions(tree) for stem, tree in trees.items()}
    relayed = {
        (stem, node.module, a.name)
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for a in node.names
        if a.name not in defined[node.module]
    }
    assert relayed == set()


# the package's exports, by the module that defines each
EXPORTS = {
    "errors": ("ChainError", "ShapeError"),
    "mlq": ("BosonicMLQ", "FermionicMLQ", "apply_twists", "count_queues", "enumerate_queues",
            "straighten", "twist"),
    "markov": ("MODELS", "ChainSpec", "RationalDistribution", "certify_stationary", "conjugate", "count_states",
               "enumerate_states", "ktazrp_transitions", "mlq_chain", "model_chain", "ring", "simulate_ctmc",
               "stationary_exact", "tasep_transitions", "tazrp_transitions"),
    "pairing": ("PairingResult", "pair_strictly_left", "pair_weakly_right"),
    "projection": ("apply_row_bosonic", "apply_row_fermionic", "apply_row_particlewise", "check_r_expansion",
                   "ctm_components", "ctm_project", "ferrari_martin", "label_trace", "project"),
    "words": ("BosonicWord", "FermionicWord", "indicator_multiset", "multiset_indicator"),
}


def test_all_lists_the_exports():
    assert sorted(mlqueues.__all__) == sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_is_the_defining_modules_object(module, name):
    assert getattr(mlqueues, name) is vars(importlib.import_module(f"mlqueues.{module}"))[name]
    assert name in dir(mlqueues)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mlqueues.no_such_name
    assert not hasattr(mlqueues, "no_such_name")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from mlqueues import *", namespace)
    assert set(mlqueues.__all__) <= namespace.keys()


def _loaded_after(*statements: str) -> list[set[str]]:
    """Run ``statements`` in a fresh interpreter; the ``mlqueues.*`` modules it holds after each."""
    probe = "print('loaded:', *(m for m in sys.modules if m.startswith('mlqueues.')))"
    script = "\n".join(["import sys", *(line for statement in statements for line in (statement, probe))])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(mlqueues.__file__).parents[1]), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return [set(line.split()[1:]) for line in done.stdout.splitlines() if line.startswith("loaded:")]


def test_package_import_loads_no_submodule():
    assert _loaded_after("import mlqueues") == [set()]


def test_project_leaves_markov_unloaded():
    [loaded] = _loaded_after("from mlqueues import project")
    assert "mlqueues.projection" in loaded and "mlqueues.markov" not in loaded


def test_cli_loads_verify_only_for_mlq_verify():
    with_cli, after_verify = _loaded_after(
        "from mlqueues import cli", "assert cli.main(['verify', '--suite', 'stationary-tazrp']) == 0")
    assert "mlqueues.verify" not in with_cli
    assert "mlqueues.verify" in after_verify
