"""Every exception the package raises has an ``mlq`` exit code: ``cli.main``
maps ``ValueError`` and ``IndexError`` to 2 and ``ShapeError`` and
``ChainError`` to 3; an ``AssertionError`` marks a failed internal self-check.
The raise sites that no other test reaches are each called once here."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import mlqueues
from mlqueues import ChainError, cli, markov, verify
from mlqueues.documents import parse_word
from mlqueues.mlq import FermionicMLQ
from mlqueues.projection import apply_row_particlewise, ctm_components
from mlqueues.words import BosonicWord, FermionicWord

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


# the package's lazy attribute lookup raises AttributeError, as PEP 562 asks; no ``mlq`` input reaches it
UNMAPPED = {"__init__": {"AttributeError"}}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_raise_has_an_exit_code(path):
    allowed = MAPPED | {"AssertionError"} | UNMAPPED.get(path.stem, set())
    assert _raised(ast.parse(path.read_text(encoding="utf-8"))) - allowed == set()


def test_main_maps_every_raised_type():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            caught.update(map(ast.unparse, getattr(handler.type, "elts", [handler.type])))
    assert MAPPED <= caught


# raise sites that no other test reaches, each with the exception and message it gives
UNREACHED = {
    "chain-endpoint-out-of-range": (
        lambda: markov.ChainSpec(("a", "b"), ((0, 2, Fraction(1)),)), ValueError, "transition endpoint out of range"),
    "negative-probability": (
        lambda: markov.RationalDistribution({"a": Fraction(3, 2), "b": Fraction(-1, 2)}), ValueError, "negative probability"),
    "conjugate-zero-part": (lambda: markov.conjugate((2, 0)), ValueError, "content partition must have positive parts"),
    "count-states-unknown-kind": (lambda: markov.count_states((1,), 3, "anyonic"), ValueError, "unknown kind 'anyonic'"),
    "simulate-empty-chain": (lambda: markov.simulate_ctmc(markov.ChainSpec((), ()), 0, 1), ChainError, "empty chain"),
    "particlewise-fresh-label-too-large": (
        lambda: apply_row_particlewise([1], 2, FermionicWord((1, 0, 0))), ValueError, "fresh label exceeds smallest word label"),
    "ctm-base-past-the-top-row": (
        lambda: ctm_components(FermionicMLQ(3, ((1, 2), (3,))), 3), IndexError, r"component base 3 outside 1\.\.2"),
    "empty-layer-stack-without-n": (lambda: FermionicWord.from_layers([]), ValueError, "ring size required"),
    "layers-of-unequal-length": (
        lambda: BosonicWord.from_layers([(1, 0, 0), (1, 0)]), ValueError, "layers of unequal length"),
    "fermionic-word-without-sites": (lambda: FermionicWord(()), ValueError, "word must have at least one site"),
    "bosonic-word-without-sites": (lambda: BosonicWord(()), ValueError, "word must have at least one site"),
    "parse-word-bad-kind": (lambda: parse_word({"kind": "fermionic", "n": 2}), ValueError, "bad word kind 'fermionic'"),
}


@pytest.mark.parametrize("site", sorted(UNREACHED))
def test_raise_site(site):
    call, exc, match = UNREACHED[site]
    with pytest.raises(exc, match=match):
        call()


def test_report_text_lists_five_witnesses_and_counts_the_rest():
    report = verify.SuiteReport("demo", {}, 7, [{"check": "demo", "i": i} for i in range(7)], 0.0)
    lines = report.to_text().splitlines()
    assert lines[0] == "[FAIL] suite=demo cases=7 time=0.00s"
    assert lines[1:6] == [f'    witness: {{"check": "demo", "i": {i}}}' for i in range(5)]
    assert lines[6:] == ["    ... and 2 more failures"]
