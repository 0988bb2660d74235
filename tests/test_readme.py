"""The README "Library quick tour" runs as written and gives the results its comments state."""

import ast
import math
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> list[str]:
    text = README.read_text(encoding="utf-8")
    body = text.split("## Library quick tour", 1)[1]
    return body.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_quick_tour_runs_and_its_comments_hold():
    namespace: dict = {}
    checked = 0
    for line in _tour():
        code, _, comment = line.partition("  # ")
        exec(compile(code, README.name, "exec"), namespace)
        if not comment or not isinstance(ast.parse(code).body[0], ast.Expr):
            continue
        stated = comment.split(": ", 1)[0]
        try:
            want = eval(stated, namespace)
        except SyntaxError:
            continue  # prose, not a value
        assert eval(code, namespace) == want, line
        checked += 1
    assert checked >= 4

    # the stationary law of the bosonic ringing chain is proportional to x^D
    x, chain, law = namespace["x"], namespace["chain"], namespace["law"]
    weights = {s: math.prod([xj**e for xj, e in zip(x, s.weight())], start=Fraction(1)) for s in chain.states}
    total = sum(weights.values())
    assert {s: law[s] for s in chain.states} == {s: w / total for s, w in weights.items()}
