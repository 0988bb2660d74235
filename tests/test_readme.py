"""The README "Library quick tour" and "CLI" blocks run as written and give
the results their comments state, and its example law documents are what
the commands named beside them print."""

import ast
import json
import math
import shlex
from fractions import Fraction
from pathlib import Path

from mlqueues import cli

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


def _cli_block() -> list[str]:
    body = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    return body.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def test_cli_block_runs_and_its_stated_results_hold(tmp_path, monkeypatch, capsys):
    """Each ``echo ... > file`` writes its file; each ``mlq`` line but ``mlq
    verify`` (the suites have their own tests, and the block writes no
    witness) exits 0; and each stated result holds: ``-> letters [...]``, a
    bare count, and ``-> "estimate": true`` on the line after the MC run."""
    monkeypatch.chdir(tmp_path)
    out, ran, checked = "", 0, 0
    for line in _cli_block():
        words = shlex.split(line, comments=True)
        if words[:1] == ["echo"]:
            Path(words[3]).write_text(words[1], encoding="utf-8")
        elif words[:1] == ["mlq"] and words[1] != "verify":
            assert cli.main(words[1:]) == 0, line
            out = capsys.readouterr().out
            ran += 1
        stated = line.partition("# ")[2].strip()
        if stated.startswith("-> letters "):
            assert json.loads(out)["letters"] == json.loads(stated.removeprefix("-> letters ")), line
        elif stated.isdigit():
            assert out == stated + "\n", line
        elif stated.startswith('-> "estimate": true'):
            doc = json.loads(out)
            assert doc["estimate"] is True and all(type(e["prob"]) is float for e in doc["entries"]), line
        else:
            continue
        checked += 1
    assert (ran, checked) == (11, 3)


def test_law_documents_in_file_formats_are_what_the_commands_print(capsys):
    body = README.read_text(encoding="utf-8").split("## File formats", 1)[1]
    block = body.split("`documents.emit_distribution", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    docs = json.loads("[" + block.replace("}\n{", "},\n{") + "]")  # one document after another
    argvs = (
        ["stationary", "--model", "mlq-bosonic", "--lambda", "1", "--n", "2", "--x", "1/3,2"],
        ["stationary", "--model", "tasep", "--lambda", "1", "--n", "2", "--method", "mc", "--jumps", "1000"],
    )
    printed = []
    for argv in argvs:
        assert cli.main(argv) == 0
        printed.append(json.loads(capsys.readouterr().out))
    assert docs == printed
