import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mlqueues
from mlqueues import ChainSpec, cli, documents, markov, verify
from mlqueues.cli import main

from conftest import bq, bw, fq, fw

EX_QUEUE_DOC = {"kind": "fermionic", "n": 6, "rows": [[1, 2, 4], [1, 3, 5, 6], [2], [1, 2, 3, 5]]}
SIX_QUEUE_DOC = {
    "kind": "bosonic",
    "n": 4,
    "rows": [[1, 1, 2, 4, 4], [1, 2, 2, 2], [1, 1, 1], [2, 3]],
}


# 10^-401 and 10^-308 as plain decimals: the rates 1/x are past, and at, the float range
TINY_401 = "0." + "0" * 400 + "1"
TINY_308 = "0." + "0" * 307 + "1"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_process(*argv, stdout=subprocess.PIPE):
    """``mlq argv`` in a fresh interpreter with default (block) buffering,
    its stderr captured; gives up after 30 s."""
    src = str(Path(mlqueues.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "mlqueues.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=30)


class TestProjectCommand:
    def test_fermionic_example(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX_QUEUE_DOC)
        code, out, _ = run(capsys, "project", "--in", path)
        assert code == 0
        assert json.loads(out)["letters"] == [3, 3, 0, 4, 2, 0]

    def test_bosonic_example_ctm_method(self, tmp_path, capsys):
        doc = {"kind": "bosonic", "n": 5, "rows": [[1, 3, 3, 5], [2, 2, 4], [1, 2]]}
        code, out, _ = run(capsys, "project", "--in", write_doc(tmp_path, doc))
        assert code == 0
        assert json.loads(out)["sites"] == [[3], [], [1, 3], [], [2]]

    def test_trace(self, tmp_path, capsys):
        code, out, _ = run(capsys, "project", "--in", write_doc(tmp_path, EX_QUEUE_DOC), "--trace")
        assert code == 0
        doc = json.loads(out)
        assert doc["word"]["letters"] == [3, 3, 0, 4, 2, 0]
        assert [t["letters"] for t in doc["trace"]] == [
            [3, 3, 0, 4, 2, 0],
            [3, 0, 4, 0, 3, 3],
            [3, 4, 3, 0, 3, 0],
            [4, 4, 4, 0, 4, 0],
        ]

    def test_single_row(self, tmp_path, capsys):
        doc = {"kind": "fermionic", "n": 3, "rows": [[2]]}
        code, out, _ = run(capsys, "project", "--in", write_doc(tmp_path, doc))
        assert code == 0
        assert json.loads(out)["letters"] == [0, 1, 0]

    def test_routes_that_disagree_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ctm_project", lambda q: fw("000000"))
        code, out, err = run(capsys, "project", "--in", write_doc(tmp_path, EX_QUEUE_DOC))
        assert (code, err) == (4, "projection routes disagree\n")
        doc = json.loads(out)
        assert doc["label"]["letters"] == [3, 3, 0, 4, 2, 0]
        assert doc["ctm"]["letters"] == [0] * 6


def _row_swap(q, i):
    """Rows i and i+1 of ``q`` exchanged as they stand: an involution that keeps the braid relation."""
    rows = list(q.rows)
    rows[i - 1], rows[i] = rows[i], rows[i - 1]
    return type(q)(q.n, tuple(rows))


class TestSigmaCommand:
    def test_example(self, tmp_path, capsys):
        doc = {"kind": "fermionic", "n": 6, "rows": [[1, 2, 4], [1, 3, 5, 6], [2, 3]]}
        code, out, _ = run(capsys, "sigma", "--in", write_doc(tmp_path, doc), "--i", "1")
        assert code == 0
        assert json.loads(out)["rows"] == [[1, 2, 4, 5], [1, 3, 6], [2, 3]]

    def test_round_trip_and_braid_flag(self, tmp_path, capsys):
        doc = {"kind": "bosonic", "n": 6, "rows": [[1, 2, 2, 4, 5], [2, 2], [1, 2, 4, 6]]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "sigma", "--in", path, "--i", "2", "--check-braid")
        assert code == 0
        image = json.loads(out)
        path2 = write_doc(tmp_path, image, "image.json")
        code, out2, _ = run(capsys, "sigma", "--in", path2, "--i", "2")
        assert json.loads(out2)["rows"] == doc["rows"]

    def test_bad_index(self, tmp_path, capsys):
        doc = {"kind": "fermionic", "n": 3, "rows": [[1]]}
        code, _, err = run(capsys, "sigma", "--in", write_doc(tmp_path, doc), "--i", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "fake_twist, message",
        [
            (lambda q, i: fq(6, (1,), (2,), (3,)), "twist is not an involution here"),
            (lambda q, i: q if i == 1 else _row_swap(q, i), "braid relation failed here"),
        ],
        ids=["involution", "braid"],
    )
    def test_failed_relation_exits_4(self, tmp_path, capsys, monkeypatch, fake_twist, message):
        doc = {"kind": "fermionic", "n": 6, "rows": [[1, 2, 4], [1, 3, 5, 6], [2, 3]]}
        monkeypatch.setattr(cli, "twist", fake_twist)
        code, out, err = run(capsys, "sigma", "--in", write_doc(tmp_path, doc), "--i", "1", "--check-braid")
        assert (code, out, err) == (4, "", message + "\n")


class TestStationaryCommand:
    def test_exact_equals_mlq_tasep(self, capsys):
        code, out_exact, _ = run(capsys, "stationary", "--model", "tasep", "--lambda", "2,1", "--n", "3")
        code2, out_mlq, _ = run(capsys, "stationary", "--model", "tasep", "--lambda", "2,1", "--n", "3", "--method", "mlq")
        assert code == code2 == 0
        exact = {json.dumps(e["state"], sort_keys=True): e["prob"] for e in json.loads(out_exact)["entries"]}
        fibre = {json.dumps(e["state"], sort_keys=True): e["prob"] for e in json.loads(out_mlq)["entries"]}
        assert exact == fibre

    def test_exact_equals_mlq_tazrp(self, capsys):
        args = ("stationary", "--model", "tazrp", "--lambda", "2,1", "--n", "3", "--x", "1,2,3")
        _, out_exact, _ = run(capsys, *args)
        _, out_mlq, _ = run(capsys, *args, "--method", "mlq")
        exact = {json.dumps(e["state"], sort_keys=True): e["prob"] for e in json.loads(out_exact)["entries"]}
        fibre = {json.dumps(e["state"], sort_keys=True): e["prob"] for e in json.loads(out_mlq)["entries"]}
        assert exact == fibre

    def test_single_state(self, capsys):
        code, out, _ = run(capsys, "stationary", "--model", "tasep", "--lambda", "1", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 1
        assert doc["entries"][0]["prob"] == "1/1"

    def test_mc_probs_sum_to_one(self, capsys):
        code, out, _ = run(
            capsys, "stationary", "--model", "tasep", "--lambda", "2,1", "--n", "3",
            "--method", "mc", "--seed", "3", "--jumps", "2000",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"] is True
        assert all(type(e["prob"]) is float for e in doc["entries"])
        assert sum(e["prob"] for e in doc["entries"]) == pytest.approx(1)
        code, out, _ = run(capsys, "stationary", "--model", "tasep", "--lambda", "2,1", "--n", "3")
        assert "estimate" not in json.loads(out)

    def test_mc_output_is_pinned(self, capsys):
        # 200 000 jumps on the 120-state chain: the estimate is reproducible to the last bit
        code, out, _ = run(
            capsys, "stationary", "--model", "tasep", "--lambda", "3,2,1", "--n", "6",
            "--method", "mc", "--seed", "4177", "--jumps", "200000",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "55a636e01de6b425a296148a22b29925f2a76276fa27340ced0c4974c9a56624"
        )

    @pytest.mark.parametrize("model, lam, n", [("tasep", "1", "1"), ("mlq-bosonic", "0", "2")])
    def test_mc_on_a_one_state_chain(self, capsys, model, lam, n):
        # a one-state chain has no transitions; mc used to call its state absorbing (exit 3)
        laws = {}
        for method in ("exact", "mc"):
            code, out, err = run(capsys, "stationary", "--model", model, "--lambda", lam, "--n", n, "--method", method)
            assert (code, err) == (0, "")
            laws[method] = [(e["state"], Fraction(e["prob"])) for e in json.loads(out)["entries"]]
        assert laws["mc"] == laws["exact"] == [(laws["exact"][0][0], 1)]

    @pytest.mark.parametrize(
        "model, lam, n, x",
        [
            ("tazrp", "2,1", "3", [TINY_401, "1", "1"]),  # 1/x_1 has no float: used to be an OverflowError traceback
            ("tazrp", "1,1", "2", [TINY_308, TINY_308]),  # 1e308 + 1e308 is inf: used to print 0.0038, 0.0, 0.9962
            ("mlq-bosonic", "2,1", "3", [TINY_401, "1", "1"]),
            ("mlq-bosonic", "1,1", "2", [TINY_308, TINY_308]),  # used to print 1.0, 0.0, 0.0, 0.0 for a uniform law
        ],
        ids=["tazrp-rate", "tazrp-sum", "mlq-bosonic-rate", "mlq-bosonic-sum"],
    )
    def test_mc_exit_rate_past_the_float_range_is_model_error(self, capsys, model, lam, n, x):
        argv = ("stationary", "--model", model, "--lambda", lam, "--n", n, "--x", ",".join(x))
        code, out, err = run(capsys, *argv, "--method", "mc", "--jumps", "1000")
        assert (code, out) == (3, "")
        assert err.startswith("model error: exit rate beyond the float range: ")
        code, out, _ = run(capsys, *argv, "--method", "mlq")  # the queue law needs no float
        assert code == 0 and out

    def test_mc_zero_jumps_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "stationary", "--model", "tasep", "--lambda", "2,1", "--n", "3", "--method", "mc", "--jumps", "0"
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_mlq_bosonic_weights(self, capsys):
        code, out, _ = run(
            capsys, "stationary", "--model", "mlq-bosonic", "--lambda", "2,1", "--n", "3", "--x", "1,2,3"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 18
        assert all("weight" in e for e in doc["entries"])

    def test_twisted_fermionic_mlq_is_model_error(self, capsys):
        code, _, err = run(capsys, "stationary", "--model", "mlq-fermionic", "--lambda", "1,2", "--n", "3")
        assert code == 3
        assert "model error" in err

    @pytest.mark.parametrize("method", ("exact", "mlq", "mc"))
    @pytest.mark.parametrize("model", ("tasep", "mlq-fermionic", "ktazrp"))
    def test_x_for_a_unit_rate_model_is_input_error(self, capsys, model, method):
        code, out, err = run(
            capsys, "stationary", "--model", model, "--lambda", "2,1", "--n", "3", "--method", method, "--x", "1,2,3"
        )
        assert code == 2
        assert out == ""
        assert "--x" in err

    def test_empty_x_is_input_error(self, capsys):
        # an empty --x is an empty rate, not an absent --x
        code, out, err = run(capsys, "stationary", "--model", "tazrp", "--lambda", "2,1", "--n", "3", "--x", "")
        assert (code, out, err) == (2, "", "input error: bad rational ''\n")

    def test_reducible_chain_is_model_error(self, capsys, monkeypatch):
        reducible = ChainSpec(("a", "b", "c"), ((0, 1, Fraction(1)), (1, 0, Fraction(1))))
        monkeypatch.setattr(markov, "_build_chain", lambda states, moves, x: reducible)
        code, out, err = run(capsys, "stationary", "--model", "tasep", "--lambda", "2,1", "--n", "3")
        assert code == 3
        assert out == ""
        assert "not irreducible" in err

    def test_uncertified_solve_is_model_error(self, capsys, monkeypatch):
        monkeypatch.setattr(markov, "_MODULI", (7,))  # 7 divides the rate 1/x_3
        code, out, err = run(capsys, "stationary", "--model", "tazrp", "--lambda", "2,1", "--n", "3", "--x", "1,2,7")
        assert code == 3
        assert out == ""
        assert "model error" in err

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


MODELS = ("tasep", "tazrp", "ktazrp", "mlq-fermionic", "mlq-bosonic")


@st.composite
def stationary_argv(draw):
    """``mlq stationary`` argv over every model and method: n <= 5, small
    parts, rates and jump counts, each malformed now and then.  Values go in
    ``--opt=value`` form so that a leading minus sign reaches the command."""
    def rarely() -> bool:
        return draw(st.integers(0, 5)) == 5

    model, method = draw(st.sampled_from(MODELS)), draw(st.sampled_from(("exact", "mlq", "mc")))
    n = draw(st.integers(-1, 0) if rarely() else st.integers(1, 5))
    parts = draw(st.lists(st.integers(-1, 0) if rarely() else st.integers(1, 3), min_size=1, max_size=4))
    assume(sum(map(abs, parts)) <= 4)  # keeps each chain to at most a few hundred states
    lam = draw(st.sampled_from(("", "a", "1,,2", "1.5", "2;1"))) if rarely() else ",".join(map(str, parts))
    argv = ["stationary", f"--model={model}", f"--lambda={lam}", f"--n={n}", f"--method={method}"]
    with_x = rarely() if model in ("tasep", "ktazrp", "mlq-fermionic") else not draw(st.booleans())
    if with_x:
        size = draw(st.integers(0, 6)) if rarely() else max(n, 0)
        rate = st.sampled_from(("0", "-1", "1/0", "x", "", "2.5") if rarely() else ("1", "2", "3", "1/2", "5/3"))
        argv.append("--x=" + ",".join(draw(st.lists(rate, min_size=size, max_size=size))))
    if method == "mc":
        argv += [f"--seed={draw(st.integers(0, 3))}", f"--jumps={draw(st.integers(-1, 0) if rarely() else st.integers(1, 30))}"]
    return argv


class TestStationaryFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stationary_argv())
    def test_every_argv_ends_in_a_documented_exit_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert sum(Fraction(str(e["prob"])) for e in json.loads(out.getvalue())["entries"]) == pytest.approx(1)


@st.composite
def law_witness(draw):
    """A ``law-mismatch`` / ``law-support`` witness: n <= 4, parts <= 3, with
    each field malformed now and then, rates bad or of the wrong length, and
    rates on a model that takes none."""
    def rarely() -> bool:
        return draw(st.integers(0, 5)) == 5

    model = draw(st.sampled_from(("asep", 3, None, ["tasep"]) if rarely() else MODELS))
    n = draw(st.sampled_from((True, "3", None, -1, 0)) if rarely() else st.integers(1, 4))
    part = st.integers(-1, 0) if rarely() else st.integers(1, 3)
    parts = draw(st.lists(part, min_size=0 if rarely() else 1, max_size=3))
    assume(sum(map(abs, parts)) <= 4)  # keeps each chain to a few hundred states
    lam = draw(st.sampled_from(("2,1", [1.5], [True], None))) if rarely() else parts
    x = None
    if (model in ("tazrp", "mlq-bosonic")) != rarely():  # rates where the model takes them, now and then not
        size = draw(st.integers(0, 5)) if rarely() else (n if type(n) is int and n > 0 else 0)
        rate = st.sampled_from(("0", "-1", "1/0", "x", 2.5, True) if rarely() else ("1", "2", "1/2", "5/3"))
        x = draw(st.lists(rate, min_size=size, max_size=size))
    witness = {"check": draw(st.sampled_from(("law-mismatch", "law-support"))), "model": model, "lambda": lam, "n": n, "x": x}
    if rarely():
        del witness[draw(st.sampled_from(sorted(witness)))]
    return witness


class TestWitnessFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(law_witness())
    def test_every_law_witness_ends_in_a_documented_exit_code(self, witness):
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO(json.dumps(witness))
        with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--witness", "-"])
        assert code in (0, 2, 3, 4), witness
        assert "Traceback" not in err.getvalue()


class TestStationaryInputs:
    @pytest.mark.parametrize("n", ("0", "-1"))
    @pytest.mark.parametrize("method", ("exact", "mlq"))
    @pytest.mark.parametrize("model", MODELS)
    def test_ring_size_below_one_is_input_error(self, capsys, model, method, n):
        code, out, err = run(capsys, "stationary", "--model", model, "--lambda", "2,1", "--n", n, "--method", method)
        assert code == 2
        assert out == ""
        assert "input error" in err

    @pytest.mark.parametrize(
        "model, lam, n, code",
        [
            ("tasep", "2,0", 3, 2),  # zero part
            ("tazrp", "2,0", 3, 2),
            ("ktazrp", "0", 3, 2),
            ("tasep", "", 3, 2),  # no parts
            ("tasep", "1,1,1,1", 3, 2),  # more particles than exclusion sites
            ("mlq-fermionic", "4", 3, 2),  # row longer than the ring
            ("mlq-bosonic", "-1", 3, 2),
            ("mlq-fermionic", "1,2", 3, 3),  # twisted fermionic shape
            ("mlq-fermionic", "1,2", 0, 3),
        ],
    )
    def test_fiber_route_keeps_the_exact_exit_code(self, capsys, model, lam, n, code):
        argv = ("stationary", "--model", model, "--lambda", lam, "--n", str(n))
        assert run(capsys, *argv, "--method", "exact")[0] == code
        assert run(capsys, *argv, "--method", "mlq")[0] == code

    @pytest.mark.parametrize("model", MODELS)
    def test_fiber_route_builds_no_chain(self, capsys, monkeypatch, model):
        # markov._build_chain is the one chain builder: model_chain calls it once, --method mlq never
        calls = []
        build = markov._build_chain
        monkeypatch.setattr(markov, "_build_chain", lambda *args: calls.append(args) or build(*args))
        chain = markov.model_chain(model, (2, 1), 3, (1, 2, 3) if markov.MODELS[model].rates else None)
        assert len(calls) == 1
        code, out, _ = run(capsys, "stationary", "--model", model, "--lambda", "2,1", "--n", "3", "--method", "mlq")
        assert (code, len(calls)) == (0, 1)
        entries = json.loads(out)["entries"]
        assert sum(Fraction(e["prob"]) for e in entries) == 1
        assert len(entries) == len(chain.states)
        assert run(capsys, "stationary", "--model", model, "--lambda", "2,1", "--n", "3")[0] == 0
        assert len(calls) == 2


class TestRingCommand:
    def test_six_example_site_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, SIX_QUEUE_DOC)
        code, out, _ = run(capsys, "ring", "--in", path, "--site", "1", "--x", "1,2,3,5")
        assert code == 0
        doc = json.loads(out)
        assert doc["queue"]["rows"] == [[1, 2, 2, 4, 4], [1, 2, 2, 3], [1, 1, 1], [2, 4]]
        assert doc["exit_site"] == 3
        assert doc["rate"] == "1/1"

    def test_round_trip(self, tmp_path, capsys):
        path = write_doc(tmp_path, SIX_QUEUE_DOC)
        code, out, _ = run(capsys, "ring", "--in", path, "--site", "4")
        forward = json.loads(out)
        path2 = write_doc(tmp_path, forward["queue"], "fwd.json")
        code, out2, _ = run(capsys, "ring", "--in", path2, "--site", str(forward["exit_site"]), "--reverse")
        assert json.loads(out2)["queue"]["rows"] == SIX_QUEUE_DOC["rows"]

    def test_empty_queue(self, tmp_path, capsys):
        doc = {"kind": "fermionic", "n": 3, "rows": [[], []]}
        code, out, _ = run(capsys, "ring", "--in", write_doc(tmp_path, doc), "--site", "2")
        assert code == 0
        assert json.loads(out)["queue"]["rows"] == [[], []]

    @pytest.mark.parametrize("reverse", ((), ("--reverse",)))
    @pytest.mark.parametrize("x", ("garbage", "1,2,3", ""))
    def test_x_on_a_fermionic_queue_is_input_error(self, tmp_path, capsys, x, reverse):
        # fermionic ringing has unit rates; --x used to be ignored, even --x garbage
        path = write_doc(tmp_path, EX_QUEUE_DOC)
        code, out, err = run(capsys, "ring", "--in", path, "--site", "1", "--x", x, *reverse)
        assert (code, out) == (2, "")
        assert "--x" in err

    @pytest.mark.parametrize("reverse", ((), ("--reverse",)))
    def test_empty_x_on_a_bosonic_queue_is_input_error(self, tmp_path, capsys, reverse):
        # an empty --x is an empty rate, not an absent --x
        path = write_doc(tmp_path, SIX_QUEUE_DOC)
        code, out, err = run(capsys, "ring", "--in", path, "--site", "1", "--x", "", *reverse)
        assert (code, out, err) == (2, "", "input error: bad rational ''\n")


@st.composite
def ring_argv(draw):
    """``mlq ring`` argv and queue document over both kinds, n <= 5, k <= 4:
    sites inside and outside the ring, with and without ``--reverse``, and
    ``--x`` well-formed, of the wrong length, non-positive or unparsable, with
    a malformed queue document now and then."""
    def rarely() -> bool:
        return draw(st.integers(0, 5)) == 5

    kind, n, k = draw(st.sampled_from(("fermionic", "bosonic"))), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    if kind == "fermionic":
        row = st.lists(st.integers(1, n), unique=True, max_size=n).map(sorted)
    else:
        row = st.lists(st.integers(1, n), max_size=3).map(sorted)
    doc = {"kind": kind, "n": n, "rows": draw(st.lists(row, min_size=k, max_size=k))}
    if rarely():
        doc = draw(st.sampled_from((
            "{not json", "[]", json.dumps({**doc, "kind": "quark"}), json.dumps({**doc, "n": 0}),
            json.dumps({**doc, "rows": []}), json.dumps({**doc, "rows": [[n + 1]]}), json.dumps({**doc, "n": True}),
        )))
    else:
        doc = json.dumps(doc)
    site = draw(st.sampled_from((-1, 0, n + 1)) if rarely() else st.integers(1, n))
    argv = ["ring", "--in", "-", f"--site={site}"] + (["--reverse"] if draw(st.booleans()) else [])
    if draw(st.booleans()):
        size = draw(st.integers(0, 6)) if rarely() else n
        rate = st.sampled_from(("0", "-1", "1/0", "x", "", "2.5") if rarely() else ("1", "2", "3", "1/2", "5/3"))
        argv.append("--x=" + ",".join(draw(st.lists(rate, min_size=size, max_size=size))))
    return argv, doc


class TestRingFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ring_argv())
    def test_every_argv_ends_in_a_documented_exit_code(self, case):
        argv, doc = case
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(doc)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), case
        assert "Traceback" not in err.getvalue()
        if '"fermionic"' in doc and any(a.startswith("--x=") for a in argv):
            assert code == 2, case
        if code == 0:
            assert json.loads(out.getvalue())["queue"]["kind"] == json.loads(doc)["kind"]


class TestEnumerateCommand:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "2,3,1", "--n", "4", "--kind", "fermionic", "--count-only")
        assert code == 0
        assert out.strip() == "96"

    def test_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "2,1", "--n", "3", "--kind", "bosonic")
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 18
        assert all(l["kind"] == "bosonic" for l in lines)

    def test_stream_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "queues.jsonl"
        code, _, _ = run(capsys, "enumerate", "--alpha", "1", "--n", "1", "--kind", "fermionic", "--out", str(out_path))
        assert code == 0
        assert len(out_path.read_text().strip().splitlines()) == 1

    def test_bad_shape(self, capsys):
        code, _, err = run(capsys, "enumerate", "--alpha", "5", "--n", "4", "--kind", "fermionic", "--count-only")
        assert code == 2

    def test_out_into_a_missing_directory_is_input_error(self, tmp_path, capsys):
        # the open used to raise FileNotFoundError out of main
        out_path = tmp_path / "missing" / "queues.jsonl"
        code, out, err = run(capsys, "enumerate", "--alpha", "2", "--n", "3", "--kind", "bosonic", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("input error: cannot write to ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_input_error(self, capsys):
        # the open succeeds; the buffered write used to raise OSError out of main at close
        code, out, err = run(capsys, "enumerate", "--alpha", "2", "--n", "3", "--kind", "bosonic", "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert err.startswith("input error: cannot write to /dev/full")


@st.composite
def enumerate_argv(draw):
    """``mlq enumerate`` argv over both kinds, n in -1..4 and at most a few
    hundred queues: alpha well-formed, empty, negative or non-numeric, with and
    without ``--count-only``, and ``--out`` to stdout, a writable file or a
    file in a missing directory (the string ``{dir}`` stands for a fresh one)."""
    parts = draw(st.lists(st.integers(0, 3), max_size=4))
    assume(sum(parts) <= 4)
    alpha = draw(st.sampled_from(("", "-1", "2,-1", "a", "1.5", "2;1", "1,,2")) if draw(st.integers(0, 3)) == 3 else
                 st.just(",".join(map(str, parts))))
    argv = ["enumerate", f"--alpha={alpha}", f"--n={draw(st.integers(-1, 4))}",
            f"--kind={draw(st.sampled_from(('fermionic', 'bosonic')))}"]
    if draw(st.booleans()):
        argv.append("--count-only")
    out = draw(st.sampled_from((None, "{dir}/queues.jsonl", "{dir}/missing/queues.jsonl")))
    return argv + ([] if out is None else [f"--out={out}"])


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def render_document(draw):
    """A document for ``mlq render``: arbitrary JSON now and then, else a queue
    or word on n <= 5 sites with, now and then, one field replaced by arbitrary
    JSON."""
    def rarely() -> bool:
        return draw(st.integers(0, 3)) == 3

    if rarely():
        return draw(JSON)
    kind, n = draw(st.sampled_from(("fermionic", "bosonic", "fermionic_word", "bosonic_word"))), draw(st.integers(1, 5))
    site = st.integers(1, n)
    body = {
        "fermionic": ("rows", st.lists(st.lists(site, unique=True).map(sorted), min_size=1, max_size=4)),
        "bosonic": ("rows", st.lists(st.lists(site, max_size=4).map(sorted), min_size=1, max_size=4)),
        "fermionic_word": ("letters", st.lists(st.integers(0, 4), min_size=n, max_size=n)),
        "bosonic_word": ("sites", st.lists(st.lists(st.integers(1, 4), max_size=3).map(sorted), min_size=n, max_size=n)),
    }
    name, value = body[kind]
    doc = {"kind": kind, "n": n, name: draw(value)}
    if rarely():
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON)
    return doc


def _exit_code(argv, stdin=""):
    """``main(argv)`` on ``stdin``: its exit code, and whether stderr holds a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, "Traceback" in err.getvalue()


class TestEnumerateAndRenderFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(enumerate_argv())
    def test_every_enumerate_argv_ends_in_a_documented_exit_code(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [a.replace("{dir}", tmp) for a in argv]
            code, traceback = _exit_code(argv)
            assert code in (0, 2, 3, 4) and not traceback, argv
            if code == 0 and "--count-only" not in argv and any(a.startswith("--out=") for a in argv):
                assert os.path.exists(argv[-1].removeprefix("--out="))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(enumerate_argv())
    def test_count_only_counts_the_streamed_queues(self, argv):
        # the same argv, streamed to stdout and with --count-only: one exit code, one count
        argv = [a for a in argv if a != "--count-only" and not a.startswith("--out=")]
        runs = []
        for extra in ([], ["--count-only"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                runs.append((main(argv + extra), out.getvalue()))
        (code, streamed), (count_code, count) = runs
        assert code == count_code, argv
        if code == 0:
            assert int(count) == len(streamed.splitlines()), argv

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(render_document())
    def test_every_render_document_ends_in_a_documented_exit_code(self, doc):
        code, traceback = _exit_code(["render", "--in", "-"], json.dumps(doc))
        assert code in (0, 2, 3, 4) and not traceback, doc


@st.composite
def queue_document(draw):
    """A queue document of either kind on n <= 5 sites and k <= 4 rows, with
    now and then sites in -1..n+1 or one field replaced by arbitrary JSON."""
    def rarely() -> bool:
        return draw(st.integers(0, 3)) == 3

    kind, n, k = draw(st.sampled_from(("fermionic", "bosonic"))), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    site = st.integers(-1, n + 1) if rarely() else st.integers(1, n)
    row = st.lists(site, unique=kind == "fermionic", max_size=4).map(sorted)
    doc = {"kind": kind, "n": n, "rows": draw(st.lists(row, min_size=k, max_size=k))}
    if rarely():
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON)
    return json.dumps(doc)


@st.composite
def bounds_argv(draw):
    """``mlq verify`` argv on the r-invariance or projection suite with every
    bound in 0..2, now and then with an unknown key or a malformed entry."""
    entries = [f"{key}={draw(st.integers(0, 2))}" for key in sorted(verify.DEFAULT_BOUNDS)]
    if draw(st.integers(0, 3)) == 3:
        entries.append(draw(st.sampled_from(("max_turbo=1", "random_cases", "random_cases=x", "=2", ""))))
    suite = draw(st.sampled_from(("r-invariance", "projection")))
    return ["verify", f"--suite={suite}", f"--seed={draw(st.integers(0, 3))}", "--bounds=" + ",".join(entries)]


@st.composite
def verify_argv(draw):
    """``mlq verify`` argv: ``--suite`` one of the cheap suites or arbitrary
    text, ``--seed`` small, negative or above 2^64, and every bound at most 1
    (``random_max_n`` at its least legal value, 2)."""
    cheap = ("r-invariance", "projection")
    suite = draw(st.sampled_from(cheap) | st.text(max_size=12).filter(lambda s: s not in verify.SUITES and s != "all"))
    seed = draw(st.integers(0, 3) | st.integers(-(2**70), -1) | st.integers(2**64, 2**70))
    bounds = ",".join(
        f"{key}={2 if key == 'random_max_n' else draw(st.integers(0, 1))}" for key in sorted(verify.DEFAULT_BOUNDS)
    )
    return ["verify", f"--suite={suite}", f"--seed={seed}", f"--bounds={bounds}"]


class TestProjectSigmaVerifyFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(queue_document(), st.booleans())
    def test_every_project_run_ends_in_a_documented_exit_code(self, doc, trace):
        code, traceback = _exit_code(["project", "--in", "-"] + (["--trace"] if trace else []), doc)
        assert code in (0, 2, 3, 4) and not traceback, doc

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(queue_document(), st.integers(-1, 5), st.booleans())
    def test_every_sigma_run_ends_in_a_documented_exit_code(self, doc, i, braid):
        code, traceback = _exit_code(["sigma", "--in", "-", f"--i={i}"] + (["--check-braid"] if braid else []), doc)
        assert code in (0, 2, 3, 4) and not traceback, (doc, i)

    @settings(max_examples=90, deadline=None, derandomize=True)
    @given(bounds_argv())
    def test_every_bounds_argv_ends_in_a_documented_exit_code(self, argv):
        code, traceback = _exit_code(argv)
        assert code in (0, 2, 3, 4) and not traceback, argv

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(verify_argv())
    def test_every_verify_argv_ends_in_a_documented_exit_code(self, argv):
        code, traceback = _exit_code(argv)
        assert code in (0, 2, 3, 4) and not traceback, argv


class TestVerifyCommand:
    def test_small_suite(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "r-invariance", "--seed", "1",
            "--bounds", "fermionic_max_n=3,fermionic_max_k=2,bosonic_max_n=2,random_cases=20",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert "PASS" in err

    @pytest.mark.parametrize("suite", ["stationary-tasep", "stationary-tazrp", "ringing"])
    def test_unknown_bound_key_is_input_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--bounds", "max_turbo=3")
        assert code == 2
        assert out == ""
        assert "max_turbo" in err

    def test_negative_bounds_are_input_error(self, capsys):
        bounds = "random_cases=-5,fermionic_max_k=-1,bosonic_max_k=-1"
        code, out, err = run(capsys, "verify", "--suite", "r-invariance", "--bounds", bounds)
        assert code == 2
        assert out == ""
        assert "fermionic_max_k" in err

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus")
        assert code == 2

    def test_witness_replay(self, tmp_path, capsys):
        from mlqueues.verify import find_ringing_counterexample

        witness = find_ringing_counterexample(3, 3)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(witness))
        code, _, err = run(capsys, "verify", "--witness", str(path))
        assert code == 0
        assert "reproduces" in err


    @pytest.mark.parametrize(
        "witness",
        [
            [],
            {"check": "twist-invariance"},
            {"check": "nonsense"},
            {"check": ["twist-invariance"]},
            {"check": "twist-invariance", "queue": [[1], [2]]},
            {"check": "ring-inverse", "queue": {"kind": "fermionic", "n": 3, "rows": [[1]]}, "site": "1"},
            {"check": "particlewise", "queue": {"kind": "fermionic", "n": 3, "rows": [[1]]}, "all_orders": 1,
             "order_seed": 0},
            {"check": "law-mismatch", "model": "mlq-bosonic", "lambda": [2, 1], "n": 3, "x": ["0", "1", "1"]},
            {"check": "law-mismatch", "model": "tasep", "lambda": [2, 1], "n": 3, "x": ["1", "1", "1"]},
            {"check": "chain-projection", "queue": {"kind": "fermionic", "n": 3, "rows": [[1]]}, "x": ["1", "1", "1"]},
            {"check": "law-mismatch", "model": "asep", "lambda": [2, 1], "n": 3, "x": None},
            {"check": "law-mismatch", "model": "tazrp", "lambda": "2,1", "n": 3, "x": None},
            {"check": "law-support", "model": "tazrp", "lambda": [2, 1], "n": 3, "x": ["1", "2"]},
            {"check": "law-support", "model": ["tazrp"], "lambda": [2, 1], "n": 3, "x": None},
            {"check": "law-mismatch", "model": "tazrp", "lambda": [2, 1], "n": 3},
        ],
    )
    def test_malformed_witness_is_input_error(self, tmp_path, capsys, witness):
        code, out, err = run(capsys, "verify", "--witness", write_doc(tmp_path, witness))
        assert code == 2
        assert out == ""
        assert "input error" in err


class TestExponentNotation:
    # Fraction("1e999999999") builds 10**999999999: the run had not ended after 20 s;
    # 1e5000 failed only when its 5001 digits were printed
    @pytest.mark.parametrize("x", ["1e999999999,1,1", "1e5000,1,1"])
    def test_ring_x_in_exponent_notation_is_input_error(self, tmp_path, x):
        path = write_doc(tmp_path, {"kind": "bosonic", "n": 3, "rows": [[1, 2], [3]]})
        done = run_process("ring", "--in", path, "--site", "1", "--x", x)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"input error: bad rational {x.split(',')[0]!r}\n"

    def test_law_witness_x_in_exponent_notation_is_input_error(self, tmp_path, capsys):
        witness = {"check": "law-mismatch", "model": "tazrp", "lambda": [2, 1], "n": 3, "x": ["1e5000", "1", "1"]}
        code, out, err = run(capsys, "verify", "--witness", write_doc(tmp_path, witness))
        assert (code, out) == (2, "")
        assert err == "input error: bad rational '1e5000'\n"


class TestFailedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ("stationary", "--model", "tasep", "--lambda", "3,2,1", "--n", "6"),
            ("stationary", "--model", "tasep", "--lambda", "1", "--n", "1"),
            ("enumerate", "--alpha", "2,3,1", "--n", "4", "--kind", "fermionic"),
            ("enumerate", "--alpha", "2,3,1", "--n", "4", "--kind", "fermionic", "--count-only"),
        ],
        ids=["stationary", "stationary-short", "enumerate", "enumerate-count"],
    )
    def test_closed_stdout_is_input_error(self, argv):
        # a long stationary law used to end in a BrokenPipeError traceback, exit 1; output
        # short enough to sit in the buffer failed in the flush at exit, exit 120
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command writes
        try:
            done = run_process(*argv, stdout=write)
        finally:
            os.close(write)
        assert done.returncode == 2
        assert done.stderr.startswith("input error: cannot write to stdout: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_input_error(self):
        with open("/dev/full", "w") as full:
            done = run_process("stationary", "--model", "tasep", "--lambda", "2,1", "--n", "3", stdout=full)
        assert done.returncode == 2
        assert done.stderr == "input error: cannot write to stdout: [Errno 28] No space left on device\n"


class TestRenderCommand:
    def test_fermionic_queue(self, tmp_path, capsys):
        doc = {"kind": "fermionic", "n": 4, "rows": [[2], [2, 3, 4], [1, 4]]}
        code, out, _ = run(capsys, "render", "--in", write_doc(tmp_path, doc))
        assert code == 0
        assert out.splitlines() == ["* . . *", ". * * *", ". * . ."]

    def test_bosonic_queue_digits(self, tmp_path, capsys):
        doc = {"kind": "bosonic", "n": 4, "rows": [[2], [2, 3, 3], [1, 1]]}
        code, out, _ = run(capsys, "render", "--in", write_doc(tmp_path, doc))
        assert out.splitlines() == ["2 . . .", ". 1 2 .", ". 1 . ."]

    def test_word_column_diagram(self, tmp_path, capsys):
        doc = {"kind": "fermionic_word", "n": 7, "letters": [3, 2, 5, 2, 0, 3, 5]}
        code, out, _ = run(capsys, "render", "--in", write_doc(tmp_path, doc))
        assert out.splitlines() == [
            ". . * . . . *",
            ". . * . . . *",
            "* . * . . * *",
            "* * * * . * *",
            "* * * * . * *",
        ]

    def test_empty_queue_blank_grid(self, tmp_path, capsys):
        doc = {"kind": "fermionic", "n": 3, "rows": [[], []]}
        code, out, _ = run(capsys, "render", "--in", write_doc(tmp_path, doc))
        assert out.splitlines() == [". . .", ". . ."]

    CELLS = documents.MAX_DIAGRAM_CELLS

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "fermionic_word", "n": 1, "letters": [300_000]},  # used to print 300 000 lines
            {"kind": "fermionic_word", "n": CELLS + 1, "letters": [0] * (CELLS + 1)},
            {"kind": "bosonic", "n": CELLS // 2 + 1, "rows": [[1], [2]]},
        ],
        ids=["tall-word", "wide-word", "wide-queue"],
    )
    def test_diagram_over_the_cell_limit_is_input_error(self, tmp_path, capsys, doc):
        code, out, err = run(capsys, "render", "--in", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert f"exceeds {self.CELLS} cells" in err

    def test_diagram_at_the_cell_limit_renders(self, tmp_path, capsys):
        doc = {"kind": "bosonic", "n": self.CELLS // 2, "rows": [[1], [2]]}
        code, out, _ = run(capsys, "render", "--in", write_doc(tmp_path, doc))
        assert code == 0
        assert len(out.split()) == self.CELLS


class TestExitCodesAndSchema:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "project", "--in", str(path))
        assert code == 2
        assert "input error" in err

    def test_bad_kind(self, tmp_path, capsys):
        code, _, _ = run(capsys, "render", "--in", write_doc(tmp_path, {"kind": "quark", "n": 2, "rows": [[1]]}))
        assert code == 2

    def test_site_out_of_range(self, tmp_path, capsys):
        doc = {"kind": "fermionic", "n": 2, "rows": [[3]]}
        code, _, _ = run(capsys, "project", "--in", write_doc(tmp_path, doc))
        assert code == 2

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("project", {"kind": "fermionic", "n": True, "rows": [[1]]}),
            ("project", {"kind": "fermionic", "n": 2, "rows": [[True]]}),
            ("project", {"kind": "bosonic", "n": 2, "rows": [[1, True]]}),
            ("render", {"kind": "fermionic_word", "n": True, "letters": [1]}),
            ("render", {"kind": "fermionic_word", "n": 2, "letters": [True, 0]}),
            ("render", {"kind": "bosonic_word", "n": 2, "sites": [[True], []]}),
        ],
        ids=["n", "fermionic-site", "bosonic-site", "word-n", "letter", "label"],
    )
    def test_json_booleans_are_not_integers(self, tmp_path, capsys, command, doc):
        code, out, err = run(capsys, command, "--in", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert "input error" in err

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("project", {"kind": "bosonic", "n": 2, "rows": [[1.0]]}),
            ("project", {"kind": "bosonic", "n": 2, "rows": [[1, 3]]}),
            ("render", {"kind": "fermionic_word", "n": 2, "letters": [-1, 0]}),
            ("render", {"kind": "bosonic_word", "n": 2, "sites": [[0], []]}),
            ("render", {"kind": "bosonic_word", "n": 2, "sites": [[1], 2]}),
        ],
        ids=["float-site", "site-out-of-range", "negative-letter", "zero-label", "non-list-site"],
    )
    def test_entries_the_constructors_reject_are_input_errors(self, tmp_path, capsys, command, doc):
        code, out, err = run(capsys, command, "--in", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err.startswith("input error: ")

    @pytest.mark.parametrize("argv", [("project",), ("ring", "--site", "1")], ids=["project", "ring"])
    def test_ring_size_too_large_for_memory_is_input_error(self, tmp_path, capsys, argv):
        # n = 2**62: the per-site count list is refused at its size check, before anything is allocated
        path = write_doc(tmp_path, {"kind": "fermionic", "n": 2**62, "rows": [[1]]})
        code, out, err = run(capsys, argv[0], "--in", path, *argv[1:])
        assert (code, out, err) == (2, "", "input error: too large to hold in memory\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--alpha", "2,,1", "--n", "3", "--kind", "fermionic", "--count-only"),
            ("enumerate", "--alpha", "2,1,", "--n", "3", "--kind", "bosonic", "--count-only"),
            ("enumerate", "--alpha", "2, ,1", "--n", "3", "--kind", "fermionic", "--count-only"),
            ("stationary", "--model", "tasep", "--lambda", "2,,1", "--n", "3"),
        ],
        ids=["empty-entry", "trailing-comma", "blank-entry", "lambda"],
    )
    def test_empty_integer_list_entry_is_input_error(self, capsys, argv):
        # empty entries used to be skipped, so 2,,1 ran as 2,1
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "bad integer list" in err


class TestDocuments:
    def test_queue_round_trip(self):
        q = bq(4, (1, 1, 3), (2,))
        assert documents.parse_queue(documents.emit_queue(q)) == q
        f = fq(5, (1, 4), (2, 3, 5))
        assert documents.parse_queue(documents.emit_queue(f)) == f

    def test_word_round_trip(self):
        w = fw("30210")
        assert documents.parse_word(documents.emit_word(w)) == w
        b = bw("13,-,2")
        assert documents.parse_word(documents.emit_word(b)) == b

    def test_fraction_format(self):
        assert documents.format_fraction(Fraction(3)) == "3/1"
        assert documents.format_fraction(Fraction(2, 4)) == "1/2"
        assert documents.parse_fraction("7") == 7
        assert documents.parse_fraction("2/6") == Fraction(1, 3)
        assert documents.parse_fraction("0.25") == Fraction(1, 4)
        with pytest.raises(Exception):
            documents.parse_fraction("1/0")
        for text in ("1e3", "2E-1", "1.5e2", 1e300):
            with pytest.raises(ValueError, match="bad rational"):
                documents.parse_fraction(text)

    def test_distribution_of_words_sorts_by_printed_form(self):
        law = {fw("210"): Fraction(1, 3), fw("021"): Fraction(1, 6), fw("102"): Fraction(1, 2)}
        doc = documents.emit_distribution("tasep", (2, 1), 3, None, law)
        assert doc == {
            "model": "tasep", "lambda": [2, 1], "n": 3, "x": None,
            "entries": [
                {"state": documents.emit_word(fw("021")), "prob": "1/6"},
                {"state": documents.emit_word(fw("102")), "prob": "1/2"},
                {"state": documents.emit_word(fw("210")), "prob": "1/3"},
            ],
        }

    def test_distribution_of_queues_keeps_the_law_order_and_weights(self):
        law = {bq(2, (2,), (2,)): Fraction(3, 4), bq(2, (1,), (1,)): Fraction(1, 4)}
        doc = documents.emit_distribution("mlq-bosonic", [1, 1], 2, (Fraction(1, 3), Fraction(2)), law)
        assert doc["x"] == ["1/3", "2/1"]
        assert doc["entries"] == [
            {"state": documents.emit_queue(bq(2, (2,), (2,))), "prob": "3/4", "weight": [0, 2]},
            {"state": documents.emit_queue(bq(2, (1,), (1,))), "prob": "1/4", "weight": [2, 0]},
        ]
        assert "estimate" not in doc

    def test_distribution_of_frequencies_is_an_estimate_of_their_exact_shares(self):
        # 0.1 + 0.2 is not 0.3 in floats; each entry prints the float nearest its exact share
        law = {fw("01"): 0.1, fw("10"): 0.2}
        doc = documents.emit_distribution("tasep", (1,), 2, None, law)
        assert doc["estimate"] is True
        assert [e["prob"] for e in doc["entries"]] == [
            float(Fraction(0.1) / (Fraction(0.1) + Fraction(0.2))), float(Fraction(0.2) / (Fraction(0.1) + Fraction(0.2)))
        ]
        assert list(doc) == ["model", "lambda", "n", "x", "entries", "estimate"]
