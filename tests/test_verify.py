import inspect
import json
import os
from fractions import Fraction

import pytest

from mlqueues import markov, verify
from mlqueues.cli import main
from mlqueues.markov import MODELS, count_states
from mlqueues.mlq import BosonicMLQ, FermionicMLQ, enumerate_queues
from mlqueues.projection import canonical_order
from mlqueues.words import BosonicWord, FermionicWord
from mlqueues.verify import (
    SuiteReport,
    find_ringing_counterexample,
    replay_witness,
    suite_all,
    suite_phi_equals_ctm,
    suite_r_invariance,
    suite_ringing,
)

SMALL = {
    "fermionic_max_n": 3,
    "fermionic_max_k": 2,
    "fermionic_max_part": 2,
    "bosonic_max_n": 2,
    "bosonic_max_k": 2,
    "bosonic_max_part": 2,
    "random_cases": 40,
    "random_max_n": 5,
    "random_max_k": 3,
    "random_max_part": 3,
}


class TestSuites:
    def test_r_invariance_small(self):
        report = suite_r_invariance(SMALL, seed=1)
        assert report.passed
        assert report.cases > 0
        assert report.wall_time >= 0

    def test_projection_small(self):
        report = suite_phi_equals_ctm(SMALL, seed=1)
        assert report.passed

    def test_stationary_suites(self):
        assert verify.SUITES["stationary-tasep"](None, 0).passed
        assert verify.SUITES["stationary-tazrp"](None, 0).passed

    def test_ringing_small(self):
        report = suite_ringing(SMALL, seed=2)
        assert report.passed
        assert report.parameters["counterexample"] is not None

    def test_stationary_grids_enumerate_each_chain_once(self, monkeypatch):
        _serial(monkeypatch)
        real = markov.enumerate_states
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(markov, "enumerate_states", counted)
        monkeypatch.setattr(verify, "enumerate_states", counted, raising=False)
        for suite, cases, chains in (("stationary-tasep", 476, 13), ("stationary-tazrp", 141, 15)):
            calls.clear()
            report = verify.SUITES[suite](None, 0)
            assert (report.passed, report.cases, len(calls)) == (True, cases, chains)

    def test_seed_changes_keep_verdicts(self):
        a = suite_r_invariance(SMALL, seed=1)
        b = suite_r_invariance(SMALL, seed=99)
        assert a.passed == b.passed
        assert a.cases == b.cases  # same exhaustive box, same random volume

    def test_ringing_searches_once_per_call(self, monkeypatch):
        calls = []
        real = verify.find_ringing_counterexample

        def counted(*args, **kwargs):
            calls.append(args or kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "find_ringing_counterexample", counted)
        for _ in range(2):
            report = suite_ringing(SMALL, seed=2)
            assert report.passed and report.parameters["counterexample"] is not None
        assert len(calls) == 2

    def test_same_seed_reproduces_report(self):
        a = suite_phi_equals_ctm(SMALL, seed=5)
        b = suite_phi_equals_ctm(SMALL, seed=5)
        assert a.cases == b.cases and a.failures == b.failures

    def test_unknown_bound_key_rejected(self):
        with pytest.raises(ValueError):
            suite_r_invariance({"max_turbo": 3})

    @pytest.mark.parametrize(
        "key, value", [("random_cases", -5), ("fermionic_max_k", -1), ("random_max_n", 1), ("random_max_k", 0), ("bosonic_max_n", 1.5)]
    )
    def test_malformed_bound_value_rejected(self, key, value):
        # negative bounds used to pass vacuously; random_max_n < 2 died in randint
        with pytest.raises(ValueError, match=f"bound {key} must be an integer"):
            suite_r_invariance({key: value})

    def test_empty_bounds_vacuous_pass(self):
        bounds = dict(SMALL, random_cases=0, fermionic_max_k=1, bosonic_max_k=1)
        assert suite_r_invariance(bounds, seed=0).passed


class TestReports:
    def test_json_and_text(self):
        report = verify.SUITES["stationary-tasep"](None, 0)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["suite"] == "stationary-tasep"
        assert doc["pass"] is True
        assert "PASS" in report.to_text()

    def test_failing_report_text(self):
        report = SuiteReport("demo", {}, 1, [{"check": "x"}], 0.0)
        assert not report.passed
        assert "FAIL" in report.to_text()


class TestWitnesses:
    def test_counterexample_found_and_replays(self):
        witness = find_ringing_counterexample(4, 4)
        assert witness is not None
        assert replay_witness(witness)

    def test_counterexample_is_pinned(self):
        # ringing at site 1 moves the projection 210 to 102, two exclusion steps away
        assert find_ringing_counterexample(4, 4) == {
            "check": "chain-projection",
            "queue": {"kind": "fermionic", "n": 3, "rows": [[1], [], [1, 2]]},
            "x": None,
            "zr": {"0 1 2": "1"},
            "mlq": {"1 0 2": "1"},
        }

    @pytest.mark.parametrize("box", [(2.5, 3), (True, 4), (4, 4.0)], ids=["float", "bool", "float-k"])
    def test_counterexample_search_box_must_be_ints(self, box):
        # (2.5, 3) used to die with TypeError in range, (True, 4) to search nothing and return None
        with pytest.raises(ValueError, match="^the search box bounds must be integers$"):
            find_ringing_counterexample(*box)

    def test_fabricated_witness_does_not_reproduce(self):
        fake = {
            "check": "twist-invariance",
            "queue": {"kind": "fermionic", "n": 3, "rows": [[1], [2]]},
            "i": 1,
        }
        assert replay_witness(fake) is False

    def test_unknown_witness_kind_rejected(self):
        with pytest.raises(ValueError):
            replay_witness({"check": "nonsense"})


class TestChainProjection:
    """The lumping check on fermionic queues: ringing projects onto the exclusion
    process on straight shapes (the ringing suite runs it on bosonic ones)."""

    @pytest.mark.parametrize("alpha, n", [((2, 1), 3), ((2, 1), 4), ((2, 2, 1), 4), ((3, 2, 1), 4)])
    def test_straight_fermionic_ringing_lumps_onto_the_exclusion_process(self, alpha, n):
        for q in enumerate_queues(alpha, n, "fermionic"):
            assert verify.check_chain_projection.run({"queue": q, "x": None}, {}) == []

    def test_fermionic_queue_takes_no_rates(self):
        q = FermionicMLQ(3, ((1,), (2,)))
        with pytest.raises(ValueError, match="fermionic ringing takes no site rates"):
            verify.check_chain_projection.run({"queue": q, "x": (Fraction(1),) * 3}, {})


def _rates(*xs):
    return tuple(Fraction(v) for v in xs)


class TestStationaryLaw:
    """One law check, read with ``mlq stationary`` arguments, on every model."""

    CASES = [
        ("tasep", (2, 1), 4, None),
        ("tazrp", (2, 1), 3, _rates(1, 2, 3)),
        ("tazrp", (2, 2, 1), 3, _rates("1/2", 3, 5)),
        ("mlq-fermionic", (2, 1), 3, None),
        ("mlq-bosonic", (2, 1), 3, _rates(1, 2, 3)),
        ("mlq-bosonic", (1, 2), 3, _rates(2, 1, 5)),  # twisted
        ("ktazrp", (2, 1), 3, None),
    ]

    def test_cases_cover_every_model(self):
        assert {model for model, *_ in self.CASES} == set(MODELS)

    @pytest.mark.parametrize("model, lam, n, x", CASES)
    def test_queue_law_is_the_stationary_law(self, model, lam, n, x):
        assert verify.check_stationary_law.run({"model": model, "lambda": lam, "n": n, "x": x}, {}) == []

    def test_ktazrp_disagreement_is_reported_and_replays(self, tmp_path, capsys):
        # the block-hopping chain is not the process the unit-weight bosonic fibers describe
        case = {"model": "ktazrp", "lambda": (2, 2, 1), "n": 4, "x": None}
        witnesses = verify.check_stationary_law.run(case, {})
        assert verify.check_stationary_law.units(case) == count_states((2, 2, 1), 4, "bosonic") == 40
        assert [w["check"] for w in witnesses] == ["law-mismatch"] * 32
        for witness in witnesses:
            assert _replay_code(tmp_path, capsys, witness) == (0, "witness reproduces\n")
        # the witness fields are the mlq stationary arguments whose two routes it compares
        laws = {}
        for method in ("exact", "mlq"):
            argv = ["stationary", "--model", "ktazrp", "--lambda", "2,2,1", "--n", "4", "--method", method]
            assert main(argv) == 0
            entries = json.loads(capsys.readouterr().out)["entries"]
            laws[method] = {json.dumps(e["state"]): Fraction(e["prob"]) for e in entries}
        found = {json.dumps(w["state"]): (Fraction(w["exact"]), Fraction(w["queue_law"])) for w in witnesses}
        assert found == {s: (p, laws["mlq"][s]) for s, p in laws["exact"].items() if p != laws["mlq"][s]}

    @pytest.mark.parametrize(
        "model, lam, n, x",
        [("tasep", (2, 1), 3, _rates(1, 1, 1)), ("mlq-fermionic", (2, 1), 3, _rates(1, 2, 3)),
         ("tazrp", (2, 1), 3, _rates(1, 2)), ("asep", (2, 1), 3, None)],
    )
    def test_rates_must_fit_the_model(self, model, lam, n, x):
        with pytest.raises(ValueError):
            verify.check_stationary_law.run({"model": model, "lambda": lam, "n": n, "x": x}, {})


def test_suite_all_smoke():
    report = suite_all(SMALL, 0)
    assert report.passed
    assert report.suite == "all"
    assert report.cases > 0
    # each suite reports the name it is run under
    assert [suite for entry in report.parameters["suites"] for suite in entry] == list(verify.SUITES)


def test_worker_cap_env_var(monkeypatch):
    # one process per CPU this process may run on; MLQ_THREADS is not read
    monkeypatch.setenv("MLQ_THREADS", "3")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert verify.worker_count() == (cpus if hasattr(os, "fork") else 1)


def _serial(patch):
    """Run every share of a suite call in this process, where a test counts its calls."""
    patch.setattr(verify, "worker_count", lambda: 1)


# ---------------------------------------------------------------------------
# the check table: one injected fault per witness kind
# ---------------------------------------------------------------------------


def _empty_word(q, *_):
    return FermionicWord((0,) * q.n) if isinstance(q, FermionicMLQ) else BosonicWord(((),) * q.n)


def _empty_trace(q):
    return [_empty_word(q)] * q.k


def _zero_components(q, j=1):
    return [(0,) * q.n] * (q.k - j + 1)


def _plain_swap(q, i):
    rows = q.rows
    return type(q)(q.n, rows[: i - 1] + (rows[i], rows[i - 1]) + rows[i + 1 :])


def _uniform_law(real):
    def law(*args, **kwargs):
        states = real(*args, **kwargs)
        return {s: Fraction(1, len(states)) for s in states}

    return law


def _escaping_law(real):
    def law(model, lam, n, x=None):
        states = dict(real(model, lam, n, x))
        states[FermionicWord((0,) * n)] = Fraction(0)
        return states

    return law


def _reverse_fixed_on(kind):
    """A fault of ``ring`` whose reverse step leaves a ``kind`` queue as it is."""

    def make(real):
        def ring(q, i, x=None, reverse=False):
            return (q, i, Fraction(1)) if reverse and q.kind == kind else real(q, i, x, reverse)

        return ring

    return make


def _shifted_exit(real):
    def ring(q, i, x=None, reverse=False):
        img, exit_site, rate = real(q, i, x, reverse)
        return img, exit_site % q.n + 1, rate

    return ring


def _row_dependent_site(real):
    def ring(q, i, x=None, reverse=False):
        return real(q, (i + len(q.rows[0]) - 1) % q.n + 1, x, reverse)

    return ring


def _doubled_rates(real):
    return lambda w, x: [(t, 2 * r) for t, r in real(w, x)]


SWEEP = lambda: verify.suite_phi_equals_ctm(SMALL, seed=1)  # noqa: E731
RINGING = lambda: verify.suite_ringing(None, 0)  # noqa: E731
TASEP = lambda: verify.SUITES["stationary-tasep"](None, 0)  # noqa: E731
TAZRP = lambda: verify.SUITES["stationary-tazrp"](None, 0)  # noqa: E731

# witness kind -> (report whose failures hold the witness, {verify attribute: fault built from the real one})
FAULTS = {
    "twist-invariance": (lambda: verify.suite_r_invariance(SMALL, seed=1), {"twist": lambda real: _plain_swap}),
    "fold-vs-ctm": (SWEEP, {"ctm_components": lambda real: _zero_components}),
    "content-law": (SWEEP, {"label_trace": lambda real: _empty_trace, "ctm_components": lambda real: _zero_components}),
    "fold-vs-label-passing": (SWEEP, {"ferrari_martin": lambda real: _empty_word}),
    "component-swap": (SWEEP, {"ctm_components": lambda real: lambda q, j=1: sorted(real(q, j), key=sum, reverse=True)}),
    "particlewise": (SWEEP, {"apply_row_particlewise": lambda real: lambda row, label, word, order=None: word}),
    "law-mismatch": (TAZRP, {"queue_law": _uniform_law}),
    "law-support": (TASEP, {"queue_law": _escaping_law}),
    "ring-inverse": (RINGING, {"ring": _reverse_fixed_on("fermionic")}),
    "ring-weight": (RINGING, {"ring": _shifted_exit}),
    "chain-projection": (RINGING, {"tazrp_transitions": _doubled_rates}),
    "twist-forward-commute": (RINGING, {"ring": _row_dependent_site}),
    "twist-reverse-commute": (RINGING, {"ring": _row_dependent_site}),
    "ringing-counterexample": (RINGING, {"enumerate_queues": lambda real: lambda *args: iter(())}),
}


def _replay_code(tmp_path, capsys, witness):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code = main(["verify", "--witness", str(path)])
    return code, capsys.readouterr().err


# test id -> (witness kind, report, faults): each kind once, and ring-inverse again
# from a bosonic queue, the first one its fault reaches in the ringing suite
FAULT_CASES = {kind: (kind, *entry) for kind, entry in FAULTS.items()}
FAULT_CASES["ring-inverse-from-bosonic"] = ("ring-inverse", RINGING, {"ring": _reverse_fixed_on("bosonic")})


def test_every_witness_kind_is_registered():
    assert set(verify.CHECKS) == set(FAULTS)
    assert len(verify.CHECKS) == 14
    assert len({check.run for check in verify.CHECKS.values()}) == 7
    # one way to run a check: every registered body takes the case and its suite call's table
    for check in verify.CHECKS.values():
        assert list(inspect.signature(check.run).parameters) == ["case", "table"]


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_suite_witness_replays_under_its_fault_only(case, monkeypatch, tmp_path, capsys):
    kind, run_suite, faults = FAULT_CASES[case]
    with monkeypatch.context() as patch:
        for name, make in faults.items():
            patch.setattr(verify, name, make(getattr(verify, name)))
        report = run_suite()
        witness = next(w for w in report.failures if w["check"] == kind)
        code, err = _replay_code(tmp_path, capsys, witness)
        assert (code, err.strip()) == (0, "witness reproduces")
    code, err = _replay_code(tmp_path, capsys, witness)
    assert (code, err.strip()) == (4, "witness does NOT reproduce")


def test_counterexample_witness_replays_under_its_fault_only(monkeypatch, tmp_path, capsys):
    # the real counterexample replays anywhere; with no exclusion move out of
    # any word the search stops earlier, on a queue whose ringing does lump
    real = verify.find_ringing_counterexample(4, 4)
    with monkeypatch.context() as patch:
        patch.setattr(verify, "tasep_transitions", lambda w: [])
        witness = verify.find_ringing_counterexample(4, 4)
        assert witness != real
        code, err = _replay_code(tmp_path, capsys, witness)
        assert (code, err.strip()) == (0, "witness reproduces")
    code, err = _replay_code(tmp_path, capsys, witness)
    assert (code, err.strip()) == (4, "witness does NOT reproduce")


# ---------------------------------------------------------------------------
# the per-call tables of the suites
# ---------------------------------------------------------------------------

# suite -> (suite function, witness kind of a check the suite runs on its table)
TABLED_SUITES = {
    "r-invariance": (suite_r_invariance, "twist-invariance"),
    "projection": (suite_phi_equals_ctm, "particlewise"),
    "ringing": (suite_ringing, "chain-projection"),
}


def _recorded_cases(patch):
    """Record the (check, case) pairs each suite run hands to ``verify._run``."""
    cases, real = [], verify._run

    def recording(suite, parameters, parts, table):
        parts = [(check, list(batch)) for check, batch in parts]
        cases.extend((check, case) for check, batch in parts for case in batch)
        return real(suite, parameters, parts, table)

    patch.setattr(verify, "_run", recording)
    return cases


@pytest.mark.parametrize("fault", [None, "twist-invariance", "particlewise", "chain-projection"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("suite", sorted(TABLED_SUITES))
def test_tabled_suite_reports_what_its_check_finds_case_by_case(suite, seed, fault, monkeypatch):
    run_suite, kind = TABLED_SUITES[suite]
    with monkeypatch.context() as patch:
        for name, make in (FAULTS[fault][1] if fault else {}).items():
            patch.setattr(verify, name, make(getattr(verify, name)))
        cases = _recorded_cases(patch)
        report = run_suite(SMALL, seed)
        table_free = [w for check, case in cases for w in check.run(case, {})]
    assert report.cases == sum(check.units(case) for check, case in cases)
    assert report.failures == table_free
    if fault == kind:
        assert report.failures  # the fault shows in the suite it targets


def _counted(patch, name, calls):
    """Record the positional arguments of every call of ``verify.<name>``."""
    real = getattr(verify, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    patch.setattr(verify, name, counted)


@pytest.mark.parametrize("seed", [1, 2])
def test_r_invariance_projects_each_distinct_queue_once_per_call(seed, monkeypatch):
    _serial(monkeypatch)
    runs = []
    for _ in range(2):
        with monkeypatch.context() as patch:
            calls = []
            _counted(patch, "project", calls)
            cases = _recorded_cases(patch)
            suite_r_invariance(SMALL, seed)
        queues = {(case["queue"],) for _, case in cases}
        queues |= {(verify.twist(q, i),) for (q,) in set(queues) for i in range(1, q.k)}
        assert len(calls) == len(set(calls)) == len(queues) and set(calls) == queues
        runs.append(len(calls))
    assert runs[0] == runs[1] < sum(case["queue"].k for _, case in cases)


@pytest.mark.parametrize("seed", [0, 7])
def test_ringing_projects_each_distinct_queue_once_per_call(seed, monkeypatch):
    # the chain-projection checks of the suite share its table, and the search keeps its own
    _serial(monkeypatch)
    runs = []
    for _ in range(2):
        with monkeypatch.context() as patch:
            calls = []
            _counted(patch, "project", calls)
            suite_ringing(None, seed)
        assert len(calls) == len(set(calls))
        runs.append(len(calls))
    assert runs == [375, 375]


@pytest.mark.parametrize("seed", [1, 2])
def test_projection_replays_each_distinct_step_once_per_call(seed, monkeypatch):
    _serial(monkeypatch)
    runs = []
    for _ in range(2):
        with monkeypatch.context() as patch:
            calls = []
            _counted(patch, "apply_row_particlewise", calls)
            cases = _recorded_cases(patch)
            suite_phi_equals_ctm(SMALL, seed)
        calls = [args for args in calls if len(args) == 3]  # every other priority order is replayed each time
        steps = set()
        for _, case in cases:
            q = case["queue"]
            inputs = verify.label_trace(q)[1:] + [verify.WORD_CLASSES[q.kind].from_particles(q.n, ())]
            steps |= {(q.rows[j - 1], j, inputs[j - 1]) for j in range(1, q.k + 1)}
        assert len(calls) == len(set(calls)) == len(steps) and set(calls) == steps
        runs.append(len(calls))
    assert runs[0] == runs[1] < sum(case["queue"].k for _, case in cases)


# suite -> (suite function, verify function whose calls it counts, the calls counted)
COUNTED_SUITES = {
    "r-invariance": (suite_r_invariance, "project", lambda args: True),
    "projection": (suite_phi_equals_ctm, "apply_row_particlewise", lambda args: len(args) == 3),
    "ringing": (suite_ringing, "project", lambda args: True),
}


@pytest.mark.parametrize("suite", sorted(COUNTED_SUITES))
def test_each_share_makes_each_call_once(suite, monkeypatch):
    # split over two processes, this process makes half the calls, each once, and the report is the serial one
    run_suite, name, counted = COUNTED_SUITES[suite]
    runs = {}
    for workers in (1, 2):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "worker_count", lambda: workers)
            calls = []
            _counted(patch, name, calls)
            report = run_suite(SMALL, 1)
        calls = [args for args in calls if counted(args)]
        assert len(calls) == len(set(calls))
        runs[workers] = (len(calls), report.cases, report.failures)
    assert 0 < runs[2][0] < runs[1][0] and runs[2][1:] == runs[1][1:]


# ---------------------------------------------------------------------------
# one suite call, split over worker processes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_split_report_equals_the_serial_one(kind, monkeypatch):
    run_suite, faults = FAULTS[kind]
    for name, make in faults.items():
        monkeypatch.setattr(verify, name, make(getattr(verify, name)))
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(verify, "worker_count", lambda: workers)
        reports.append(run_suite())
    serial = reports[0]
    assert any(w["check"] == kind for w in serial.failures)
    for report in reports[1:]:
        assert (report.failures, report.cases, report.parameters) == (serial.failures, serial.cases, serial.parameters)
        assert all(replay_witness(w) for w in report.failures)


def _raising_on(patch, indices):
    """Make the twist-invariance check raise on the r-invariance cases ``indices`` of ``SMALL`` at seed 1."""
    queues = verify._sweep_queues(verify._bounds(SMALL), 1)
    targets = {queues[i]: i for i in sorted(indices, reverse=True)}  # a repeated queue raises as its first case
    real = verify.check_twist_invariance

    def run(case, table):
        if case["queue"] in targets:
            raise ValueError(f"raised on case {targets[case['queue']]}")
        return real.run(case, table)

    patch.setattr(verify, "check_twist_invariance", verify.Check(run, real.fields, real.units))


# the cases that raise: in a worker's share, in this process's share, or in both, each share first
RAISING = {"worker": (1,), "caller": (0,), "worker-first": (1, 0), "caller-first": (0, 1)}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("where", sorted(RAISING))
def test_a_raising_case_raises_as_in_the_serial_run(where, workers, monkeypatch):
    # case i is in share i mod workers, and this process runs share 0
    shares = RAISING[where]
    indices = [workers * (1 + n) + share for n, share in enumerate(shares)]
    _raising_on(monkeypatch, indices)
    raised = []
    for count in (1, workers):
        monkeypatch.setattr(verify, "worker_count", lambda: count)
        with pytest.raises(Exception) as info:
            suite_r_invariance(SMALL, 1)
        raised.append((type(info.value), str(info.value)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every worker was reaped
    assert raised[0] == raised[1] == (ValueError, f"raised on case {indices[0]}")


def test_shares_that_cannot_fork_run_in_the_caller(monkeypatch):
    run_suite, faults = FAULTS["twist-invariance"]
    for name, make in faults.items():
        monkeypatch.setattr(verify, name, make(getattr(verify, name)))
    monkeypatch.setattr(verify, "worker_count", lambda: 1)
    serial = run_suite()
    real, forks = os.fork, []

    def fork():  # the second fork fails, as when the process limit is reached
        forks.append(True)
        if len(forks) == 2:
            raise BlockingIOError("no more processes")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(verify, "worker_count", lambda: 3)
    report = run_suite()
    assert len(forks) == 2 and serial.failures
    assert (report.failures, report.cases, report.parameters) == (serial.failures, serial.cases, serial.parameters)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_stops_every_worker(monkeypatch):
    caller = os.getpid()
    real = verify.check_twist_invariance

    def run(case, table):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return real.run(case, table)

    monkeypatch.setattr(verify, "check_twist_invariance", verify.Check(run, real.fields, real.units))
    monkeypatch.setattr(verify, "worker_count", lambda: 2)
    with pytest.raises(KeyboardInterrupt):
        suite_r_invariance(SMALL, 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_is_an_error(monkeypatch):
    caller = os.getpid()
    queue = verify._sweep_queues(verify._bounds(SMALL), 1)[1]  # case 1: the worker's share of two
    real = verify.check_twist_invariance

    def run(case, table):
        if case["queue"] == queue and os.getpid() != caller:
            os._exit(3)
        return real.run(case, table)

    monkeypatch.setattr(verify, "check_twist_invariance", verify.Check(run, real.fields, real.units))
    monkeypatch.setattr(verify, "worker_count", lambda: 2)
    with pytest.raises(AssertionError, match="^a verify worker process exited with code 3$"):
        suite_r_invariance(SMALL, 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# sampled priority orders, for words of more than 6 particles
# ---------------------------------------------------------------------------

# row 2 hands a 7-particle word to row 1, whose replay samples its orders
SEVEN_BELOW = BosonicMLQ(3, ((1, 1, 2, 2, 3, 3, 3), (1, 2, 2, 3, 3, 3, 3)))


def _sampled_orders(patch) -> list:
    """Record the word of every call of ``verify._random_orders``."""
    words, real = [], verify._random_orders

    def recording(word, rng, count):
        words.append(word)
        return real(word, rng, count)

    patch.setattr(verify, "_random_orders", recording)
    return words


def _caller_orders_dropped(real):
    """A replay that ignores every caller-given order other than the canonical one."""
    def replay(row, label, word, order=None):
        if order is not None and tuple(order) != canonical_order(word):
            return word
        return real(row, label, word, order)

    return replay


def test_sampled_orders_replay_a_large_word(monkeypatch):
    case = {"queue": SEVEN_BELOW, "all_orders": True, "order_seed": 11}
    with monkeypatch.context() as patch:
        words = _sampled_orders(patch)
        assert verify.check_projection_routes.run(case, {}) == []
    assert [len(w.particles()) for w in words] == [7]


def test_sampled_order_witness_replays_under_its_fault_only(monkeypatch):
    case = {"queue": SEVEN_BELOW, "all_orders": True, "order_seed": 11}
    with monkeypatch.context() as patch:
        patch.setattr(verify, "apply_row_particlewise", _caller_orders_dropped(verify.apply_row_particlewise))
        words = _sampled_orders(patch)
        (witness,) = verify.check_projection_routes.run(case, {})
        assert witness["check"] == "particlewise"
        assert [len(w.particles()) for w in words] == [7]  # only the sampled orders met the fault
        witness = json.loads(json.dumps(witness))
        assert replay_witness(witness)
    assert not replay_witness(witness)
