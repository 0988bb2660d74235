"""Verification suites: bounded exhaustive sweeps plus seeded random cases.

Every identity is a pure check in one table, ``CHECKS``, keyed by the witness
kinds it emits.  A check takes one case, a dict of inputs (a queue, a site, a
shape, rates, a seed), and returns the witnesses it found there.  Each witness
records every case field next to what was found, so :func:`replay_witness`
rebuilds the case from the witness alone and re-runs the same check.  A suite
is a case generator plus its checks: it exhausts the smallest nontrivial
parameter box first, then samples larger instances from a seeded generator.

A suite call splits its cases into W shares, W = :func:`worker_count`: case i,
counted from 0 over all its checks in order, is in share i mod W.  It forks
one process per share after the first and runs share 0 itself; each process
walks its own copy of the same lazy case stream and runs only its share.  The
calling process merges the witnesses in case order, so every report equals
the serial run's (W = 1, no fork) and is deterministic given (bounds, seed).
If any share fails, because a fork fails or a case raises, the call reaps
every worker and runs again serially, so it raises the serial run's first
exception.  A worker that dies without reporting is an ``AssertionError``.
W is 1 while the process runs more than one thread, as a fork copies only the
thread that calls it.

Checks meet the same input many times: twists map the swept queue families
onto each other, many queues share a (row, fresh label, word) step of the
particlewise replay, and ringing maps queues onto each other.  So a check also
takes a table, a dict of the calls it has made (projections, replays, the
search), each keyed by its function and arguments.  Each suite call makes one
table and drops it when it returns; each process of the call has its own copy,
shared by every check of its share.  :func:`replay_witness` runs its check on
an empty table.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import documents
from .markov import (
    conjugate,
    model_chain,
    model_size,
    queue_law,
    ring,
    stationary_exact,
    tasep_transitions,
    tazrp_transitions,
)
from .mlq import MLQ, QUEUE_CLASSES, enumerate_queues, twist
from .projection import (
    apply_row_particlewise,
    canonical_order,
    ctm_components,
    ferrari_martin,
    label_trace,
    project,
)
from .words import WORD_CLASSES, Word, _ints, _wrap


def worker_count() -> int:
    """Number of processes a suite call splits its cases over: the CPUs this
    process may run on, or 1 where processes cannot be forked.  While the
    caller runs other threads, :func:`_run` uses one process instead."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class SuiteReport:
    suite: str
    parameters: dict
    cases: int
    failures: list
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "cases": self.cases,
            "failures": self.failures,
            "wall_time_s": self.wall_time,
            "pass": self.passed,
        }

    def to_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"[{verdict}] suite={self.suite} cases={self.cases} time={self.wall_time:.2f}s"]
        for f in self.failures[:5]:
            lines.append(f"    witness: {json.dumps(f, default=str)}")
        if len(self.failures) > 5:
            lines.append(f"    ... and {len(self.failures) - 5} more failures")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """``run(case, table)`` returns the witnesses found on one case, reading and
    filling ``table``, its suite call's one dict of calls (see :func:`_memo`),
    shared by every check it runs and empty on a replay; ``fields`` maps each
    case field to its witness parser; ``units(case)`` counts the report cases."""

    run: Callable[[dict, dict], list]
    fields: dict
    units: Callable[[dict], int]


CHECKS: dict[str, Check] = {}


def _check(*kinds: str, fields: dict, units: Callable[[dict], int] = lambda case: 1):
    """Register the decorated function as the check for witness ``kinds``."""

    def register(run) -> Check:
        CHECKS.update(dict.fromkeys(kinds, Check(run, fields, units)))
        return CHECKS[kinds[0]]

    return register


def _field(ok: Callable[[object], bool], what: str, read: Callable = lambda value: value):
    """Parser of one witness field: ``read(value)`` once ``ok(value)`` holds."""

    def parse(name: str, value):
        if not ok(value):
            raise ValueError(f"witness field {name!r} must be {what}")
        return read(value)

    return parse


def _read_rates(value) -> tuple[Fraction, ...] | None:
    return None if value is None else tuple(documents.parse_fraction(v) for v in value)


_ANY_QUEUE = _field(lambda v: isinstance(v, dict), "a queue", documents.parse_queue)  # parse_queue reads the kind
_BOSONIC = _field(lambda v: isinstance(v, dict) and v.get("kind") == "bosonic", "a bosonic queue", documents.parse_queue)
_INT = _field(lambda v: type(v) is int, "an integer")
_FLAG = _field(lambda v: type(v) is bool, "true or false")
_MODEL = _field(lambda v: isinstance(v, str), "a model name")  # markov refuses an unknown one
_PARTS = _field(lambda v: isinstance(v, list) and all(type(p) is int for p in v), "a list of integers", tuple)
_RATES_OR_NONE = _field(lambda v: v is None or isinstance(v, list), "a list of rationals or null", _read_rates)


def _json(value):
    """A case or found value as witness JSON."""
    if isinstance(value, MLQ):
        return documents.emit_queue(value)
    if isinstance(value, Word):
        return documents.emit_word(value)
    if isinstance(value, Fraction):
        return documents.format_fraction(value)
    return [_json(v) for v in value] if isinstance(value, tuple) else value


def _witness(kind: str, case: dict, **found) -> dict:
    return {"check": kind, **{name: _json(value) for name, value in {**case, **found}.items()}}


def replay_witness(witness) -> bool:
    """Re-run the check a witness names on the case it records; True iff the
    re-run returns an equal witness.  Raises ``ValueError`` for a witness
    that is not an object, names no registered kind, or lacks or mistypes a
    case field."""
    if not isinstance(witness, dict):
        raise ValueError("a witness must be a JSON object")
    kind = witness.get("check")
    if not isinstance(kind, str) or kind not in CHECKS:
        raise ValueError(f"unknown witness kind {kind!r}; known kinds: {sorted(CHECKS)}")
    check = CHECKS[kind]
    missing = [name for name in check.fields if name not in witness]
    if missing:
        raise ValueError(f"{kind} witness lacks the fields {missing}")
    case = {name: parse(name, witness[name]) for name, parse in check.fields.items()}
    return witness in json.loads(json.dumps(check.run(case, {})))


def _run(suite: str, parameters: dict, parts: Callable[[], list], table: dict) -> SuiteReport:
    """Run each check of ``parts()``, a list of (check, cases), over its cases
    in ``worker_count()`` shares (see :func:`_split`), or serially, on
    ``parts()`` made anew, once a share fails."""
    start = time.perf_counter()
    workers = worker_count() if threading.active_count() == 1 else 1  # fork no process that has threads
    shares = _split(parts(), table, workers) if workers > 1 else None
    units, found = shares or _share(parts(), table, 0, 1)
    failures = [w for _, witnesses in found for w in witnesses]
    return SuiteReport(suite, parameters, units, failures, time.perf_counter() - start)


def _share(parts: list, table: dict, share: int, workers: int) -> tuple[int, list]:
    """Run share ``share`` of ``workers`` of the cases of ``parts``: case i,
    counted from 0 over all parts in order, is in share i mod ``workers``.
    Returns the units run and (case index, witnesses) of each case with
    witnesses, in case order."""
    units, found = 0, []
    stream = ((check, case) for check, cases in parts for case in cases)
    for i, (check, case) in itertools.islice(enumerate(stream), share, None, workers):
        witnesses = check.run(case, table)
        units += check.units(case)
        if witnesses:
            found.append((i, witnesses))
    return units, found


def _split(parts: list, table: dict, workers: int) -> tuple[int, list] | None:
    """Run share 0 of ``parts`` (see :func:`_share`) here and fork a worker
    process for each other share; a worker walks its own copy of the lazy
    case streams and of ``table`` and writes its result as JSON to a pipe.
    Returns the units and witnesses of every share, in case order, or None
    once a share fails: a fork fails, or a case raises here or in a worker.
    A worker that exits without reporting is an ``AssertionError``.  Every
    worker is reaped before this returns or raises."""
    running, pipes = {}, []  # pid -> read end, of each worker not yet reaped; every pipe end opened
    try:
        for share in range(1, workers):
            try:
                read, write = (open(end, mode) for end, mode in zip(os.pipe(), "rw"))
                pipes += read, write
                pid = os.fork()
            except OSError:  # out of processes or files
                return None
            if pid == 0:  # the worker: exit code 1 if a case raised
                code = 1
                try:
                    with write:
                        json.dump(_share(parts, table, share, workers), write)
                    code = 0
                finally:
                    os._exit(code)
            write.close()
            running[pid] = read
        try:
            units, found = _share(parts, table, 0, workers)
        except Exception:  # the serial run raises the first case's exception
            return None
        for pid, read in list(running.items()):
            report = read.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if code == 1:
                return None
            if code:
                raise AssertionError(f"a verify worker process exited with code {code}")
            more, theirs = json.loads(report)
            units += more
            found += theirs
        return units, sorted(found, key=lambda f: f[0])
    finally:
        for pipe in pipes:
            pipe.close()
        if running:  # interrupted, or a share failed: stop the workers not yet reaped
            import signal

            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# case generation
# ---------------------------------------------------------------------------

DEFAULT_BOUNDS = {
    "fermionic_max_n": 4,
    "fermionic_max_k": 3,
    "fermionic_max_part": 3,
    "bosonic_max_n": 3,
    "bosonic_max_k": 3,
    "bosonic_max_part": 2,
    "random_cases": 1000,
    "random_max_n": 6,
    "random_max_k": 4,
    "random_max_part": 4,
}

# a random queue has at least 2 sites and 1 row; every other bound may be 0
_BOUND_MINIMA = {"random_max_n": 2, "random_max_k": 1}


def _bounds(overrides: dict | None) -> dict:
    b = dict(DEFAULT_BOUNDS)
    if overrides:
        unknown = set(overrides) - set(b)
        if unknown:
            raise ValueError(f"unknown bound keys: {sorted(unknown)}")
        b.update(overrides)
    for key, value in b.items():
        low = _BOUND_MINIMA.get(key, 0)
        if type(value) is not int or value < low:
            raise ValueError(f"bound {key} must be an integer >= {low}, got {value!r}")
    return b


def _exhaustive_queues(kind: str, max_n: int, max_k: int, max_part: int) -> Iterable[MLQ]:
    for n in range(1, max_n + 1):
        cap = min(max_part, n) if kind == "fermionic" else max_part
        for k in range(1, max_k + 1):
            for alpha in itertools.product(range(cap + 1), repeat=k):
                yield from enumerate_queues(alpha, n, kind)


def _random_queue(rng: random.Random, kind: str, max_n: int, max_k: int, max_part: int) -> MLQ:
    n = rng.randint(2, max_n)
    k = rng.randint(1, max_k)
    rows = []
    for _ in range(k):
        cap = min(max_part, n) if kind == "fermionic" else max_part
        a = rng.randint(0, cap)
        if kind == "fermionic":
            rows.append(tuple(sorted(rng.sample(range(1, n + 1), a))))
        else:
            rows.append(tuple(sorted(rng.choices(range(1, n + 1), k=a))))
    return QUEUE_CLASSES[kind](n, tuple(rows))


def _sweep_queues(bounds: dict, seed: int) -> list[MLQ]:
    cases: list[MLQ] = []
    for kind in QUEUE_CLASSES:
        cases.extend(_exhaustive_queues(kind, bounds[f"{kind}_max_n"], bounds[f"{kind}_max_k"], bounds[f"{kind}_max_part"]))
    rng = random.Random(seed)
    for _ in range(bounds["random_cases"]):
        kind = rng.choice(("fermionic", "bosonic"))
        cases.append(_random_queue(rng, kind, bounds["random_max_n"], bounds["random_max_k"], bounds["random_max_part"]))
    return cases


# ---------------------------------------------------------------------------
# checks and suites
# ---------------------------------------------------------------------------


_MISSING = object()


def _memo(table: dict, fn: Callable, *args):
    """``fn(*args)``, read from ``table`` once made there: an entry is one call,
    keyed by ``(fn, *args)``, and holds its result, None too.  Callers pass
    ``fn`` by its module name, so a rebound function runs and is counted."""
    key = (fn, *args)
    if (hit := table.get(key, _MISSING)) is _MISSING:
        hit = table[key] = fn(*args)
    return hit


@_check("twist-invariance", fields={"queue": _ANY_QUEUE})
def check_twist_invariance(case: dict, table: dict) -> list:
    """Projection is unchanged by every row twist; reports the first twist that changes it."""
    q = case["queue"]
    base = _memo(table, project, q)
    for i in range(1, q.k):
        other = _memo(table, project, twist(q, i))
        if other != base:
            return [_witness("twist-invariance", case, i=i, expected=base, got=other)]
    return []


@_check(
    "fold-vs-ctm", "content-law", "fold-vs-label-passing", "component-swap", "particlewise",
    fields={"queue": _ANY_QUEUE, "all_orders": _FLAG, "order_seed": _INT},
)
def check_projection_routes(case: dict, table: dict) -> list:
    """Fold, corner transfer, label passing (straight queues) and particlewise
    replay (every priority order if ``all_orders``, sampled from ``order_seed``
    when too many) agree, with the content law and the component swap under
    twists.  Reports the first disagreement."""
    q = case["queue"]
    trace = label_trace(q)
    w = trace[0]
    before = ctm_components(q)
    ctm = WORD_CLASSES[q.kind].from_layers(sorted(before, key=sum, reverse=True), q.n)
    if ctm != w:
        return [_witness("fold-vs-ctm", case, fold=w, ctm=ctm)]
    content = w.content()
    for j, part in enumerate(sorted(q.shape, reverse=True), 1):
        if sum([a >= j for a in content]) != part:  # layer j holds the labels >= j
            return [_witness("content-law", case, layer=j)]
    if q.is_straight and ferrari_martin(q) != w:
        return [_witness("fold-vs-label-passing", case)]
    for i in range(1, q.k):
        after = ctm_components(twist(q, i))
        perm = list(range(q.k))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        if after != [before[p] for p in perm]:
            return [_witness("component-swap", case, i=i)]
    if _particlewise_mismatch(q, trace, case["all_orders"], case["order_seed"], table):
        return [_witness("particlewise", case)]
    return []


def _label_classes(word) -> list:
    """The word's particles in :func:`canonical_order`, grouped by label."""
    return [list(group) for _, group in itertools.groupby(canonical_order(word), key=lambda p: p[1])]


def _priority_orders(word):
    """Every order of the word's particles that takes larger labels first."""
    for perms in itertools.product(*[itertools.permutations(c) for c in _label_classes(word)]):
        yield tuple(p for block in perms for p in block)


def _particlewise_mismatch(q: MLQ, trace: list, all_orders: bool, order_seed: int, table: dict) -> bool:
    """Replay the projection fold, ``trace`` = ``label_trace(q)``, with the
    queueing formulation of the row op.  The default-order replays are read
    from ``table`` once made; the other orders are replayed every time.  The
    rows whose orders are sampled share one ``random.Random(order_seed)``,
    built when the first needs it."""
    word = WORD_CLASSES[q.kind].from_particles(q.n, ())
    rng = None
    for j in range(q.k, 0, -1):
        row, expected = q.rows[j - 1], trace[j - 1]
        if _memo(table, apply_row_particlewise, row, j, word) != expected:
            return True
        if all_orders:
            n_particles = len(word.particles())
            if n_particles <= 6:
                orders = _priority_orders(word)
            else:
                rng = rng or random.Random(order_seed)
                orders = _random_orders(word, rng, 50)
            for order in orders:
                if apply_row_particlewise(row, j, word, order) != expected:
                    return True
        word = expected
    return False


def _random_orders(word, rng: random.Random, count: int):
    """``count`` priority orders, each shuffling a copy of every label class in turn."""
    classes = _label_classes(word)
    for _ in range(count):
        order = []
        for c in classes:
            c = list(c)
            rng.shuffle(c)
            order += c
        yield tuple(order)


def suite_r_invariance(bounds: dict | None = None, seed: int = 0) -> SuiteReport:
    """Projection is unchanged by every row twist.  Twists map the swept
    families onto each other, so each distinct queue is projected once per
    call."""
    b = _bounds(bounds)
    queues = _sweep_queues(b, seed)
    return _run("r-invariance", {"bounds": b, "seed": seed},
                lambda: [(check_twist_invariance, ({"queue": q} for q in queues))], {})


def suite_phi_equals_ctm(bounds: dict | None = None, seed: int = 0) -> SuiteReport:
    """All projection routes agree (:func:`check_projection_routes`); 60 seeded
    cases replay the particles in every priority order.  Each distinct
    default-order replay is made once per call."""
    b = _bounds(bounds)
    queues = _sweep_queues(b, seed)
    order_sample = set(random.Random(seed + 1).sample(range(len(queues)), min(len(queues), 60)))
    return _run("projection", {"bounds": b, "seed": seed}, lambda: [(check_projection_routes, (
        {"queue": q, "all_orders": idx in order_sample, "order_seed": (seed + 1) * 1_000_003 + idx}
        for idx, q in enumerate(queues)
    ))], {})


@_check(
    "law-mismatch", "law-support",
    fields={"model": _MODEL, "lambda": _PARTS, "n": _INT, "x": _RATES_OR_NONE},
    units=lambda case: model_size(case["model"], case["lambda"], case["n"]),
)
def check_stationary_law(case: dict, table: dict) -> list:
    """The exact stationary law of the model's chain is the law its queues
    give; the case holds the ``mlq stationary`` arguments of the model."""
    model, lam, n, x = case["model"], case["lambda"], case["n"], case["x"]
    law = queue_law(model, lam, n, x)
    exact = stationary_exact(model_chain(model, lam, n, x))
    found = [
        _witness("law-mismatch", case, state=s, queue_law=str(law.get(s, 0)), exact=str(p))
        for s, p in exact.items()
        if law.get(s, 0) != p
    ]
    escaped = [_json(s) for s in sorted(set(law) - set(exact.probs), key=str)]
    if escaped:
        found.append(_witness("law-support", case, detail="the queue law leaves the state space", states=escaped))
    return found


def _law_suite(model: str, grid, parameters: dict) -> SuiteReport:
    """``model`` on each (queue shape, n, x) of ``grid``, on content conj(shape)."""
    cases = [{"model": model, "lambda": conjugate(shape), "n": n, "x": x} for shape, n, x in grid]
    return _run(f"stationary-{model}", parameters, lambda: [(check_stationary_law, cases)], {})


TASEP_GRID = [((2, 1), 3), ((2, 1), 4), ((2, 1), 5), ((2, 2), 3), ((2, 2), 4), ((2, 2), 5),
              ((3, 1), 3), ((3, 1), 4), ((3, 1), 5), ((2, 1, 1), 3), ((2, 1, 1), 4), ((2, 1, 1), 5),
              ((3, 2, 1), 8)]
TAZRP_GRID = [((2, 1), 2), ((2, 1), 3), ((2, 2), 2), ((2, 2), 3), ((2, 1), 5)]
TAZRP_X = [(1, 1, 1, 1, 1), (1, 2, 3, 5, 7), (2, 3, 5, 7, 11)]


def _suite_tasep_grid(bounds: dict | None, seed: int) -> SuiteReport:
    _bounds(bounds)  # the grid reads no bound, but unknown keys are still an input error
    grid = [(lam, n, None) for lam, n in TASEP_GRID]
    return _law_suite("tasep", grid, {"grid": [[list(lam), n] for lam, n in TASEP_GRID]})


def _suite_tazrp_grid(bounds: dict | None, seed: int) -> SuiteReport:
    """``TAZRP_GRID`` with each rate vector of ``TAZRP_X`` cut to n sites."""
    _bounds(bounds)
    grid = [(lam, n, tuple(map(Fraction, xs[:n]))) for lam, n in TAZRP_GRID for xs in TAZRP_X]
    return _law_suite("tazrp", grid, {"grid": [[list(lam), n] for lam, n in TAZRP_GRID], "x": TAZRP_X})


@_check("ring-inverse", "ring-weight", fields={"queue": _ANY_QUEUE, "site": _INT})
def check_ring_inverse(case: dict, table: dict) -> list:
    """Forward and reverse ringing at a site are mutual inverses; on a bosonic
    queue, ringing moves one unit of weight from the entry site to the site
    after the exit."""
    q, i = case["queue"], case["site"]
    found = []
    img, exit_site, _ = ring(q, i)
    if ring(img, exit_site, reverse=True)[:2] != (q, i) or ring(*ring(q, i, reverse=True)[:2])[:2] != (q, i):
        found.append(_witness("ring-inverse", case))
    if q.kind == "bosonic":
        want = list(q.weight())
        want[_wrap(exit_site + 1, q.n) - 1] += 1
        want[i - 1] -= 1
        if list(img.weight()) != want:
            found.append(_witness("ring-weight", case))
    return found


@_check("chain-projection", fields={"queue": _ANY_QUEUE, "x": _RATES_OR_NONE})
def check_chain_projection(case: dict, table: dict) -> list:
    """The ringing moves out of a queue that change its projection carry, summed
    per image word, the rates of the exclusion moves (fermionic, no ``x``) or the
    zero-range moves at ``x`` (bosonic) out of that projection."""
    q, x = case["queue"], case["x"]
    tau = _memo(table, project, q)
    zr_rates: dict = {}
    for target, rate in tasep_transitions(tau) if q.kind == "fermionic" else tazrp_transitions(tau, x):
        zr_rates[target] = zr_rates.get(target, Fraction(0)) + rate
    mlq_rates: dict = {}
    for site in range(1, q.n + 1):
        img, _, rate = ring(q, site, x)
        if img != q and (w := _memo(table, project, img)) != tau:
            mlq_rates[w] = mlq_rates.get(w, Fraction(0)) + rate
    if zr_rates != mlq_rates:
        zr, mlq = ({str(k): str(v) for k, v in rates.items()} for rates in (zr_rates, mlq_rates))
        return [_witness("chain-projection", case, zr=zr, mlq=mlq)]
    return []


@_check("twist-forward-commute", "twist-reverse-commute", fields={"queue": _BOSONIC, "m": _INT, "site": _INT})
def check_twist_commute(case: dict, table: dict) -> list:
    """Twisting rows m, m+1 commutes with forward and with reverse ringing."""
    d, m, i = case["queue"], case["m"], case["site"]
    td = twist(d, m)
    found = []
    if twist(ring(d, i)[0], m) != ring(td, i)[0]:
        found.append(_witness("twist-forward-commute", case))
    if twist(ring(d, i, reverse=True)[0], m) != ring(td, i, reverse=True)[0]:
        found.append(_witness("twist-reverse-commute", case))
    return found


def find_ringing_counterexample(max_n: int = 4, max_k: int = 4) -> dict | None:
    """The ``chain-projection`` witness of the first twisted fermionic queue
    whose ringing does not lump onto the exclusion process, or None."""
    _ints((max_n, max_k), "the search box bounds")
    table: dict = {}  # one table for the whole search
    for q in _exhaustive_queues("fermionic", max_n, max_k, max_n):
        if q.is_straight:
            continue  # straight shapes project; skip
        if found := check_chain_projection.run({"queue": q, "x": None}, table):
            return found[0]
    return None


@_check("ringing-counterexample", fields={"max_n": _INT, "max_k": _INT})
def check_ringing_search(case: dict, table: dict) -> list:
    """The counterexample search finds a witness within ``max_n`` sites and ``max_k`` rows."""
    if _memo(table, find_ringing_counterexample, case["max_n"], case["max_k"]) is None:
        return [_witness("ringing-counterexample", case, detail="no witness found in the search box")]
    return []


def suite_ringing(bounds: dict | None = None, seed: int = 0) -> SuiteReport:
    """Ringing-path identities: inverses and weights, stationarity, projection,
    twist commutation, and the twisted-fermionic counterexample search."""
    _bounds(bounds)
    table: dict = {}
    search = {"max_n": 4, "max_k": 4}  # one search serves the check and the parameters
    counterexample = _memo(table, find_ringing_counterexample, search["max_n"], search["max_k"])
    x = (Fraction(1), Fraction(2), Fraction(3))
    rng = random.Random(seed)
    bosonic = [{"queue": (d := _random_queue(rng, "bosonic", 5, 4, 3)), "site": rng.randint(1, d.n)} for _ in range(500)]
    return _run("ringing", {"seed": seed, "counterexample": counterexample}, lambda: [
        (check_ring_inverse, ({"queue": q, "site": i} for lam in ((1,), (2, 1), (2, 2, 1)) for n in range(max(2, lam[0]), 5)
                              for q in enumerate_queues(lam, n, "fermionic") for i in range(1, q.n + 1))),
        (check_ring_inverse, bosonic),
        (check_stationary_law, [{"model": "mlq-bosonic", "lambda": (2, 1), "n": 3, "x": x}]),
        (check_chain_projection, ({"queue": d, "x": x} for alpha in ((2, 1), (1, 2))
                                  for d in enumerate_queues(alpha, 3, "bosonic"))),
        (check_twist_commute, ({"queue": d, "m": m, "site": i} for d in _exhaustive_queues("bosonic", 3, 3, 2)
                               for m in range(1, d.k) for i in range(1, d.n + 1))),
        (check_ringing_search, [search]),
    ], table)


# name -> suite(bounds, seed), in the order suite_all runs them
SUITES: dict[str, Callable[[dict | None, int], SuiteReport]] = {
    "r-invariance": suite_r_invariance,
    "projection": suite_phi_equals_ctm,
    "stationary-tasep": _suite_tasep_grid,
    "stationary-tazrp": _suite_tazrp_grid,
    "ringing": suite_ringing,
}


def suite_all(bounds: dict | None = None, seed: int = 0) -> SuiteReport:
    """Run every suite in ``SUITES`` on ``bounds`` and ``seed`` and merge the reports."""
    start = time.perf_counter()
    reports = [suite(bounds, seed) for suite in SUITES.values()]
    failures = [f for r in reports for f in r.failures]
    return SuiteReport(
        "all",
        {"seed": seed, "suites": [{r.suite: ("pass" if r.passed else "fail")} for r in reports]},
        sum(r.cases for r in reports),
        failures,
        time.perf_counter() - start,
    )
