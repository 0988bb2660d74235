"""Verification suites: bounded exhaustive sweeps plus seeded random cases.

Every identity is a pure check in one table, ``CHECKS``, keyed by the witness
kinds it emits.  A check takes one case, a dict of inputs (a queue, a site, a
shape, rates, a seed), and returns the witnesses it found there.  Each witness
records every case field next to what was found, so :func:`replay_witness`
rebuilds the case from the witness alone and re-runs the same check.  A suite
is a case generator plus its checks, run serially in case order: it exhausts
the smallest nontrivial parameter box first, then samples larger instances
from a seeded generator, so every report is deterministic given (bounds, seed).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import documents
from .errors import SchemaError
from .markov import (
    MODELS,
    RateParams,
    conjugate,
    model_chain,
    model_size,
    queue_law,
    ring_forward,
    ring_forward_bosonic,
    ring_reverse,
    ring_reverse_bosonic,
    stationary_exact,
    tasep_transitions,
    tazrp_transitions,
)
from .mlq import MLQ, QUEUE_CLASSES, count_queues, enumerate_queues, twist
from .projection import (
    apply_row_particlewise,
    canonical_order,
    ctm_components,
    ferrari_martin,
    label_trace,
    project,
)
from .words import WORD_CLASSES, Word, _wrap


def worker_count() -> int:
    """Number of threads the suites run on: always 1, cases run serially."""
    return 1


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)

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
    """``run(case)`` returns the witnesses found on one case; ``fields`` maps each
    case field to its witness parser; ``units(case)`` counts the report cases."""

    run: Callable[[dict], list]
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
            raise SchemaError(f"witness field {name!r} must be {what}")
        return read(value)

    return parse


def _queue_kind(*kinds: str):
    return _field(lambda v: isinstance(v, dict) and v.get("kind") in kinds, f"a {' or '.join(kinds)} queue",
                  lambda v: documents.parse_queue(v))


def _read_rates(value) -> RateParams | None:
    return None if value is None else RateParams(tuple(documents.parse_fraction(v) for v in value))


_ANY_QUEUE, _FERMIONIC, _BOSONIC = _queue_kind("fermionic", "bosonic"), _queue_kind("fermionic"), _queue_kind("bosonic")
_INT = _field(lambda v: type(v) is int, "an integer")
_FLAG = _field(lambda v: type(v) is bool, "true or false")
_MODEL = _field(lambda v: isinstance(v, str) and v in MODELS, f"one of {', '.join(map(repr, MODELS))}")
_PARTS = _field(lambda v: isinstance(v, list) and all(type(p) is int for p in v), "a list of integers", tuple)
_RATES = _field(lambda v: isinstance(v, list), "a list of rationals", _read_rates)
_RATES_OR_NONE = _field(lambda v: v is None or isinstance(v, list), "a list of rationals or null", _read_rates)


def _json(value):
    """A case or found value as witness JSON."""
    if isinstance(value, MLQ):
        return documents.emit_queue(value)
    if isinstance(value, Word):
        return documents.emit_word(value)
    if isinstance(value, RateParams):
        return [documents.format_fraction(v) for v in value]
    return list(value) if isinstance(value, tuple) else value


def _witness(kind: str, case: dict, **found) -> dict:
    return {"check": kind, **{name: _json(value) for name, value in {**case, **found}.items()}}


def replay_witness(witness) -> bool:
    """Re-run the check a witness names on the case it records; True iff the
    re-run returns an equal witness.  Raises :class:`SchemaError` for a witness
    that is not an object, names no registered kind, or lacks or mistypes a
    case field."""
    if not isinstance(witness, dict):
        raise SchemaError("a witness must be a JSON object")
    kind = witness.get("check")
    if not isinstance(kind, str) or kind not in CHECKS:
        raise SchemaError(f"unknown witness kind {kind!r}; known kinds: {sorted(CHECKS)}")
    check = CHECKS[kind]
    missing = [name for name in check.fields if name not in witness]
    if missing:
        raise SchemaError(f"{kind} witness lacks the fields {missing}")
    case = {name: parse(name, witness[name]) for name, parse in check.fields.items()}
    return witness in json.loads(json.dumps(check.run(case)))


def _run(suite: str, parameters: dict, parts: Iterable[tuple[Check, Iterable[dict]]]) -> SuiteReport:
    """Run each check over its cases, serially and in order."""
    start = time.perf_counter()
    failures: list = []
    cases = 0
    for check, batch in parts:
        for case in batch:
            failures.extend(check.run(case))
            cases += check.units(case)
    return SuiteReport(suite, parameters, cases, failures, time.perf_counter() - start)


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
    cases.extend(
        _exhaustive_queues("fermionic", bounds["fermionic_max_n"], bounds["fermionic_max_k"], bounds["fermionic_max_part"])
    )
    cases.extend(
        _exhaustive_queues("bosonic", bounds["bosonic_max_n"], bounds["bosonic_max_k"], bounds["bosonic_max_part"])
    )
    rng = random.Random(seed)
    for _ in range(bounds["random_cases"]):
        kind = rng.choice(("fermionic", "bosonic"))
        cases.append(_random_queue(rng, kind, bounds["random_max_n"], bounds["random_max_k"], bounds["random_max_part"]))
    return cases


# ---------------------------------------------------------------------------
# checks and suites
# ---------------------------------------------------------------------------


@_check("twist-invariance", fields={"queue": _ANY_QUEUE})
def check_twist_invariance(case: dict) -> list:
    """Projection is unchanged by every row twist; reports the first twist that changes it."""
    q = case["queue"]
    base = project(q)
    for i in range(1, q.k):
        other = project(twist(q, i))
        if other != base:
            return [_witness("twist-invariance", case, i=i, expected=base, got=other)]
    return []


@_check(
    "fold-vs-ctm", "content-law", "fold-vs-label-passing", "component-swap", "particlewise",
    fields={"queue": _ANY_QUEUE, "all_orders": _FLAG, "order_seed": _INT},
)
def check_projection_routes(case: dict) -> list:
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
    lam = tuple(sorted(q.shape, reverse=True))
    for j in range(1, q.k + 1):
        if sum(w.layer(j)) != lam[j - 1]:
            return [_witness("content-law", case, layer=j)]
    if q.is_straight and ferrari_martin(q) != w:
        return [_witness("fold-vs-label-passing", case)]
    for i in range(1, q.k):
        after = ctm_components(twist(q, i))
        perm = list(range(q.k))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        if after != [before[p] for p in perm]:
            return [_witness("component-swap", case, i=i)]
    if _particlewise_mismatch(q, trace, case["all_orders"], random.Random(case["order_seed"])):
        return [_witness("particlewise", case)]
    return []


def _priority_orders(word):
    """Every order of the word's particles that takes larger labels first."""
    by_label: dict = {}
    for p in word.particles():
        by_label.setdefault(p[1], []).append(p)
    classes = [by_label[a] for a in sorted(by_label, reverse=True)]
    for perms in itertools.product(*[itertools.permutations(c) for c in classes]):
        yield tuple(p for block in perms for p in block)


def _particlewise_mismatch(q: MLQ, trace: list, all_orders: bool, rng: random.Random) -> bool:
    """Replay the projection fold, ``trace`` = ``label_trace(q)``, with the
    queueing formulation of the row op."""
    word = WORD_CLASSES[q.kind].from_particles(q.n, ())
    for j in range(q.k, 0, -1):
        expected = trace[j - 1]
        got = apply_row_particlewise(q.rows[j - 1], j, word)
        if got != expected:
            return True
        if all_orders:
            n_particles = len(word.particles())
            if n_particles <= 6:
                orders = _priority_orders(word)
            else:
                orders = _random_orders(word, rng, 50)
            for order in orders:
                if apply_row_particlewise(q.rows[j - 1], j, word, order) != expected:
                    return True
        word = expected
    return False


def _random_orders(word, rng: random.Random, count: int):
    base = canonical_order(word)
    for _ in range(count):
        order = list(base)
        # shuffle within equal-label runs
        start = 0
        for end in range(1, len(order) + 1):
            if end == len(order) or order[end][1] != order[start][1]:
                chunk = order[start:end]
                rng.shuffle(chunk)
                order[start:end] = chunk
                start = end
        yield tuple(order)


def suite_r_invariance(bounds: dict | None = None, seed: int = 0) -> SuiteReport:
    """Projection is unchanged by every row twist."""
    b = _bounds(bounds)
    cases = [{"queue": q} for q in _sweep_queues(b, seed)]
    return _run("r-invariance", {"bounds": b, "seed": seed}, [(check_twist_invariance, cases)])


def suite_phi_equals_ctm(bounds: dict | None = None, seed: int = 0) -> SuiteReport:
    """All projection routes agree (:func:`check_projection_routes`); 60 seeded
    cases replay the particles in every priority order."""
    b = _bounds(bounds)
    queues = _sweep_queues(b, seed)
    order_sample = set(random.Random(seed + 1).sample(range(len(queues)), min(len(queues), 60)))
    cases = [
        {"queue": q, "all_orders": idx in order_sample, "order_seed": (seed + 1) * 1_000_003 + idx}
        for idx, q in enumerate(queues)
    ]
    return _run("projection-consistency", {"bounds": b, "seed": seed}, [(check_projection_routes, cases)])


@_check(
    "law-mismatch", "law-support",
    fields={"model": _MODEL, "lambda": _PARTS, "n": _INT, "x": _RATES_OR_NONE},
    units=lambda case: model_size(case["model"], case["lambda"], case["n"]),
)
def check_stationary_law(case: dict) -> list:
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
    return _run(f"stationary-{model}", parameters, [(check_stationary_law, cases)])


def suite_stationary_tasep(lam: Sequence[int] = (2, 1), n: int = 3) -> SuiteReport:
    """Exclusion-process stationary law equals projection fiber counting.

    ``lam`` is the queue shape; the exclusion process runs on words whose
    content is the conjugate partition.
    """
    lam = tuple(sorted(map(int, lam), reverse=True))
    parameters = {"lambda": list(lam), "n": n, "queues": count_queues(lam, n, "fermionic")}
    return _law_suite("tasep", [(lam, n, None)], parameters)


def suite_stationary_tazrp(lam: Sequence[int] = (2, 1), n: int = 3, x: RateParams | None = None) -> SuiteReport:
    """Zero-range stationary law equals the weighted projection fiber sums."""
    lam = tuple(sorted(map(int, lam), reverse=True))
    x = x or RateParams.ones(n)
    return _law_suite("tazrp", [(lam, n, x)], {"lambda": list(lam), "n": n, "x": [str(v) for v in x]})


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
    grid = [(lam, n, RateParams(tuple(Fraction(v) for v in xs[:n]))) for lam, n in TAZRP_GRID for xs in TAZRP_X]
    return _law_suite("tazrp", grid, {"grid": [[list(lam), n] for lam, n in TAZRP_GRID], "x": TAZRP_X})


@_check("ring-inverse", fields={"queue": _FERMIONIC, "site": _INT})
def check_ring_inverse(case: dict) -> list:
    """Fermionic forward and reverse ringing at a site are mutual inverses."""
    q, i = case["queue"], case["site"]
    if ring_reverse(*ring_forward(q, i)) != (q, i) or ring_forward(*ring_reverse(q, i)) != (q, i):
        return [_witness("ring-inverse", case)]
    return []


@_check("ring-inverse-bosonic", "ring-weight", fields={"queue": _BOSONIC, "site": _INT})
def check_ring_bosonic(case: dict) -> list:
    """Bosonic ringing is inverted by reverse ringing and moves one unit of
    weight from the entry site to the site after the exit."""
    d, i = case["queue"], case["site"]
    found = []
    img, exit_site, _ = ring_forward_bosonic(d, i)
    back, back_site, _ = ring_reverse_bosonic(img, exit_site)
    fwd_of_rev = ring_forward_bosonic(*ring_reverse_bosonic(d, i)[:2])
    if (back, back_site) != (d, i) or fwd_of_rev[:2] != (d, i):
        found.append(_witness("ring-inverse-bosonic", case))
    want = list(d.weight())
    want[_wrap(exit_site + 1, d.n) - 1] += 1
    want[i - 1] -= 1
    if list(img.weight()) != want:
        found.append(_witness("ring-weight", case))
    return found


@_check("chain-projection", fields={"queue": _BOSONIC, "x": _RATES})
def check_chain_projection(case: dict) -> list:
    """Ringing moves out of a bosonic queue project onto the zero-range moves (and rates) out of its projection."""
    d, x = case["queue"], case["x"]
    tau = project(d)
    zr_rates: dict = {}
    for target, rate in tazrp_transitions(tau, x):
        zr_rates[target] = zr_rates.get(target, Fraction(0)) + rate
    mlq_rates: dict = {}
    for site in range(1, d.n + 1):
        img, _, rate = ring_forward_bosonic(d, site, x)
        if img == d:
            continue
        w = project(img)
        if w == tau:
            continue
        mlq_rates[w] = mlq_rates.get(w, Fraction(0)) + rate
    if zr_rates != mlq_rates:
        zr, mlq = ({str(k): str(v) for k, v in rates.items()} for rates in (zr_rates, mlq_rates))
        return [_witness("chain-projection", case, zr=zr, mlq=mlq)]
    return []


@_check("twist-forward-commute", "twist-reverse-commute", fields={"queue": _BOSONIC, "m": _INT, "site": _INT})
def check_twist_commute(case: dict) -> list:
    """Twisting rows m, m+1 commutes with forward and with reverse ringing."""
    d, m, i = case["queue"], case["m"], case["site"]
    td = twist(d, m)
    found = []
    if twist(ring_forward_bosonic(d, i)[0], m) != ring_forward_bosonic(td, i)[0]:
        found.append(_witness("twist-forward-commute", case))
    if twist(ring_reverse_bosonic(d, i)[0], m) != ring_reverse_bosonic(td, i)[0]:
        found.append(_witness("twist-reverse-commute", case))
    return found


@_check("ringing-projection-counterexample", fields={"queue": _FERMIONIC})
def check_ringing_projection(case: dict) -> list:
    """The first site where ringing moves a fermionic queue's projection more
    than one exclusion step: the expected finding on twisted queues."""
    q = case["queue"]
    w = project(q)
    neighbours = {t for t, _ in tasep_transitions(w)}
    for i in range(1, q.n + 1):
        img, _ = ring_forward(q, i)
        if img == q:
            continue
        w2 = project(img)
        if w2 != w and w2 not in neighbours:
            return [_witness("ringing-projection-counterexample", case, site=i, word=w, image_word=w2)]
    return []


def find_ringing_counterexample(max_n: int = 4, max_k: int = 4) -> dict | None:
    """Search twisted fermionic queues for a ringing move whose projection is
    not a single exclusion-process transition away.  Returns a witness or None."""
    for n in range(2, max_n + 1):
        for k in range(2, max_k + 1):
            for alpha in itertools.product(range(n + 1), repeat=k):
                if all(a >= b for a, b in zip(alpha, alpha[1:])):
                    continue  # straight shapes project; skip
                for q in enumerate_queues(alpha, n, "fermionic"):
                    found = check_ringing_projection.run({"queue": q})
                    if found:
                        return found[0]
    return None


def _search_witnesses(case: dict, counterexample: dict | None) -> list:
    if counterexample is None:
        return [_witness("ringing-counterexample", case, detail="no witness found in the search box")]
    return []


@_check("ringing-counterexample", fields={"max_n": _INT, "max_k": _INT})
def check_ringing_search(case: dict) -> list:
    """The counterexample search finds a witness within ``max_n`` sites and ``max_k`` rows."""
    return _search_witnesses(case, find_ringing_counterexample(case["max_n"], case["max_k"]))


def suite_ringing(bounds: dict | None = None, seed: int = 0) -> SuiteReport:
    """Ringing-path identities: inverses, weights, stationarity, projection,
    twist commutation, and the twisted-fermionic counterexample search."""
    _bounds(bounds)
    search = {"max_n": 4, "max_k": 4}
    counterexample = find_ringing_counterexample(**search)  # one search serves the check and the parameters
    rng = random.Random(seed)
    x = RateParams((Fraction(1), Fraction(2), Fraction(3)))
    fermionic = ((q, n) for lam in ((1,), (2, 1), (2, 2, 1)) for n in range(max(2, lam[0]), 5)
                 for q in enumerate_queues(lam, n, "fermionic"))
    bosonic = (_random_queue(rng, "bosonic", 5, 4, 3) for _ in range(500))  # lazy: each queue, then its site
    parts = [
        (check_ring_inverse, ({"queue": q, "site": i} for q, n in fermionic for i in range(1, n + 1))),
        (check_ring_bosonic, ({"queue": d, "site": rng.randint(1, d.n)} for d in bosonic)),
        (check_stationary_law, [{"model": "mlq-bosonic", "lambda": (2, 1), "n": 3, "x": x}]),
        (check_chain_projection, ({"queue": d, "x": x} for alpha in ((2, 1), (1, 2))
                                  for d in enumerate_queues(alpha, 3, "bosonic"))),
        (check_twist_commute, ({"queue": d, "m": m, "site": i} for d in _exhaustive_queues("bosonic", 3, 3, 2)
                               for m in range(1, d.k) for i in range(1, d.n + 1))),
        (replace(check_ringing_search, run=lambda case: _search_witnesses(case, counterexample)), [search]),
    ]
    return _run("ringing", {"seed": seed, "counterexample": counterexample}, parts)


# name -> suite(bounds, seed), in the order suite_all runs them
SUITES: dict[str, Callable[[dict | None, int], SuiteReport]] = {
    "r-invariance": suite_r_invariance,
    "projection": suite_phi_equals_ctm,
    "stationary-tasep": _suite_tasep_grid,
    "stationary-tazrp": _suite_tazrp_grid,
    "ringing": suite_ringing,
}


def suite_all(config: dict | None = None) -> SuiteReport:
    """Run every suite in ``SUITES`` at desk-scale defaults and merge the reports."""
    config = config or {}
    seed = config.get("seed", 0)
    bounds = config.get("bounds")
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
