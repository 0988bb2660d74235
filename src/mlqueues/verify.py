"""Verification suites: bounded exhaustive sweeps plus seeded random cases.

Each suite certifies one family of identities by brute force at desk scale
and reports pass/fail with replayable witnesses.  Suites exhaust the smallest
nontrivial parameter box first, then sample larger instances from a seeded
generator, so every run is deterministic given (bounds, seed).  Case
evaluation is pure, so cases may be spread over a small thread pool (capped
by the MLQ_THREADS environment variable); failures merge back in case order,
making reports identical regardless of scheduling.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .markov import (
    RateParams,
    conjugate,
    mlq_chain,
    ring_forward,
    ring_forward_bosonic,
    ring_reverse,
    ring_reverse_bosonic,
    stationary_exact,
    tasep_chain,
    tasep_transitions,
    tazrp_chain,
    tazrp_transitions,
)
from .mlq import BosonicMLQ, FermionicMLQ, MLQ, enumerate_queues, twist
from .projection import (
    apply_row_particlewise,
    canonical_order_bosonic,
    canonical_order_fermionic,
    ctm_components,
    ctm_project,
    ferrari_martin,
    label_trace,
    project,
)
from .words import BosonicWord, FermionicWord


def worker_count() -> int:
    env = os.environ.get("MLQ_THREADS")
    if env:
        return max(1, int(env))
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


def _run_cases(suite: str, parameters: dict, cases: Sequence, check: Callable) -> SuiteReport:
    """Evaluate ``check`` over ``cases``, merging failures by case index.

    The merge order is independent of the worker count, so reports are
    identical whatever MLQ_THREADS says.
    """
    start = time.perf_counter()
    workers = min(worker_count(), max(1, len(cases)))
    found: list[tuple[int, dict]] = []
    if workers == 1 or len(cases) < 64:
        for idx, case in enumerate(cases):
            w = check(case)
            if w is not None:
                found.append((idx, w))
    else:
        indexed = list(enumerate(cases))
        blocks = [indexed[i::workers] for i in range(workers)]

        def run_block(block):
            return [(idx, w) for idx, case in block for w in (check(case),) if w is not None]

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for got in pool.map(run_block, blocks):
                found.extend(got)
    failures = [w for _, w in sorted(found, key=lambda iw: iw[0])]
    return SuiteReport(suite, parameters, len(cases), failures, time.perf_counter() - start)


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


def _bounds(overrides: dict | None) -> dict:
    b = dict(DEFAULT_BOUNDS)
    if overrides:
        unknown = set(overrides) - set(b)
        if unknown:
            raise ValueError(f"unknown bound keys: {sorted(unknown)}")
        b.update(overrides)
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
    cls = FermionicMLQ if kind == "fermionic" else BosonicMLQ
    return cls(n, tuple(rows))


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


def _queue_doc(q: MLQ) -> dict:
    return {
        "kind": "fermionic" if isinstance(q, FermionicMLQ) else "bosonic",
        "n": q.n,
        "rows": [list(r) for r in q.rows],
    }


def _word_doc(w) -> dict:
    if isinstance(w, FermionicWord):
        return {"kind": "fermionic_word", "n": w.n, "letters": list(w.letters)}
    return {"kind": "bosonic_word", "n": w.n, "sites": [list(s) for s in w.sites]}


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_r_invariance(bounds: dict | None = None, seed: int = 0) -> SuiteReport:
    """Projection is unchanged by every row twist."""
    b = _bounds(bounds)
    queues = _sweep_queues(b, seed)

    def check(q: MLQ):
        base = project(q)
        for i in range(1, q.k):
            other = project(twist(q, i))
            if other != base:
                return {
                    "check": "twist-invariance",
                    "queue": _queue_doc(q),
                    "i": i,
                    "expected": _word_doc(base),
                    "got": _word_doc(other),
                }
        return None

    return _run_cases("r-invariance", {"bounds": b, "seed": seed}, queues, check)


def suite_phi_equals_ctm(bounds: dict | None = None, seed: int = 0) -> SuiteReport:
    """All projection routes agree: row fold, corner-transfer reading,
    straight-queue label passing, one-particle-at-a-time replay, plus the
    component relabelling identity under a twist and the content law."""
    b = _bounds(bounds)
    queues = _sweep_queues(b, seed)
    order_sample = set(random.Random(seed + 1).sample(range(len(queues)), min(len(queues), 60)))

    def check(item):
        idx, q = item
        w = project(q)
        if ctm_project(q) != w:
            return {"check": "fold-vs-ctm", "queue": _queue_doc(q), "fold": _word_doc(w), "ctm": _word_doc(ctm_project(q))}
        lam = tuple(sorted(q.shape, reverse=True))
        for j in range(1, q.k + 1):
            if sum(w.layer(j)) != lam[j - 1]:
                return {"check": "content-law", "queue": _queue_doc(q), "layer": j}
        if q.is_straight and ferrari_martin(q) != w:
            return {"check": "fold-vs-label-passing", "queue": _queue_doc(q)}
        before = ctm_components(q)
        for i in range(1, q.k):
            after = ctm_components(twist(q, i))
            perm = list(range(q.k))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            if after != [before[p] for p in perm]:
                return {"check": "component-swap", "queue": _queue_doc(q), "i": i}
        case_rng = random.Random((seed + 1) * 1_000_003 + idx)
        if _particlewise_mismatch(q, idx in order_sample, case_rng):
            return {"check": "particlewise", "queue": _queue_doc(q)}
        return None

    return _run_cases(
        "projection-consistency", {"bounds": b, "seed": seed}, list(enumerate(queues)), check
    )


def _priority_orders_fermionic(word: FermionicWord):
    by_label: dict[int, list[int]] = {}
    for j in word.support():
        by_label.setdefault(word.letters[j - 1], []).append(j)
    classes = [by_label[a] for a in sorted(by_label, reverse=True)]
    for perms in itertools.product(*[itertools.permutations(c) for c in classes]):
        yield tuple(j for block in perms for j in block)


def _priority_orders_bosonic(word: BosonicWord):
    by_label: dict[int, list[tuple[int, int]]] = {}
    for j in range(1, word.n + 1):
        for a in word.sites[j - 1]:
            by_label.setdefault(a, []).append((j, a))
    classes = [by_label[a] for a in sorted(by_label, reverse=True)]
    for perms in itertools.product(*[itertools.permutations(c) for c in classes]):
        yield tuple(p for block in perms for p in block)


def _particlewise_mismatch(q: MLQ, all_orders: bool, rng: random.Random) -> bool:
    """Replay the projection fold with the queueing formulation of the row op."""
    fermionic = isinstance(q, FermionicMLQ)
    word = FermionicWord((0,) * q.n) if fermionic else BosonicWord(((),) * q.n)
    trace = label_trace(q)
    for j in range(q.k, 0, -1):
        expected = trace[j - 1]
        got = apply_row_particlewise(q.rows[j - 1], j, word)
        if got != expected:
            return True
        if all_orders:
            n_particles = len(word.content())
            if n_particles <= 6:
                orders = _priority_orders_fermionic(word) if fermionic else _priority_orders_bosonic(word)
            else:
                orders = _random_orders(word, rng, 50)
            for order in orders:
                if apply_row_particlewise(q.rows[j - 1], j, word, order) != expected:
                    return True
        word = expected
    return False


def _random_orders(word, rng: random.Random, count: int):
    base = canonical_order_fermionic(word) if isinstance(word, FermionicWord) else canonical_order_bosonic(word)
    label_of = (lambda s: word.letters[s - 1]) if isinstance(word, FermionicWord) else (lambda p: p[1])
    for _ in range(count):
        order = list(base)
        # shuffle within equal-label runs
        start = 0
        for end in range(1, len(order) + 1):
            if end == len(order) or label_of(order[end]) != label_of(order[start]):
                chunk = order[start:end]
                rng.shuffle(chunk)
                order[start:end] = chunk
                start = end
        yield tuple(order)


def suite_stationary_tasep(lam: Sequence[int] = (2, 1), n: int = 3) -> SuiteReport:
    """Exclusion-process stationary law equals projection fiber counting.

    ``lam`` is the queue shape; the exclusion process runs on words whose
    content is the conjugate partition.
    """
    start = time.perf_counter()
    lam = tuple(sorted((int(p) for p in lam), reverse=True))
    fibers: dict = {}
    total = 0
    for q in enumerate_queues(lam, n, "fermionic"):
        w = project(q)
        fibers[w] = fibers.get(w, 0) + 1
        total += 1
    exact = stationary_exact(tasep_chain(conjugate(lam), n))
    failures = []
    for state in exact.probs:
        fiber = Fraction(fibers.get(state, 0), total)
        if fiber != exact[state]:
            failures.append(
                {"check": "fiber-count", "state": _word_doc(state), "fiber": str(fiber), "exact": str(exact[state])}
            )
    if sum(fibers.values()) != total or set(fibers) - set(exact.probs):
        failures.append({"check": "fiber-support", "detail": "projection image escapes the state space"})
    return SuiteReport(
        "stationary-tasep",
        {"lambda": list(lam), "n": n, "queues": total},
        len(exact.probs),
        failures,
        time.perf_counter() - start,
    )


def suite_stationary_tazrp(lam: Sequence[int] = (2, 1), n: int = 3, x: RateParams | None = None) -> SuiteReport:
    """Zero-range stationary law equals the weighted projection fiber sums."""
    start = time.perf_counter()
    lam = tuple(sorted((int(p) for p in lam), reverse=True))
    x = x or RateParams.ones(n)
    fiber_weight: dict = {}
    z = Fraction(0)
    for d in enumerate_queues(lam, n, "bosonic"):
        w = project(d)
        wt = d.weight().evaluate(x.x)
        fiber_weight[w] = fiber_weight.get(w, Fraction(0)) + wt
        z += wt
    exact = stationary_exact(tazrp_chain(conjugate(lam), n, x))
    failures = []
    for state in exact.probs:
        fiber = fiber_weight.get(state, Fraction(0)) / z
        if fiber != exact[state]:
            failures.append(
                {"check": "fiber-weight", "state": _word_doc(state), "fiber": str(fiber), "exact": str(exact[state])}
            )
    if set(fiber_weight) - set(exact.probs):
        failures.append({"check": "fiber-support", "detail": "projection image escapes the state space"})
    return SuiteReport(
        "stationary-tazrp",
        {"lambda": list(lam), "n": n, "x": [str(v) for v in x.x]},
        len(exact.probs),
        failures,
        time.perf_counter() - start,
    )


def _wrap(site: int, n: int) -> int:
    return (site - 1) % n + 1


def suite_ringing(bounds: dict | None = None, seed: int = 0) -> SuiteReport:
    """Ringing-path identities: inverses, weights, stationarity, projection,
    twist commutation, and the twisted-fermionic counterexample search."""
    start = time.perf_counter()
    failures: list = []
    cases = 0
    rng = random.Random(seed)

    # mutual inverses, fermionic, exhaustive
    for lam in ((1,), (2, 1), (2, 2, 1)):
        for n in range(max(2, lam[0]), 5):
            for q in enumerate_queues(lam, n, "fermionic"):
                for i in range(1, n + 1):
                    cases += 1
                    if ring_reverse(*ring_forward(q, i)) != (q, i) or ring_forward(*ring_reverse(q, i)) != (q, i):
                        failures.append({"check": "ring-inverse", "queue": _queue_doc(q), "site": i})

    # mutual inverses and weight identity, bosonic, randomized
    for _ in range(500):
        d = _random_queue(rng, "bosonic", 5, 4, 3)
        i = rng.randint(1, d.n)
        cases += 1
        img, exit_site, _ = ring_forward_bosonic(d, i)
        back, back_site, _ = ring_reverse_bosonic(img, exit_site)
        fwd_of_rev = ring_forward_bosonic(*ring_reverse_bosonic(d, i)[:2])
        if (back, back_site) != (d, i) or fwd_of_rev[:2] != (d, i):
            failures.append({"check": "ring-inverse-bosonic", "queue": _queue_doc(d), "site": i})
        want = list(d.weight().exponents)
        want[_wrap(exit_site + 1, d.n) - 1] += 1
        want[i - 1] -= 1
        if list(img.weight().exponents) != want:
            failures.append({"check": "ring-weight", "queue": _queue_doc(d), "site": i})

    # stationarity of the weight monomials on the bosonic chain
    x = RateParams((Fraction(1), Fraction(2), Fraction(3)))
    chain = mlq_chain("bosonic", (2, 1), 3, x)
    weights = {s: s.weight().evaluate(x.x) for s in chain.states}
    out_flux, in_flux = chain.flux([weights[s] for s in chain.states])
    for state, out_f, in_f in zip(chain.states, out_flux, in_flux):
        cases += 1
        if out_f != in_f:
            failures.append({"check": "weight-balance", "state": _queue_doc(state)})
    total_w = sum(weights.values())
    exact = stationary_exact(chain)
    if any(exact[s] != weights[s] / total_w for s in chain.states):
        failures.append({"check": "weight-stationary", "detail": "exact law differs from normalized weights"})

    # chain projection onto the zero-range process, straight and twisted
    for alpha in ((2, 1), (1, 2)):
        f = _projection_identity_failures(alpha, 3, x)
        cases += f.pop("cases")
        failures.extend(f["failures"])

    # twists commute with both ringing maps
    for d in _exhaustive_queues("bosonic", 3, 3, 2):
        for m in range(1, d.k):
            for i in range(1, d.n + 1):
                cases += 1
                td = twist(d, m)
                if twist(ring_forward_bosonic(d, i)[0], m) != ring_forward_bosonic(td, i)[0]:
                    failures.append({"check": "twist-forward-commute", "queue": _queue_doc(d), "m": m, "site": i})
                if twist(ring_reverse_bosonic(d, i)[0], m) != ring_reverse_bosonic(td, i)[0]:
                    failures.append({"check": "twist-reverse-commute", "queue": _queue_doc(d), "m": m, "site": i})

    # a twisted fermionic queue whose ringing does not project
    witness = find_ringing_counterexample(4, 4)
    cases += 1
    if witness is None:
        failures.append({"check": "ringing-counterexample", "detail": "no witness found in the search box"})

    params = {"seed": seed, "counterexample": witness}
    return SuiteReport("ringing", params, cases, failures, time.perf_counter() - start)


def _projection_identity_failures(alpha: Sequence[int], n: int, x: RateParams) -> dict:
    """Transition-by-transition projection check for the bosonic ringing chain."""
    failures = []
    cases = 0
    for d in enumerate_queues(alpha, n, "bosonic"):
        cases += 1
        tau = project(d)
        zr_rates: dict = {}
        for target, rate in tazrp_transitions(tau, x):
            zr_rates[target] = zr_rates.get(target, Fraction(0)) + rate
        mlq_rates: dict = {}
        for site in range(1, n + 1):
            img, _, rate = ring_forward_bosonic(d, site, x)
            if img == d:
                continue
            w = project(img)
            if w == tau:
                continue
            mlq_rates[w] = mlq_rates.get(w, Fraction(0)) + rate
        if zr_rates != mlq_rates:
            failures.append(
                {
                    "check": "chain-projection",
                    "queue": _queue_doc(d),
                    "zr": {str(k): str(v) for k, v in zr_rates.items()},
                    "mlq": {str(k): str(v) for k, v in mlq_rates.items()},
                }
            )
    return {"cases": cases, "failures": failures}


def find_ringing_counterexample(max_n: int = 4, max_k: int = 4) -> dict | None:
    """Search twisted fermionic queues for a ringing move whose projection is
    not a single exclusion-process transition away.  Returns a witness or None."""
    for n in range(2, max_n + 1):
        for k in range(2, max_k + 1):
            for alpha in itertools.product(range(n + 1), repeat=k):
                if all(a >= b for a, b in zip(alpha, alpha[1:])):
                    continue  # straight shapes project; skip
                for q in enumerate_queues(alpha, n, "fermionic"):
                    w = project(q)
                    neighbours = {t for t, _ in tasep_transitions(w)}
                    for i in range(1, n + 1):
                        img, _ = ring_forward(q, i)
                        if img == q:
                            continue
                        w2 = project(img)
                        if w2 != w and w2 not in neighbours:
                            return {
                                "check": "ringing-projection-counterexample",
                                "queue": _queue_doc(q),
                                "site": i,
                                "word": _word_doc(w),
                                "image_word": _word_doc(w2),
                            }
    return None


def replay_witness(witness: dict) -> bool:
    """Re-run the check a witness came from; True iff the finding reproduces."""
    from . import documents

    check = witness.get("check")
    if check == "ringing-projection-counterexample":
        q = documents.parse_queue(witness["queue"])
        w = project(q)
        img, _ = ring_forward(q, witness["site"])
        w2 = project(img)
        neighbours = {t for t, _ in tasep_transitions(w)}
        return (
            w == documents.parse_word(witness["word"])
            and w2 == documents.parse_word(witness["image_word"])
            and w2 != w
            and w2 not in neighbours
        )
    if check == "twist-invariance":
        q = documents.parse_queue(witness["queue"])
        return project(twist(q, witness["i"])) != project(q)
    if check == "fold-vs-ctm":
        q = documents.parse_queue(witness["queue"])
        return ctm_project(q) != project(q)
    if check == "fold-vs-label-passing":
        q = documents.parse_queue(witness["queue"])
        return ferrari_martin(q) != project(q)
    if check == "particlewise":
        q = documents.parse_queue(witness["queue"])
        return _particlewise_mismatch(q, True, random.Random(0))
    if check == "content-law":
        q = documents.parse_queue(witness["queue"])
        j = witness["layer"]
        return sum(project(q).layer(j)) != sorted(q.shape, reverse=True)[j - 1]
    if check == "component-swap":
        q = documents.parse_queue(witness["queue"])
        i = witness["i"]
        before = ctm_components(q)
        after = ctm_components(twist(q, i))
        perm = list(range(q.k))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return after != [before[p] for p in perm]
    raise ValueError(f"no replay rule for witness kind {check!r}")


TASEP_GRID = [((2, 1), 3), ((2, 1), 4), ((2, 1), 5), ((2, 2), 3), ((2, 2), 4), ((2, 2), 5),
              ((3, 1), 3), ((3, 1), 4), ((3, 1), 5), ((2, 1, 1), 3), ((2, 1, 1), 4), ((2, 1, 1), 5)]
TAZRP_GRID = [((2, 1), 2), ((2, 1), 3), ((2, 2), 2), ((2, 2), 3)]
TAZRP_X = [(1, 1, 1), (1, 2, 3), (2, 3, 5)]


def suite_all(config: dict | None = None) -> SuiteReport:
    """Run every suite at desk-scale defaults and merge the reports."""
    config = config or {}
    seed = config.get("seed", 0)
    bounds = config.get("bounds")
    start = time.perf_counter()
    reports = [
        suite_r_invariance(bounds, seed),
        suite_phi_equals_ctm(bounds, seed),
    ]
    for lam, n in TASEP_GRID:
        reports.append(suite_stationary_tasep(lam, n))
    for lam, n in TAZRP_GRID:
        for xs in TAZRP_X:
            reports.append(suite_stationary_tazrp(lam, n, RateParams(tuple(Fraction(v) for v in xs[:n]))))
    reports.append(suite_ringing(bounds, seed))
    failures = [f for r in reports for f in r.failures]
    return SuiteReport(
        "all",
        {"seed": seed, "suites": [{r.suite: ("pass" if r.passed else "fail")} for r in reports]},
        sum(r.cases for r in reports),
        failures,
        time.perf_counter() - start,
    )
