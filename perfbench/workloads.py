"""The three benchmark workloads: set-up and one closed-loop pass each.

Each workload is a pair ``(setup, run_pass)``.  ``setup(seed, quick)``
imports the package and builds the inputs; the benchmark times it as
``setup_s``.  ``run_pass(inputs)`` makes every call of one pass, one after
another from a single client, checks every output, and returns a
:class:`Pass`.  ``quick`` selects reduced inputs for a fast smoke run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, perf_counter_ns


@dataclass
class Pass:
    wall_s: float
    checks: int = 0
    failures: list = field(default_factory=list)  # one line per failed check
    known_defects: list = field(default_factory=list)  # disclosed failures, see KNOWN_DEFECTS
    digest: str = ""  # hash of every output the pass checked
    samples_ns: array = field(default_factory=lambda: array("q"))  # latency of each call, in call order
    cases: int = 0  # units of work the pass completed
    suites: dict = field(default_factory=dict)  # verify suite -> (wall s, cases)
    trace: tuple | None = None  # tracer snapshot of a traced pass


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


# ---------------------------------------------------------------------------
# verify-sweep: the three sweep suites at default bounds
# ---------------------------------------------------------------------------

# Suites at DEFAULT_BOUNDS; the case counts do not depend on the seed.
VERIFY_SUITES = (
    ("r-invariance", "suite_r_invariance", 6704),
    ("projection", "suite_phi_equals_ctm", 6704),
    ("ringing", "suite_ringing", 8671),
)
VERIFY_QUICK_BOUNDS = {
    "fermionic_max_n": 3,
    "fermionic_max_k": 2,
    "bosonic_max_n": 2,
    "bosonic_max_k": 2,
    "random_cases": 100,
}
VERIFY_QUICK_CASES = {"r-invariance": 252, "projection": 252, "ringing": 8671}


def setup_verify(seed: int, quick: bool):
    from mlqueues import verify

    bounds = dict(VERIFY_QUICK_BOUNDS) if quick else None
    expected = VERIFY_QUICK_CASES if quick else {name: cases for name, _, cases in VERIFY_SUITES}
    return verify, bounds, seed, expected


def pass_verify(inputs) -> Pass:
    verify, bounds, seed, expected = inputs
    out = Pass(0.0)
    outputs = []
    start = perf_counter()
    for name, fn_name, _ in VERIFY_SUITES:
        t0 = perf_counter_ns()
        report = getattr(verify, fn_name)(bounds, seed)
        dt = perf_counter_ns() - t0
        out.samples_ns.append(dt)
        out.suites[name] = (dt / 1e9, report.cases)
        out.cases += report.cases
        out.checks += 1
        if not report.passed or report.cases != expected[name]:
            out.failures.append(
                f"suite {name}: pass={report.passed} cases={report.cases} (want {expected[name]}), "
                f"{len(report.failures)} witnesses"
            )
        outputs.append((name, report.cases, report.passed, report.failures))
    out.wall_s = perf_counter() - start
    out.digest = _digest(outputs)
    return out


# ---------------------------------------------------------------------------
# project-bulk: project(q) over four whole queue families
# ---------------------------------------------------------------------------

# (straight shape, twisted rearrangement, n, kind); 5145 + 5145 + 4000 + 4000 queues.
PROJECT_FAMILIES = (
    ((3, 2, 1), (1, 3, 2), 7, "fermionic"),
    ((2, 2, 2, 1), (1, 2, 2, 2), 4, "bosonic"),
)
PROJECT_QUICK_FAMILIES = (
    ((2, 1), (1, 2), 5, "fermionic"),
    ((2, 1), (1, 2), 3, "bosonic"),
)


def setup_project(seed: int, quick: bool):
    from mlqueues import count_queues, enumerate_queues, projection

    items = []
    expected = {}
    twins = []
    for straight, twisted, n, kind in PROJECT_QUICK_FAMILIES if quick else PROJECT_FAMILIES:
        twins.append(((straight, n, kind), (twisted, n, kind)))
        for shape in (straight, twisted):
            family = (shape, n, kind)
            expected[family] = count_queues(shape, n, kind)
            items.extend((family, q) for q in enumerate_queues(shape, n, kind))
    random.Random(seed).shuffle(items)
    return projection, items, expected, twins


def _content_law(word, shape) -> bool:
    """Layer j of the projection holds as many particles as the j-th largest row."""
    if hasattr(word, "letters"):
        labels = [a for a in word.letters if a]
    else:
        labels = [a for site in word.sites for a in site]
    lam = sorted(shape, reverse=True)
    return all(sum(1 for a in labels if a >= j) == lam[j - 1] for j in range(1, len(lam) + 1))


def pass_project(inputs) -> Pass:
    projection, items, expected, twins = inputs
    hist: dict = {family: {} for family in expected}
    samples = array("q")
    start = perf_counter()
    for family, q in items:
        t0 = perf_counter_ns()
        word = projection.project(q)
        samples.append(perf_counter_ns() - t0)
        h = hist[family]
        h[word] = h.get(word, 0) + 1
    out = Pass(perf_counter() - start, samples_ns=samples, cases=len(items))

    for family, h in hist.items():
        shape, n, kind = family
        out.checks += 1
        bad = [w for w in h if not _content_law(w, shape)]
        if bad or sum(h.values()) != expected[family]:
            out.failures.append(f"{kind} {shape} n={n}: {len(bad)} words break the content law")
    for straight, twisted in twins:
        out.checks += 1
        if hist[straight] != hist[twisted]:
            out.failures.append(f"fiber histograms of {straight} and {twisted} differ")
    out.digest = _digest(sorted((str(f), sorted((str(w), c) for w, c in h.items())) for f, h in hist.items()))
    return out


# ---------------------------------------------------------------------------
# stationary: `mlq stationary` end to end, exact vs fiber route, and one MC run
# ---------------------------------------------------------------------------

# (model, lambda, n, x): each runs with --method exact and --method mlq.
STATIONARY_CHAINS = (
    ("tasep", "3,2,1", 6, None),  # 120 states: the dense-solve cliff
    ("tasep", "2,1", 10, None),  # 90 states out of 10! permutations
    ("tazrp", "2,2,1", 4, "1,2,3,5"),
    ("mlq-bosonic", "2,1", 5, "1,2,3,5,7"),
    ("ktazrp", "2,2,1", 4, None),
)
STATIONARY_QUICK_CHAINS = (
    ("tasep", "2,1", 5, None),
    ("tazrp", "2,1", 3, "1,2,3"),
    ("mlq-bosonic", "2,1", 3, "1,2,3"),
    ("ktazrp", "2,2,1", 4, None),
)
MC_JUMPS, MC_QUICK_JUMPS, MC_TV_LIMIT = 200_000, 50_000, 0.03

# Known route disagreement, kept visible rather than dropped: the block-hopping
# chain's exact law and its fiber law differ on 32 of 40 states for content
# (2,2,1) on 4 sites, e.g. state (-,-,1,22) has 3/80 exact but 3/100 by fibers.
# The pass reports it as a known defect while both outputs are exactly these
# laws (pinned by digest); a fix (routes agree) passes, any other output fails.
KNOWN_DEFECTS = {
    ("ktazrp", "2,2,1", 4): (
        "ktazrp 2,2,1 n=4: exact and fiber laws disagree on 32 of 40 states",
        "40a835c10b28678830ffe61f24a3673039691eb04e8f27bc1371a7d8cdfe202b",
    ),
}


def _argv(model, lam, n, x, method):
    argv = ["stationary", "--model", model, "--lambda", lam, "--n", str(n), "--method", method]
    return argv + ["--x", x] if x else argv


def setup_stationary(seed: int, quick: bool):
    from mlqueues import cli

    chains = STATIONARY_QUICK_CHAINS if quick else STATIONARY_CHAINS
    calls = [(chain, method, _argv(*chain, method)) for chain in chains for method in ("exact", "mlq")]
    mc_chain = chains[0]
    mc_argv = _argv(*mc_chain, "mc") + ["--seed", str(seed), "--jumps", str(MC_QUICK_JUMPS if quick else MC_JUMPS)]
    calls.append((mc_chain, "mc", mc_argv))
    return cli, calls


def _law(doc) -> dict:
    return {json.dumps(e["state"], sort_keys=True): Fraction(e["prob"]) for e in doc["entries"]}


def _law_digest(exact: dict, fiber: dict) -> str:
    return _digest([sorted((k, str(v)) for k, v in law.items()) for law in (exact, fiber)])


def pass_stationary(inputs) -> Pass:
    cli, calls = inputs
    docs = {}
    out = Pass(0.0)
    start = perf_counter()
    for chain, method, argv in calls:
        buf = io.StringIO()
        t0 = perf_counter_ns()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out.samples_ns.append(perf_counter_ns() - t0)
        out.checks += 1
        if rc != 0:
            out.failures.append(f"exit {rc}: mlq {' '.join(argv)}")
            continue
        docs[chain, method] = json.loads(buf.getvalue())
    out.wall_s = perf_counter() - start
    out.cases = len(calls)

    for chain in dict.fromkeys(c for c, _, _ in calls):
        model, lam, n, _ = chain
        out.checks += 1
        exact, fiber = docs.get((chain, "exact")), docs.get((chain, "mlq"))
        if exact is None or fiber is None:
            out.failures.append(f"{model} {lam} n={n}: a route did not run")
        elif exact != fiber:
            label, digest = KNOWN_DEFECTS.get((model, lam, n), (None, None))
            if label and _law_digest(_law(exact), _law(fiber)) == digest:
                out.known_defects.append(label)
            else:
                out.failures.append(f"{model} {lam} n={n}: exact and fiber laws differ")

    mc_chain = calls[-1][0]
    out.checks += 1
    exact, mc = docs.get((mc_chain, "exact")), docs.get((mc_chain, "mc"))
    tv = None
    if exact is not None and mc is not None:
        e, m = _law(exact), _law(mc)
        tv = 0.5 * sum(abs(float(e.get(k, 0)) - float(m.get(k, 0))) for k in e.keys() | m.keys())
    if tv is None or not tv < MC_TV_LIMIT:
        out.failures.append(f"mc TV distance {tv} not below {MC_TV_LIMIT}")
    out.digest = _digest(sorted((str(k), v) for k, v in docs.items()))
    return out


WORKLOADS = {
    "verify-sweep": (setup_verify, pass_verify),
    "project-bulk": (setup_project, pass_project),
    "stationary": (setup_stationary, pass_stationary),
}
