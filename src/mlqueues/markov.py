"""Ring particle processes, ringing-path dynamics, and exact stationary laws.

Everything here is exact: rates are rationals, and the stationary law is one
null vector of the transposed generator mod p, checked by one certificate.
The generator rows are built mod p straight from the transitions, one
``{column: residue}`` dict per state, and eliminated on plain ints with
Markowitz pivots: the shortest active row pivots next, on its column shared by
the fewest active rows (ties by index), which keeps fill-in low on ring chains.
Each entry of the null vector is lifted to a fraction by rational
reconstruction, and the normalized vector must pass :func:`certify_stationary`:
strictly positive, summing to exactly 1, and balanced state by state, from one
O(T) tally of flux over the T transitions.  The chain is checked irreducible
before any solve, so that law is unique, and the one certificate both decides
whether the next prime of a fixed Mersenne ladder is tried and certifies the
result; the solve raises past the last prime.  Floating point appears only in
the Monte-Carlo sampler.  ``MODELS`` is the one table of the ``mlq
stationary`` models and their move rules, read by :func:`model_chain`,
:func:`queue_law` and :func:`model_size`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Sequence

from .errors import ChainError, ShapeError
from .mlq import MLQ, BosonicMLQ, FermionicMLQ, RateParams, _site_values, count_queues, enumerate_queues
from .projection import fiber_law
from .words import BosonicWord, FermionicWord, Word, _built, _ints, _ring_size, _wrap

_ONE = Fraction(1)


@dataclass(frozen=True)
class ChainSpec:
    """A finite continuous-time chain: states plus exact-rate transitions.

    Parallel transitions between the same pair of states are kept as distinct
    entries; they are only merged inside the stationary solver.  Self-loops
    are rejected, they cannot affect stationarity.
    """

    states: tuple[Hashable, ...]
    transitions: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state keys")
        for src, dst, rate in self.transitions:
            if src == dst:
                raise ValueError("self-loop transitions are not allowed")
            if not 0 <= src < len(self.states) or not 0 <= dst < len(self.states):
                raise ValueError("transition endpoint out of range")
            if rate <= 0:
                raise ValueError("rates must be positive")

    def flux(self, weights: Sequence) -> tuple[list, list]:
        """Per-state total flux out and in under ``weights`` (indexed like
        ``states``), from one pass over the transitions."""
        out = [0] * len(self.states)
        into = [0] * len(self.states)
        for src, dst, rate in self.transitions:
            f = weights[src] * rate
            out[src] += f
            into[dst] += f
        return out, into


@dataclass(frozen=True)
class RationalDistribution:
    """Exact probability vector over an enumerated state space."""

    probs: dict

    def __post_init__(self):
        probs = {k: Fraction(v) for k, v in self.probs.items()}
        object.__setattr__(self, "probs", probs)
        if any(v < 0 for v in probs.values()):
            raise ValueError("negative probability")
        if sum(probs.values(), Fraction(0)) != 1:
            raise ValueError("probabilities must sum to exactly 1")

    def __getitem__(self, state) -> Fraction:
        return self.probs.get(state, Fraction(0))

    def items(self):
        return self.probs.items()


# ---------------------------------------------------------------------------
# state spaces
# ---------------------------------------------------------------------------


def conjugate(lam: Sequence[int]) -> tuple[int, ...]:
    """Conjugate partition (column lengths of the row diagram); every part
    must be positive."""
    lam = sorted(_ints(lam, "partition parts"), reverse=True)
    if not lam:
        return ()
    if lam[-1] < 1:
        raise ValueError("content partition must have positive parts")
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def _content(lam: Sequence[int], n: int, kind: str) -> tuple[int, ...]:
    """``lam`` sorted descending, once it is a valid content for ``kind`` words on ``n`` sites."""
    lam = tuple(sorted(_ints(lam, "content parts"), reverse=True))
    if not lam or lam[-1] < 1:
        raise ValueError("content partition must have positive parts")
    _ring_size(n)
    if kind not in ("fermionic", "bosonic"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "fermionic" and len(lam) > n:
        raise ValueError(f"cannot place {len(lam)} particles on {n} exclusion sites")
    return lam


def count_states(lam: Sequence[int], n: int, kind: str) -> int:
    """Closed-form size of :func:`enumerate_states`: a multinomial for
    ``fermionic``, a product of multiset counts (one per label value) for ``bosonic``."""
    lam = _content(lam, n, kind)
    mults = Counter(lam).values()
    if kind == "fermionic":
        total = math.factorial(n) // math.factorial(n - len(lam))
        return total // math.prod(math.factorial(m) for m in mults)
    return math.prod(math.comb(m + n - 1, m) for m in mults)


def enumerate_states(lam: Sequence[int], n: int, kind: str) -> list[Word]:
    """All ring words of ``kind`` with content ``lam``, in lexicographic order:
    of the letters, or of the per-site counts of each label, largest label first."""
    lam = _content(lam, n, kind)
    if kind == "fermionic":
        return [FermionicWord(p) for p in _multiset_permutations(lam + (0,) * (n - len(lam)))]
    values = sorted(set(lam), reverse=True)
    # descending site tuples are ascending per-site count vectors
    placements = [list(itertools.combinations_with_replacement(range(1, n + 1), lam.count(v)))[::-1] for v in values]
    return [BosonicWord.from_particles(n, [(j, v) for v, placed in zip(values, combo) for j in placed])
            for combo in itertools.product(*placements)]


def _multiset_permutations(letters: Sequence[int]):
    """Distinct permutations of ``letters`` in lexicographic order, by next-permutation."""
    a = sorted(letters)
    last = len(a) - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


# ---------------------------------------------------------------------------
# transition rules
# ---------------------------------------------------------------------------


def tasep_transitions(w: FermionicWord) -> list[tuple[FermionicWord, Fraction]]:
    """Adjacent swaps (b, a) -> (a, b) for a > b at every cyclic position, rate 1.

    Larger labels travel toward smaller site indices; the empty site counts as
    the letter 0.
    """
    out = []
    n = w.n
    for i in range(n):
        b, a = w.letters[i], w.letters[(i + 1) % n]
        if a > b:
            letters = list(w.letters)
            letters[i], letters[(i + 1) % n] = a, b
            out.append((FermionicWord(tuple(letters)), Fraction(1)))
    return out


def _block_hops(w: BosonicWord, top_only: bool) -> list[tuple[BosonicWord, int]]:
    """Each hop of a top block of a site one site right, with the site j it
    leaves: the top particle alone when ``top_only``, else every nonempty
    suffix of the site (stored ascending)."""
    out = []
    for j, site in enumerate(w.sites, 1):
        for take in range(1, (min(len(site), 1) if top_only else len(site)) + 1):
            sites = list(w.sites)
            sites[j - 1] = site[:-take]
            dst = _wrap(j + 1, w.n)
            sites[dst - 1] = tuple(sorted(sites[dst - 1] + site[-take:]))
            out.append((BosonicWord(tuple(sites)), j))
    return out


def tazrp_transitions(w: BosonicWord, x: RateParams | None) -> list[tuple[BosonicWord, Fraction]]:
    """The top particle of each occupied site hops one site right, rate 1/x_j
    (1 when ``x`` is None)."""
    x = _site_values(x, w.n)
    return [(target, _ONE if x is None else _ONE / x[j]) for target, j in _block_hops(w, True)]


def ktazrp_transitions(w: BosonicWord) -> list[tuple[BosonicWord, Fraction]]:
    """Any top block of a site hops right with rate 1.

    A block is a nonempty multiset Y from the site with min(Y) at least the
    largest label left behind: with the site stored ascending, a suffix of it.
    """
    return [(target, _ONE) for target, _ in _block_hops(w, False)]


def _build_chain(states: list, moves: Callable, x: RateParams | None) -> ChainSpec:
    """The chain on ``states`` whose transitions out of a state are
    ``moves(state, x)``, as (target, rate) pairs; self-loops are dropped."""
    index = {s: i for i, s in enumerate(states)}
    transitions = []
    for i, s in enumerate(states):
        for target, rate in moves(s, x):
            j = index[target]
            if j != i:
                transitions.append((i, j, rate))
    return ChainSpec(tuple(states), tuple(transitions))


# ---------------------------------------------------------------------------
# exact stationary distribution
# ---------------------------------------------------------------------------


def _strongly_connected(n_states: int, transitions) -> bool:
    fwd = defaultdict(list)
    bwd = defaultdict(list)
    for src, dst, _ in transitions:
        fwd[src].append(dst)
        bwd[dst].append(src)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return seen

    return len(reach(fwd)) == n_states and len(reach(bwd)) == n_states


def certify_stationary(chain: ChainSpec, probs: Sequence) -> bool:
    """Whether ``probs`` (indexed like ``chain.states``) is strictly positive,
    sums to exactly 1 and balances the flux out of and into every state.  On an
    irreducible chain, whose stationary law is unique, a vector that passes
    *is* that law; a vector of any other length than the states fails."""
    if len(probs) != len(chain.states) or any(p <= 0 for p in probs) or sum(probs) != 1:
        return False
    out_flux, in_flux = chain.flux(probs)
    return out_flux == in_flux


# The moduli of the stationary solve, in the order tried: Mersenne primes 2^e - 1.
_MODULI = tuple(2**e - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423))


def _law_mod(chain: ChainSpec, p: int) -> list[Fraction] | None:
    """The stationary law of ``chain``, solved over GF(p) and lifted, or None.

    The rows of the transposed generator are built mod p straight from the
    transitions, one residue per distinct rate.  Pivots follow the Markowitz
    rule: the shortest active row is eliminated next, on its column shared by
    the fewest active rows, ties broken by the lower index.  Back-substitution
    gives the null vector mod p with 1 at its free column; each entry is lifted
    to the unique fraction r/s with |r|, s <= sqrt(p/2) (Wang's rational
    reconstruction) and the vector is normalized.  Returns None when p divides
    a rate denominator, the null space mod p is not a line, an entry does not
    lift, or the lifted law fails :func:`certify_stationary`.
    """
    ns = len(chain.states)
    residues: dict[Fraction, int] = {}
    rows: list[dict] = [{} for _ in range(ns)]  # row i: rates into state i, minus the exit rate of i
    for src, dst, rate in chain.transitions:
        r = residues.get(rate)
        if r is None:
            q = Fraction(rate)
            if q.denominator % p == 0:
                return None
            r = residues[rate] = q.numerator * pow(q.denominator, -1, p) % p
        rows[dst][src] = (rows[dst].get(src, 0) + r) % p
        rows[src][src] = (rows[src].get(src, 0) - r) % p
    rows = [{c: v for c, v in row.items() if v} for row in rows]

    col_rows = defaultdict(set)  # column -> active rows with a nonzero entry there
    for i, row in enumerate(rows):
        for c in row:
            col_rows[c].add(i)
    active = set(range(ns))
    queue = [(len(row), i) for i, row in enumerate(rows)]  # lazy: stale keys are skipped
    heapq.heapify(queue)
    pivots = []  # (column, rest of its row scaled so the pivot entry is 1)
    while queue:
        length, i = heapq.heappop(queue)
        row = rows[i]
        if i not in active or length != len(row):
            continue
        active.discard(i)
        if not row:
            continue
        for c in row:
            col_rows[c].discard(i)
        c = min(row, key=lambda j: (len(col_rows[j]), j))
        inv = pow(row[c], -1, p)
        rest = {j: v * inv % p for j, v in row.items() if j != c}
        for k in col_rows.pop(c):
            other = rows[k]
            f = other.pop(c)
            for j, v in rest.items():
                o = other.get(j)
                if o is None:
                    other[j] = -f * v % p
                    col_rows[j].add(k)
                elif o := (o - f * v) % p:
                    other[j] = o
                else:
                    del other[j]
                    col_rows[j].discard(k)
            heapq.heappush(queue, (len(other), k))
        pivots.append((c, rest))
    if len(pivots) != ns - 1:  # the rows sum to zero, so the rank is at most ns - 1
        return None

    (free,) = set(range(ns)).difference(c for c, _ in pivots)
    v = [0] * ns
    v[free] = 1
    for c, rest in reversed(pivots):
        v[c] = -sum(val * v[j] for j, val in rest.items()) % p
    bound = math.isqrt(p // 2)
    lifted = [_rational(a, p, bound) for a in v]
    if None in lifted or not (total := sum(lifted)):  # the law of an irreducible chain has one sign
        return None
    probs = [q / total for q in lifted]
    return probs if certify_stationary(chain, probs) else None


def _rational(a: int, p: int, bound: int) -> Fraction | None:
    """The fraction r/s = ``a`` mod p with |r| <= ``bound`` and 0 < s <= ``bound``,
    or None; unique when 2 * bound**2 < p.  Wang's half extended Euclid."""
    r0, r1, s0, s1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def stationary_exact(chain: ChainSpec) -> RationalDistribution:
    """Exact stationary law: the null vector of the transposed generator,
    solved modulo each prime of ``_MODULI`` in turn (see :func:`_law_mod`)
    until one gives a law that passes :func:`certify_stationary`.

    Raises :class:`ChainError` when the chain is empty or not strongly
    connected (before any solve), and when no prime certifies a law.
    """
    ns = len(chain.states)
    if ns == 0:
        raise ChainError("empty chain")
    if not _strongly_connected(ns, chain.transitions):
        raise ChainError("chain is not irreducible")
    for p in _MODULI:
        probs = _law_mod(chain, p)
        if probs is not None:
            return RationalDistribution(dict(zip(chain.states, probs)))
    raise ChainError("no modulus certified the stationary law")


# ---------------------------------------------------------------------------
# ringing paths
# ---------------------------------------------------------------------------


def _ring_site(q: MLQ, kind: str, i: int) -> None:
    """The guard of every ringing map: ``q`` is of ``kind`` and i is one of its sites."""
    if q.kind != kind:
        raise ValueError(f"expected a {kind} queue, got a {q.kind} one")
    if type(i) is not int:
        raise ValueError(f"ringing site must be an integer, got {i!r}")
    if not 1 <= i <= q.n:
        raise IndexError(f"site {i} outside 1..{q.n}")


def _hop(row: tuple[int, ...], src: int, dst: int) -> tuple[int, ...]:
    """The ascending site tuple ``row`` with one particle moved from site
    ``src`` to site ``dst``: the one particle move of every ringing map."""
    k = row.index(src)
    return tuple(sorted(row[:k] + (dst,) + row[k + 1 :]))


def ring_forward(q: FermionicMLQ, i: int) -> tuple[FermionicMLQ, int]:
    """Forward ringing transition of a fermionic queue at site i, rate 1.

    The path enters each row, stays put on a particle and steps right past a
    hole; every particle the path lands on hops one site left when its left
    neighbour is free.
    """
    _ring_site(q, "fermionic", i)
    n = q.n
    a = i
    new_rows = []
    for row in q.rows:
        if a not in row:
            a = _wrap(a + 1, n)
        elif (left := _wrap(a - 1, n)) not in row:
            row = _hop(row, a, left)
        new_rows.append(row)
    return _built(FermionicMLQ, n=n, rows=tuple(new_rows)), a


def ring_reverse(q: FermionicMLQ, i: int) -> tuple[FermionicMLQ, int]:
    """Inverse of :func:`ring_forward`: descends the rows undoing the hops."""
    _ring_site(q, "fermionic", i)
    n = q.n
    c = i
    new_rows = list(q.rows)
    for j in range(q.k - 1, -1, -1):
        row = q.rows[j]
        left = _wrap(c - 1, n)
        if left not in row:
            c = left
        elif c not in row:
            new_rows[j] = _hop(row, left, c)
    return _built(FermionicMLQ, n=n, rows=tuple(new_rows)), c


def _column_empty(q: BosonicMLQ, i: int) -> bool:
    return all(i not in row for row in q.rows)


def ring_forward_bosonic(d: BosonicMLQ, i: int, x: RateParams | None = None) -> tuple[BosonicMLQ, int, Fraction]:
    """Forward ringing transition of a bosonic queue at site i.

    One particle hops right out of every occupied site the path visits; the
    path steps right exactly when it leaves an occupied site.  Returns the new
    queue, the exit site, and the rate (1 on an empty column or without ``x``,
    else 1/x_i).
    """
    _ring_site(d, "bosonic", i)
    n = d.n
    x = _site_values(x, n)
    a = i
    new_rows = []
    for row in d.rows:
        if a in row:
            row = _hop(row, a, _wrap(a + 1, n))
            a = _wrap(a + 1, n)
        new_rows.append(row)
    rate = _ONE if x is None or _column_empty(d, i) else _ONE / x[i]
    return _built(BosonicMLQ, n=n, rows=tuple(new_rows)), _wrap(a - 1, n), rate


def ring_reverse_bosonic(d: BosonicMLQ, i: int, x: RateParams | None = None) -> tuple[BosonicMLQ, int, Fraction]:
    """Inverse of :func:`ring_forward_bosonic`.

    The rate mirrors the forward rule through the time reversal: 1 when
    column i+1 is empty or ``x`` is None, else 1/x_{i+1}.
    """
    _ring_site(d, "bosonic", i)
    n = d.n
    x = _site_values(x, n)
    # path values b_L..b_0; b_j depends on row j+1
    b = [0] * (d.k + 1)
    b[d.k] = i
    for j in range(d.k - 1, -1, -1):
        above = d.rows[j]  # row j+1
        b[j] = _wrap(b[j + 1] - 1, n) if _wrap(b[j + 1] + 1, n) in above else b[j + 1]
    new_rows = []
    for row, dst in zip(d.rows, b[1:]):
        src = _wrap(dst + 1, n)
        new_rows.append(_hop(row, src, dst) if src in row else row)
    nxt = _wrap(i + 1, n)
    rate = _ONE if x is None or _column_empty(d, nxt) else _ONE / x[nxt]
    return _built(BosonicMLQ, n=n, rows=tuple(new_rows)), _wrap(b[0] + 1, n), rate


def ring(q: MLQ, i: int, x: RateParams | None = None, reverse: bool = False) -> tuple[MLQ, int, Fraction]:
    """One ringing step of ``q`` at site i, forward or (``reverse``) back:
    the new queue, the exit site and the rate.  A fermionic queue rings by
    :func:`ring_forward` or :func:`ring_reverse` at rate 1 and takes no ``x``;
    a bosonic one by :func:`ring_forward_bosonic` or :func:`ring_reverse_bosonic`."""
    if q.kind == "bosonic":
        return (ring_reverse_bosonic if reverse else ring_forward_bosonic)(q, i, x)
    if x is not None:
        raise ValueError("fermionic ringing takes no site rates x: its rates are all 1")
    return *(ring_reverse if reverse else ring_forward)(q, i), _ONE


def _ringing_moves(q: MLQ, x: RateParams | None) -> list[tuple[MLQ, Fraction]]:
    """One :func:`ring` of ``q`` at each site: the new queue and the rate."""
    return [(img, rate) for img, _, rate in (ring(q, i, x) for i in range(1, q.n + 1))]


def mlq_chain(kind: str, alpha: Sequence[int], n: int, x: RateParams | None = None) -> ChainSpec:
    """The chain of ``mlq-{kind}`` on shape ``alpha``; ``ring`` reads ``x``, and refuses it on a fermionic queue."""
    m, alpha, _ = _model(f"mlq-{kind}", alpha, n)
    return _build_chain(_states(m, alpha, n), _ringing_moves, x)


# ---------------------------------------------------------------------------
# models: the chain and the queue law of each stationary claim
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """A model of ``mlq stationary``, on lambda as ``--lambda`` gives it.  A
    ``ringing`` model runs on the queues of shape lambda and ``kind``, with
    their normalized weights as queue law; any other on the words of content
    lambda, with the fiber law of the conj(lambda)-shaped queues.  ``moves``
    is its rule: ``moves(state, x)`` lists the (target, rate) moves out of a
    state.  Only a model with ``rates`` takes site rates x; its weights are
    taken at x too."""

    kind: str
    ringing: bool
    rates: bool
    moves: Callable[[Hashable, RateParams | None], list[tuple[Hashable, Fraction]]]


# each rule looks its transitions up by name when it runs, so a rebound function runs
MODELS: dict[str, Model] = {
    "tasep": Model("fermionic", False, False, lambda w, x: tasep_transitions(w)),
    "tazrp": Model("bosonic", False, True, lambda w, x: tazrp_transitions(w, x)),
    "ktazrp": Model("bosonic", False, False, lambda w, x: ktazrp_transitions(w)),
    "mlq-fermionic": Model("fermionic", True, False, lambda q, x: _ringing_moves(q, x)),
    "mlq-bosonic": Model("bosonic", True, True, lambda q, x: _ringing_moves(q, x)),
}


def _model(model: str, lam: Sequence[int], n: int, x: RateParams | None = None) -> tuple[Model, tuple[int, ...], RateParams | None]:
    """The one reader of a model's arguments: its entry, lambda and rates,
    once each is valid.  Fermionic ringing needs a straight shape: twisted,
    it does not project to the exclusion process."""
    if (m := MODELS.get(model)) is None:
        raise ValueError(f"unknown model {model!r}; choose from {list(MODELS)}")
    if x is not None and not m.rates:
        raise ValueError(f"{model} takes no site rates x: its rates are all 1")
    lam = _ints(lam, "lambda parts")
    if m.ringing and m.kind == "fermionic" and any(a < b for a, b in zip(lam, lam[1:])):
        raise ShapeError(f"fermionic ringing chain needs a straight shape, got {lam}")
    if m.ringing:
        count_queues(lam, n, m.kind)
    else:
        lam = _content(lam, n, m.kind)
    return m, lam, _site_values(x, n)


def _states(m: Model, lam: tuple[int, ...], n: int) -> list:
    """The states of ``m`` on n sites: queues of shape lambda if it rings, else words of content lambda."""
    return list((enumerate_queues if m.ringing else enumerate_states)(lam, n, m.kind))


def model_chain(model: str, lam: Sequence[int], n: int, x: RateParams | None = None) -> ChainSpec:
    """The chain of ``model`` on ``n`` sites, at rates ``x`` (unit when None)."""
    m, lam, x = _model(model, lam, n, x)
    return _build_chain(_states(m, lam, n), m.moves, x)


def model_size(model: str, lam: Sequence[int], n: int) -> int:
    """The state count of :func:`model_chain`, without building it."""
    m, lam, _ = _model(model, lam, n)
    return (count_queues if m.ringing else count_states)(lam, n, m.kind)


def queue_law(model: str, lam: Sequence[int], n: int, x: RateParams | None = None) -> dict:
    """The stationary law the queues give for ``model``, without its chain:
    state -> probability, with the weights taken at ``x`` (unit when None)."""
    m, lam, x = _model(model, lam, n, x)
    if not m.ringing:
        return fiber_law(conjugate(lam), n, m.kind, x)
    states = _states(m, lam, n)
    if x is None:
        weights = [_ONE] * len(states)
    else:  # no site holds more than sum(lam) particles of a queue
        powers = [[xj**e for e in range(sum(lam) + 1)] for xj in x]
        weights = [math.prod([p[e] for p, e in zip(powers, s.weight())], start=_ONE) for s in states]
    total = sum(weights)
    return {s: w / total for s, w in zip(states, weights)}


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def simulate_ctmc(chain: ChainSpec, seed: int, jumps: int) -> dict:
    """Occupation-time frequencies from a seeded jump-by-jump simulation.

    Each jump draws twice from one ``random.Random(seed)``: the holding time
    ``-log(1 - u) / total``, which is ``Random.expovariate(total)`` written
    out, with ``total`` the float exit rate; then the target, the first
    transition, in transition order, whose cumulative float rate reaches
    ``u * total``.  The trajectory and the returned table are bitwise
    reproducible for a fixed seed.  A one-state chain (it has no transitions,
    self-loops being rejected) spends all its time in its state; in a larger
    chain, reaching a state whose float exit rate is 0 (no outgoing
    transition, or rates that round to 0.0) raises :class:`ChainError`, and
    so does any state whose float exit rate overflows (a rate, or their sum,
    past about 1.8e308), before the first jump.  An empty chain raises
    :class:`ChainError`.
    ``jumps`` below 1 or not a plain ``int`` raises ``ValueError``.
    """
    if type(jumps) is not int:
        raise ValueError(f"jumps must be an integer, got {jumps!r}")
    if jumps < 1:
        raise ValueError(f"jumps must be at least 1, got {jumps}")
    ns = len(chain.states)
    if ns == 0:
        raise ChainError("empty chain")
    if ns == 1:
        return {chain.states[0]: 1.0}
    rates: list[list[float]] = [[] for _ in range(ns)]
    targets: list[list[int]] = [[] for _ in range(ns)]
    for src, dst, rate in chain.transitions:
        try:
            rates[src].append(float(rate))
        except OverflowError:  # past the float range: refused with its exit rate below
            rates[src].append(math.inf)
        targets[src].append(dst)
    # per state: the exit rate, the running totals and the targets.  The exit
    # rate comes from sum(), which may round differently from the running
    # total (compensated on newer Pythons); a draw past the running total
    # lands on the last target, repeated once at the end
    moves = [(sum(r), list(itertools.accumulate(r)), t + t[-1:]) for r, t in zip(rates, targets)]
    for s, (total, _, _) in zip(chain.states, moves):
        if total == math.inf:  # its holding time would read 0
            raise ChainError(f"exit rate beyond the float range: {s!r}")
    draw = random.Random(seed).random
    log = math.log
    occupation = [0.0] * ns
    state = 0
    try:
        for _ in range(jumps):
            total, cumulative, dsts = moves[state]
            occupation[state] += -log(1.0 - draw()) / total
            state = dsts[bisect_left(cumulative, draw() * total)]
    except ZeroDivisionError:
        raise ChainError(f"absorbing state reached: {chain.states[state]!r}") from None
    span = sum(occupation)
    return {s: occupation[i] / span for i, s in enumerate(chain.states)}
