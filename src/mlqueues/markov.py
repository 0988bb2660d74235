"""Ring particle processes, ringing-path dynamics, and exact stationary laws.

Everything here is exact: rates are rationals, and the stationary
distribution is the one-dimensional null space of the transposed generator.
That generator is kept sparse, one ``{column: rate}`` dict per state, and
solved modulo a prime p on plain ints, by sparse elimination with Markowitz
pivots: the shortest active row pivots next, on its column shared by the
fewest active rows (ties by index), which keeps fill-in low on ring chains.
Each entry of the null vector is lifted to a fraction by rational
reconstruction and the vector is checked exactly against every row; when p
divides a rate denominator, an entry does not lift or the check fails, the
solve runs again from scratch at the next prime of a fixed Mersenne ladder,
and raises past the last one.  The law is then certified by guards that need
no elimination: the chain is irreducible (so its stationary law is unique),
the vector is strictly positive, sums to exactly 1, and balances state by
state, from one O(T) tally of flux out of and into every state over the T
transitions.  Floating point appears only in the Monte-Carlo sampler.
``MODELS`` is the one table of the ``mlq stationary`` models, read by
:func:`model_chain`, :func:`queue_law` and :func:`model_size`.
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
from .words import BosonicWord, FermionicWord, Word, _built, _ints, _site_counts, _wrap, indicator_multiset

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

    def tv_distance(self, other: dict) -> float:
        keys = set(self.probs) | set(other)
        return 0.5 * sum(abs(float(self[k]) - float(other.get(k, 0.0))) for k in keys)


# ---------------------------------------------------------------------------
# state spaces
# ---------------------------------------------------------------------------


def conjugate(lam: Sequence[int]) -> tuple[int, ...]:
    """Conjugate partition (column lengths of the row diagram); every part
    must be positive."""
    lam = sorted(lam, reverse=True)
    if not lam:
        return ()
    if lam[-1] < 1:
        raise ValueError("content partition must have positive parts")
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def _content(lam: Sequence[int], n: int, kind: str) -> tuple[int, ...]:
    """``lam`` sorted descending, once it is a valid content for ``kind`` on ``n`` sites."""
    lam = tuple(sorted(_ints(lam, "content parts"), reverse=True))
    if not lam or lam[-1] < 1:
        raise ValueError("content partition must have positive parts")
    if n < 1:
        raise ValueError(f"ring size must be positive, got {n}")
    if kind not in ("tasep", "tazrp"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "tasep" and len(lam) > n:
        raise ValueError(f"cannot place {len(lam)} particles on {n} exclusion sites")
    return lam


def count_states(lam: Sequence[int], n: int, kind: str) -> int:
    """Closed-form size of :func:`enumerate_states`: a multinomial for
    ``tasep``, a product of multiset counts (one per label value) for ``tazrp``."""
    lam = _content(lam, n, kind)
    mults = Counter(lam).values()
    if kind == "tasep":
        total = math.factorial(n) // math.factorial(n - len(lam))
        return total // math.prod(math.factorial(m) for m in mults)
    return math.prod(math.comb(m + n - 1, m) for m in mults)


def enumerate_states(lam: Sequence[int], n: int, kind: str) -> list[Word]:
    """All ring words whose particle content is the partition ``lam``."""
    lam = _content(lam, n, kind)
    if kind == "tasep":
        return [FermionicWord(p) for p in _multiset_permutations(lam + (0,) * (n - len(lam)))]
    placements_per_value = []
    values = sorted(set(lam), reverse=True)
    for v in values:
        mult = lam.count(v)
        placements_per_value.append([c for c in _compositions(mult, n)])
    states = []
    for combo in itertools.product(*placements_per_value):
        sites = [[] for _ in range(n)]
        for v, counts in zip(values, combo):
            for j, c in enumerate(counts):
                sites[j].extend([v] * c)
        states.append(BosonicWord(tuple(tuple(sorted(s)) for s in sites)))
    return states


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


def _compositions(total: int, parts: int):
    """Weak compositions of ``total`` into ``parts`` parts, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


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


def tazrp_transitions(w: BosonicWord, x: RateParams | None) -> list[tuple[BosonicWord, Fraction]]:
    """The top particle of each occupied site hops one site right, rate 1/x_j
    (1 when ``x`` is None)."""
    out = []
    n = w.n
    x = _site_values(x, n)
    for j in range(1, n + 1):
        site = w.sites[j - 1]
        if not site:
            continue
        y = site[-1]
        sites = list(w.sites)
        sites[j - 1] = site[:-1]
        dst = _wrap(j + 1, n)
        sites[dst - 1] = tuple(sorted(sites[dst - 1] + (y,)))
        out.append((BosonicWord(tuple(sites)), _ONE if x is None else _ONE / x[j]))
    return out


def ktazrp_transitions(w: BosonicWord) -> list[tuple[BosonicWord, Fraction]]:
    """Any top block of a site hops right with rate 1.

    A block is a nonempty multiset Y from the site with min(Y) at least the
    largest label left behind: with the site stored ascending, a suffix of it.
    """
    out = []
    n = w.n
    for j in range(1, n + 1):
        site = w.sites[j - 1]
        for take in range(1, len(site) + 1):
            sites = list(w.sites)
            sites[j - 1] = site[:-take]
            dst = _wrap(j + 1, n)
            sites[dst - 1] = tuple(sorted(sites[dst - 1] + site[-take:]))
            out.append((BosonicWord(tuple(sites)), Fraction(1)))
    return out


def tasep_chain(lam: Sequence[int], n: int) -> ChainSpec:
    return _build_chain(enumerate_states(lam, n, "tasep"), tasep_transitions)


def tazrp_chain(lam: Sequence[int], n: int, x: RateParams | None = None) -> ChainSpec:
    x = _site_values(x, n)
    return _build_chain(enumerate_states(lam, n, "tazrp"), lambda w: tazrp_transitions(w, x))


def ktazrp_chain(lam: Sequence[int], n: int) -> ChainSpec:
    return _build_chain(enumerate_states(lam, n, "tazrp"), ktazrp_transitions)


def _build_chain(states, rule) -> ChainSpec:
    index = {s: i for i, s in enumerate(states)}
    transitions = []
    for i, s in enumerate(states):
        for target, rate in rule(s):
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


# The moduli of the null-space solve, in the order tried: Mersenne primes 2^e - 1.
_MODULI = tuple(2**e - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423))


def nullspace(rows, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right null space of a rational matrix, certified exactly.

    Each row is a dense list or a ``{column: value}`` dict.  ``ncols`` defaults
    to the widest row: the longest dense row, or one past the largest dict
    column.  The basis has one vector per non-pivot column, in increasing
    column order, with 1 at that column and 0 at the other non-pivot columns.
    It is computed modulo each prime of ``_MODULI`` in turn (see
    :func:`_nullspace_mod`) until one gives a basis whose every vector is a
    null vector over the rationals; each prime is tried on its own.  Raises
    ``ArithmeticError`` when no prime does.
    """
    sparse = []
    width = 0
    for r in rows:
        if isinstance(r, dict):
            sparse.append({c: Fraction(v) for c, v in r.items() if v != 0})
            width = max(width, max(r, default=-1) + 1)
        else:
            sparse.append({c: Fraction(v) for c, v in enumerate(r) if v != 0})
            width = max(width, len(r))
    if ncols is None:
        ncols = width
    elif width > ncols:
        raise ValueError(f"row entries beyond column {ncols - 1}")
    for p in _MODULI:
        basis = _nullspace_mod(sparse, ncols, p)
        if basis is not None:
            return basis
    raise ArithmeticError("no modulus certified the null space")


def _nullspace_mod(sparse: list[dict], ncols: int, p: int) -> list[list[Fraction]] | None:
    """The null-space basis of :func:`nullspace`, computed over GF(p) and lifted.

    Pivots follow the Markowitz rule: the shortest active row is eliminated
    next, on its column shared by the fewest active rows, ties broken by the
    lower index.  Back-substitution gives the basis mod p; each entry is lifted
    to the unique fraction r/s with |r|, s <= sqrt(p/2) (Wang's rational
    reconstruction), and each lifted vector is checked exactly against the
    rows.  Returns None when p divides a denominator, an entry does not lift,
    or a vector fails the check.  A basis that passes is the rational one: its
    vectors are independent null vectors, as many as the nullity mod p, which
    is at least the rational nullity.
    """
    residues: dict[Fraction, int] = {}
    reduced = []
    for row in sparse:
        out = {}
        for c, v in row.items():
            r = residues.get(v)
            if r is None:
                if v.denominator % p == 0:
                    return None
                r = residues[v] = v.numerator * pow(v.denominator, -1, p) % p
            if r:
                out[c] = r
        reduced.append(out)

    col_rows = defaultdict(set)  # column -> active rows with a nonzero entry there
    for i, row in enumerate(reduced):
        for c in row:
            col_rows[c].add(i)
    active = set(range(len(reduced)))
    queue = [(len(row), i) for i, row in enumerate(reduced)]  # lazy: stale keys are skipped
    heapq.heapify(queue)
    pivots = []  # (column, rest of its row scaled so the pivot entry is 1)
    while queue:
        length, i = heapq.heappop(queue)
        row = reduced[i]
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
            other = reduced[k]
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

    bound = math.isqrt(p // 2)
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = {free: 1}
        for c, rest in reversed(pivots):
            s = sum(val * v[j] for j, val in rest.items() if j in v) % p
            if s:
                v[c] = p - s
        lifted = {}
        for j, a in v.items():
            q = _rational(a, p, bound)
            if q is None:
                return None
            lifted[j] = q
        if any(sum(val * lifted[j] for j, val in row.items() if j in lifted) for row in sparse):
            return None
        basis.append([lifted.get(j, Fraction(0)) for j in range(ncols)])
    return basis


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
    """Exact stationary law: null space of the transposed generator, verified.

    Raises :class:`ChainError` when the chain is empty, not strongly
    connected, or the null space is not one-dimensional or cannot be
    certified, and when the solution is not strictly positive or fails the
    balance re-check.  An irreducible chain has exactly one stationary law, so
    a vector that passes these guards and sums to exactly 1 is that law.
    """
    ns = len(chain.states)
    if ns == 0:
        raise ChainError("empty chain")
    if not _strongly_connected(ns, chain.transitions):
        raise ChainError("chain is not irreducible")
    # row i of the transposed generator: rates into state i, minus the exit rate of i
    qt: list[dict] = [{} for _ in range(ns)]
    for src, dst, rate in chain.transitions:
        qt[dst][src] = qt[dst].get(src, 0) + rate
        qt[src][src] = qt[src].get(src, 0) - rate
    try:
        basis = nullspace(qt, ns)
    except ArithmeticError as exc:
        raise ChainError(str(exc)) from exc
    if len(basis) != 1:
        raise ChainError(f"null space has dimension {len(basis)}, expected 1")
    v = basis[0]
    total = sum(v, Fraction(0))
    if total == 0:
        raise ChainError("degenerate null vector")
    probs = [vi / total for vi in v]
    if any(p <= 0 for p in probs):
        raise ChainError("stationary vector is not strictly positive")
    out_flux, in_flux = chain.flux(probs)
    if out_flux != in_flux:
        raise ChainError("balance equation violated by solver output")
    return RationalDistribution(dict(zip(chain.states, probs)))


# ---------------------------------------------------------------------------
# ringing paths
# ---------------------------------------------------------------------------


def _require_kind(q: MLQ, kind: str) -> None:
    if q.kind != kind:
        raise ValueError(f"expected a {kind} queue, got a {q.kind} one")


def ring_forward(q: FermionicMLQ, i: int) -> tuple[FermionicMLQ, int]:
    """Forward ringing transition of a fermionic queue at site i, rate 1.

    The path enters each row, stays put on a particle and steps right past a
    hole; every particle the path lands on hops one site left when its left
    neighbour is free.
    """
    _require_kind(q, "fermionic")
    n = q.n
    if not 1 <= i <= n:
        raise IndexError(f"site {i} outside 1..{n}")
    a = i
    new_rows = []
    for row in q.rows:
        if a not in row:
            a = _wrap(a + 1, n)
        elif (left := _wrap(a - 1, n)) not in row:
            row = tuple(sorted(left if s == a else s for s in row))
        new_rows.append(row)
    return _built(FermionicMLQ, n=n, rows=tuple(new_rows)), a


def ring_reverse(q: FermionicMLQ, i: int) -> tuple[FermionicMLQ, int]:
    """Inverse of :func:`ring_forward`: descends the rows undoing the hops."""
    _require_kind(q, "fermionic")
    n = q.n
    if not 1 <= i <= n:
        raise IndexError(f"site {i} outside 1..{n}")
    c = i
    new_rows = list(q.rows)
    for j in range(q.k - 1, -1, -1):
        row = q.rows[j]
        left = _wrap(c - 1, n)
        if left not in row:
            c = left
        elif c not in row:
            new_rows[j] = tuple(sorted(c if s == left else s for s in row))
    return _built(FermionicMLQ, n=n, rows=tuple(new_rows)), c


def _column_empty(q: BosonicMLQ, i: int) -> bool:
    return all(i not in row for row in q.rows)


def _hop(row: tuple[int, ...], src: int, dst: int, n: int) -> tuple[int, ...]:
    """``row`` with one particle moved from site ``src`` to site ``dst``."""
    counts = _site_counts(row, n, False)
    counts[src - 1] -= 1
    counts[dst - 1] += 1
    return indicator_multiset(counts)


def ring_forward_bosonic(d: BosonicMLQ, i: int, x: RateParams | None = None) -> tuple[BosonicMLQ, int, Fraction]:
    """Forward ringing transition of a bosonic queue at site i.

    One particle hops right out of every occupied site the path visits; the
    path steps right exactly when it leaves an occupied site.  Returns the new
    queue, the exit site, and the rate (1 on an empty column or without ``x``,
    else 1/x_i).
    """
    _require_kind(d, "bosonic")
    n = d.n
    if not 1 <= i <= n:
        raise IndexError(f"site {i} outside 1..{n}")
    x = _site_values(x, n)
    a = i
    new_rows = []
    for row in d.rows:
        if a in row:
            row = _hop(row, a, _wrap(a + 1, n), n)
            a = _wrap(a + 1, n)
        new_rows.append(row)
    rate = _ONE if x is None or _column_empty(d, i) else _ONE / x[i]
    return _built(BosonicMLQ, n=n, rows=tuple(new_rows)), _wrap(a - 1, n), rate


def ring_reverse_bosonic(d: BosonicMLQ, i: int, x: RateParams | None = None) -> tuple[BosonicMLQ, int, Fraction]:
    """Inverse of :func:`ring_forward_bosonic`.

    The rate mirrors the forward rule through the time reversal: 1 when
    column i+1 is empty or ``x`` is None, else 1/x_{i+1}.
    """
    _require_kind(d, "bosonic")
    n = d.n
    if not 1 <= i <= n:
        raise IndexError(f"site {i} outside 1..{n}")
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
        new_rows.append(_hop(row, src, dst, n) if src in row else row)
    nxt = _wrap(i + 1, n)
    rate = _ONE if x is None or _column_empty(d, nxt) else _ONE / x[nxt]
    return _built(BosonicMLQ, n=n, rows=tuple(new_rows)), _wrap(b[0] + 1, n), rate


def ringing_states(kind: str, alpha: Sequence[int], n: int) -> list:
    """The queues a ringing-path chain runs on.  The fermionic chain is only
    defined for straight shapes (twisted fermionic ringing does not project to
    the exclusion process); the bosonic chain accepts any composition."""
    if kind == "fermionic" and any(a < b for a, b in zip(alpha, list(alpha)[1:])):
        raise ShapeError(f"fermionic ringing chain needs a straight shape, got {tuple(alpha)}")
    return list(enumerate_queues(alpha, n, kind))


def mlq_chain(kind: str, alpha: Sequence[int], n: int, x: RateParams | None = None) -> ChainSpec:
    """Ringing-path chain on :func:`ringing_states`; self-loop ringings (empty
    columns) are dropped.  Bosonic ringing at site i has rate 1/x_i (1 when
    ``x`` is None); fermionic ringing has rate 1 and takes no ``x``."""
    if kind == "bosonic":
        x = _site_values(x, n)
    elif x is not None:
        raise ValueError("fermionic ringing takes no site rates x: its rates are all 1")
    states = ringing_states(kind, alpha, n)
    index = {s: i for i, s in enumerate(states)}
    transitions = []
    for idx, state in enumerate(states):
        for site in range(1, n + 1):
            if kind == "fermionic":
                img, rate = ring_forward(state, site)[0], _ONE
            else:
                img, _, rate = ring_forward_bosonic(state, site, x)
            if img != state:
                transitions.append((idx, index[img], rate))
    return ChainSpec(tuple(states), tuple(transitions))


# ---------------------------------------------------------------------------
# models: the chain and the queue law of each stationary claim
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """A model of ``mlq stationary``, on lambda as ``--lambda`` gives it.  A
    ``ringing`` model runs on the queues of shape lambda and ``kind``, with
    their normalized weights as queue law; any other on the words of content
    lambda, with the fiber law of the conj(lambda)-shaped queues.  Only a
    model with ``rates`` takes site rates x; its weights are taken at x too."""

    kind: str
    ringing: bool
    rates: bool
    chain: Callable[[Sequence[int], int, RateParams | None], ChainSpec]


# each chain looks its builder up by name when it runs, so a rebound builder runs
MODELS: dict[str, Model] = {
    "tasep": Model("fermionic", False, False, lambda lam, n, x: tasep_chain(lam, n)),
    "tazrp": Model("bosonic", False, True, lambda lam, n, x: tazrp_chain(lam, n, x)),
    "ktazrp": Model("bosonic", False, False, lambda lam, n, x: ktazrp_chain(lam, n)),
    "mlq-fermionic": Model("fermionic", True, False, lambda lam, n, x: mlq_chain("fermionic", lam, n)),
    "mlq-bosonic": Model("bosonic", True, True, lambda lam, n, x: mlq_chain("bosonic", lam, n, x)),
}


def _model(model: str, n: int, x: RateParams | None = None) -> tuple[Model, RateParams | None]:
    """The entry of ``model`` and its rates, once ``x`` is None (unit rates)
    or n rates it takes."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {list(MODELS)}")
    if x is not None and not MODELS[model].rates:
        raise ValueError(f"{model} takes no site rates x: its rates are all 1")
    return MODELS[model], _site_values(x, n)


def model_chain(model: str, lam: Sequence[int], n: int, x: RateParams | None = None) -> ChainSpec:
    """The chain of ``model`` on ``n`` sites, at rates ``x`` (unit when None)."""
    m, x = _model(model, n, x)
    return m.chain(lam, n, x)


def model_size(model: str, lam: Sequence[int], n: int) -> int:
    """The state count of :func:`model_chain`, without building it."""
    m, _ = _model(model, n)
    if m.ringing:
        return count_queues(lam, n, m.kind)
    return count_states(lam, n, "tasep" if m.kind == "fermionic" else "tazrp")


def queue_law(model: str, lam: Sequence[int], n: int, x: RateParams | None = None) -> dict:
    """The stationary law the queues give for ``model``, without its chain:
    state -> probability, with the weights taken at ``x`` (unit when None)."""
    m, x = _model(model, n, x)
    if not m.ringing:
        return fiber_law(conjugate(lam), n, m.kind, x)
    states = ringing_states(m.kind, lam, n)
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

    Holding times are exponential with the exact exit rate; the trajectory and
    the returned table are bitwise reproducible for a fixed seed.  Each jump
    target is the first transition, in transition order, whose cumulative
    float rate reaches the uniform draw.  Reaching a state with no outgoing
    transition raises :class:`ChainError`; ``jumps`` below 1 raises
    ``ValueError``.
    """
    if jumps < 1:
        raise ValueError(f"jumps must be at least 1, got {jumps}")
    ns = len(chain.states)
    if ns == 0:
        raise ChainError("empty chain")
    rates: list[list[float]] = [[] for _ in range(ns)]
    targets: list[list[int]] = [[] for _ in range(ns)]
    for src, dst, rate in chain.transitions:
        rates[src].append(float(rate))
        targets[src].append(dst)
    # the exit rate comes from sum(), which may round differently from the
    # running total (compensated on newer Pythons); a draw past the running
    # total falls back to the last transition
    totals = [sum(r) for r in rates]
    cumulative = [list(itertools.accumulate(r)) for r in rates]
    rng = random.Random(seed)
    occupation = [0.0] * ns
    state = 0
    for _ in range(jumps):
        total = totals[state]
        if total <= 0:
            raise ChainError(f"absorbing state reached: {chain.states[state]!r}")
        occupation[state] += rng.expovariate(total)
        dsts = targets[state]
        k = bisect_left(cumulative[state], rng.random() * total)
        state = dsts[k] if k < len(dsts) else dsts[-1]
    span = sum(occupation)
    return {s: occupation[i] / span for i, s in enumerate(chain.states)}
