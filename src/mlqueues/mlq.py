"""Multiline queues, their weights, the row-twist involution, and enumeration.

A multiline queue is a tuple of particle rows on the ring; ``rows[0]`` is the
bottom row.  One type, :class:`MLQ`, serves both kinds: its ``kind`` says
whether the rows are subsets of {1..n} (fermionic) or multisets (bosonic).
Queues the package derives from validated ones (twists, ringing moves,
enumeration) skip re-validation.
The twist ``twist(q, i)`` swaps the cylindrically unpaired particles between
rows i and i+1; it realizes the combinatorial R matrix on adjacent tensor
factors, so the braid and commutation relations hold for it (they are checked
by the test suite rather than assumed).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterator, Sequence

from .pairing import _match
from .words import _built, _ints, _site_counts, indicator_multiset


@dataclass(frozen=True)
class RateParams:
    """Positive site values x_1..x_n: the rates of the site-dependent chains
    and the variables the queue weights are evaluated at.  Where a function
    takes x, None stands for unit values on every site."""

    x: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(Fraction(v) for v in self.x))
        if any(v <= 0 for v in self.x):
            raise ValueError("rate parameters must be positive")

    @classmethod
    def ones(cls, n: int) -> "RateParams":
        return cls((Fraction(1),) * n)

    def __getitem__(self, site: int) -> Fraction:
        if not 1 <= site <= len(self.x):
            raise IndexError(f"rate site {site} outside 1..{len(self.x)}")
        return self.x[site - 1]

    def __iter__(self) -> Iterator[Fraction]:
        """x_1..x_n; spelled out, since the 1-based ``__getitem__`` would end
        iteration at index 0."""
        return iter(self.x)


def _site_values(x: RateParams | Sequence | None, n: int) -> RateParams | None:
    """``x`` as the values of sites 1..n: None (unit values) and a
    :class:`RateParams` pass unchanged, any other sequence is read into one,
    and a length other than ``n`` raises ``ValueError``."""
    if x is None:
        return None
    if not isinstance(x, RateParams):
        x = RateParams(tuple(x))
    if len(x.x) != n:
        raise ValueError(f"expected {n} site values, got {len(x.x)}")
    return x


@dataclass(frozen=True, slots=True)
class MLQ:
    """A multiline queue; rows are ascending tuples of sites in 1..n.  Build
    one through :class:`FermionicMLQ` (rows are subsets) or :class:`BosonicMLQ`
    (multisets), which only set ``kind``; different kinds never compare equal.
    Queues keep no ``__dict__`` (slots), so large enumerated families stay small.
    """

    kind: ClassVar[str]
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError("ring size must be a positive integer")
        rows = tuple(tuple(sorted(_ints(r, "row sites"))) for r in self.rows)
        for r in rows:
            if any(not 1 <= j <= self.n for j in r):
                raise ValueError(f"row site outside 1..{self.n}")
            if self.kind == "fermionic" and len(set(r)) != len(r):
                raise ValueError("fermionic row contains a duplicate site")
        if not rows:
            raise ValueError("a queue needs at least one row")
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def is_straight(self) -> bool:
        s = self.shape
        return all(a >= b for a, b in zip(s, s[1:]))

    def weight(self) -> tuple[int, ...]:
        """The exponent vector of the weight x^D: particles per site, over all rows."""
        counts = Counter(j for r in self.rows for j in r)
        return tuple(counts[j] for j in range(1, self.n + 1))


class FermionicMLQ(MLQ):
    __slots__ = ()
    kind = "fermionic"


class BosonicMLQ(MLQ):
    __slots__ = ()
    kind = "bosonic"


QUEUE_CLASSES: dict[str, type[MLQ]] = {"fermionic": FermionicMLQ, "bosonic": BosonicMLQ}


def _exchange(lower: Sequence[int], upper: Sequence[int], fermionic: bool) -> tuple[list[int], list[int]]:
    """Swap the cylindrically unpaired particles of two rows given as per-site
    counts; returns the new (lower, upper) counts.

    Fermionic rows pair weakly right and must hold at most one particle per
    site, before and after the exchange; bosonic rows pair strictly left.
    """
    _, unpaired_lower, unpaired_upper = _match(lower, upper, fermionic)
    lo = [c - out + into for c, out, into in zip(lower, unpaired_lower, unpaired_upper)]
    up = [c - out + into for c, out, into in zip(upper, unpaired_upper, unpaired_lower)]
    if fermionic and max(max(lower), max(upper), max(lo), max(up)) > 1:
        raise ValueError("fermionic row contains a duplicate site")
    return lo, up


def twist(q: MLQ, i: int) -> MLQ:
    """Swap the unpaired particles between rows i and i+1 (1-indexed, bottom-up).

    The paired particles stay put, so the shape becomes s_i applied to the old
    shape while the weight is unchanged.
    """
    if not 1 <= i < q.k:
        raise IndexError(f"twist index {i} outside 1..{q.k - 1}")
    lower, upper = (_site_counts(row, q.n, False) for row in q.rows[i - 1 : i + 1])
    lo, up = _exchange(lower, upper, q.kind == "fermionic")
    return _built(type(q), n=q.n, rows=q.rows[: i - 1] + (indicator_multiset(lo), indicator_multiset(up)) + q.rows[i + 1 :])


def apply_twists(q: MLQ, word: Sequence[int]) -> MLQ:
    """Apply a composition of twists, leftmost factor last (operator order)."""
    for i in reversed(word):
        q = twist(q, i)
    return q


def straighten(q: MLQ) -> tuple[MLQ, tuple[int, ...]]:
    """Bubble-sort the row sizes into weakly decreasing order by twists.

    Returns the straight queue and the twist word w with
    ``apply_twists(q, w) == straight``.
    """
    chrono: list[int] = []
    cur = q
    changed = True
    while changed:
        changed = False
        for i in range(1, cur.k):
            if len(cur.rows[i - 1]) < len(cur.rows[i]):
                cur = twist(cur, i)
                chrono.append(i)
                changed = True
    return cur, tuple(reversed(chrono))


def subsets_colex(n: int, size: int) -> Iterator[tuple[int, ...]]:
    """Size-``size`` subsets of {1..n} as ascending tuples, in colex order."""
    if size == 0:
        yield ()
        return
    for top in range(size, n + 1):
        for rest in subsets_colex(top - 1, size - 1):
            yield rest + (top,)


def multisets_colex(n: int, size: int) -> Iterator[tuple[int, ...]]:
    """Size-``size`` multisets over {1..n} as ascending tuples, in colex order."""
    if size == 0:
        yield ()
        return
    for top in range(1, n + 1):
        for rest in multisets_colex(top, size - 1):
            yield rest + (top,)


def count_queues(alpha: Sequence[int], n: int, kind: str) -> int:
    """Closed-form size of the queue family of the given shape."""
    if n < 1:
        raise ValueError(f"ring size must be positive, got {n}")
    total = 1
    for a in alpha:
        if a < 0:
            raise ValueError("shape entries must be nonnegative")
        if kind == "fermionic":
            if a > n:
                raise ValueError(f"fermionic row size {a} exceeds ring size {n}")
            total *= math.comb(n, a)
        elif kind == "bosonic":
            total *= math.comb(n + a - 1, a)
        else:
            raise ValueError(f"unknown kind {kind!r}")
    return total


def enumerate_queues(alpha: Sequence[int], n: int, kind: str) -> Iterator[MLQ]:
    """All queues of shape alpha on n sites, top row varying fastest.

    Rows run through colex order; the stream is deterministic so seeded
    samplers can index into it reproducibly.  A bad shape raises on the call.
    """
    count_queues(alpha, n, kind)
    if not alpha:
        raise ValueError("a queue needs at least one row")
    rows, cls = (subsets_colex if kind == "fermionic" else multisets_colex), QUEUE_CLASSES[kind]
    return (_built(cls, n=n, rows=q_rows) for q_rows in itertools.product(*[list(rows(n, a)) for a in alpha]))
