"""Multiline queues, their weights, the row-twist involution, and enumeration.

A multiline queue is a tuple of particle rows on the ring; ``rows[0]`` is the
bottom row.  One type, :class:`MLQ`, serves both kinds: its ``kind`` says
whether the rows are subsets of {1..n} (fermionic) or multisets (bosonic).
Every function that takes a kind reads it through ``_queue_class``.  Queues
the package derives from validated ones (twists, ringing moves, enumeration)
skip re-validation: ``_queue`` sets their slots directly.
The twist ``twist(q, i)`` swaps the cylindrically unpaired particles between
rows i and i+1; it realizes the combinatorial R matrix on adjacent tensor
factors, so the braid and commutation relations hold for it (they are checked
by the test suite rather than assumed).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterator, Sequence

from .pairing import _match
from .words import _ints, _ring_size, _site_counts, indicator_multiset, multiset_indicator


def _site_values(x: Sequence | None, n: int) -> tuple[Fraction, ...] | None:
    """The one reader of site values: ``x`` as the tuple x_1..x_n (``x[j - 1]``
    is x_j) of ``n`` positive ``int``s (no ``bool``) or ``Fraction``s, or None
    (unit values).  Anything else, a float or text too, raises ``ValueError``."""
    if x is None:
        return None
    x = tuple(Fraction(v) if type(v) is int else v for v in x)
    for v in x:
        if not isinstance(v, Fraction):
            raise ValueError(f"site values must be integers or Fractions, got {v!r}")
        if v <= 0:
            raise ValueError("rate parameters must be positive")
    if len(x) != n:
        raise ValueError(f"expected {n} site values, got {len(x)}")
    return x


def _straight(shape: Sequence[int]) -> bool:
    """Whether the row sizes ``shape``, bottom row first, weakly decrease."""
    return all(a >= b for a, b in zip(shape, shape[1:]))


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
        _ring_size(self.n)
        rows = tuple(tuple(sorted(_ints(r, "row sites"))) for r in self.rows)
        for r in rows:
            _site_counts(r, self.n, self.kind == "fermionic")
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
        return _straight(self.shape)

    def weight(self) -> tuple[int, ...]:
        """The exponent vector of the weight x^D: particles per site, over all rows."""
        return multiset_indicator(itertools.chain.from_iterable(self.rows), self.n)


class FermionicMLQ(MLQ):
    __slots__ = ()
    kind = "fermionic"


class BosonicMLQ(MLQ):
    __slots__ = ()
    kind = "bosonic"


QUEUE_CLASSES: dict[str, type[MLQ]] = {"fermionic": FermionicMLQ, "bosonic": BosonicMLQ}


def _queue_class(kind) -> type[MLQ]:
    """The class of ``kind``, a key of ``QUEUE_CLASSES``; anything else, even unhashable, is a ``ValueError``."""
    if not isinstance(kind, str) or kind not in QUEUE_CLASSES:
        raise ValueError(f"unknown kind {kind!r}; a queue kind is one of {list(QUEUE_CLASSES)}")
    return QUEUE_CLASSES[kind]


_SET_N, _SET_ROWS = MLQ.n.__set__, MLQ.rows.__set__


def _queue(cls: type, n: int, rows: tuple) -> MLQ:
    """The ``cls`` queue of ``n`` and ``rows`` (ascending tuples derived from
    validated ones), set through the slots without ``__post_init__``."""
    q = object.__new__(cls)
    _SET_N(q, n)
    _SET_ROWS(q, rows)
    return q


@functools.lru_cache(maxsize=4096)
def _exchange(lower: tuple[int, ...], upper: tuple[int, ...], n: int, fermionic: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Swap the cylindrically unpaired particles of two ascending rows of sites
    in {1..n}; returns the new (lower, upper) rows.

    Fermionic rows pair weakly right and must hold at most one particle per
    site, before and after the exchange; bosonic rows pair strictly left.
    Verification exchanges the same few rows over and over, so results are
    memoized on the row tuples, up to a fixed 4096 entries; a raised
    exchange is not cached and raises again.
    """
    lower_c, upper_c = _site_counts(lower, n, False), _site_counts(upper, n, False)
    _, unpaired_lower, unpaired_upper = _match(lower_c, upper_c, fermionic)
    lo = [c - out + into for c, out, into in zip(lower_c, unpaired_lower, unpaired_upper)]
    up = [c - out + into for c, out, into in zip(upper_c, unpaired_upper, unpaired_lower)]
    if fermionic and max(max(lower_c), max(upper_c), max(lo), max(up)) > 1:
        raise ValueError("fermionic row contains a duplicate site")
    return indicator_multiset(lo), indicator_multiset(up)


def twist(q: MLQ, i: int) -> MLQ:
    """Swap the unpaired particles between rows i and i+1 (1-indexed, bottom-up).

    The paired particles stay put, so the shape becomes s_i applied to the old
    shape while the weight is unchanged.
    """
    if type(i) is not int:
        raise ValueError(f"twist index must be an integer, got {i!r}")
    if not 1 <= i < q.k:
        raise IndexError(f"twist index {i} outside 1..{q.k - 1}")
    rows = q.rows
    return _queue(type(q), q.n, rows[: i - 1] + _exchange(rows[i - 1], rows[i], q.n, q.kind == "fermionic") + rows[i + 1 :])


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


def colex_rows(n: int, size: int, kind: str) -> list[tuple[int, ...]]:
    """The rows of ``size`` sites in {1..n} a queue of ``kind`` may hold (subsets
    if fermionic, multisets if bosonic) as ascending tuples, in colex order."""
    pick = itertools.combinations if _queue_class(kind) is FermionicMLQ else itertools.combinations_with_replacement
    # combinations of n..1 come descending in lex order; reversed twice, that is colex
    return [c[::-1] for c in pick(range(n, 0, -1), size)][::-1]


def count_queues(alpha: Sequence[int], n: int, kind: str) -> int:
    """Closed-form size of the queue family of the given shape; the one check
    of a shape: it needs at least one row, each of a size the kind allows."""
    fermionic = _queue_class(kind) is FermionicMLQ
    _ring_size(n)
    if not alpha:
        raise ValueError("a queue needs at least one row")
    total = 1
    for a in _ints(alpha, "shape entries"):
        if a < 0:
            raise ValueError("shape entries must be nonnegative")
        if fermionic:
            if a > n:
                raise ValueError(f"fermionic row size {a} exceeds ring size {n}")
            total *= math.comb(n, a)
        else:
            total *= math.comb(n + a - 1, a)
    return total


def enumerate_queues(alpha: Sequence[int], n: int, kind: str) -> Iterator[MLQ]:
    """All queues of shape alpha on n sites, top row varying fastest.

    Rows run through colex order; the stream is deterministic so seeded
    samplers can index into it reproducibly.  A bad shape raises on the call.
    """
    count_queues(alpha, n, kind)
    cls = _queue_class(kind)
    return (_queue(cls, n, q_rows) for q_rows in itertools.product(*[colex_rows(n, a, kind) for a in alpha]))
