"""Cylindrical bracket matching and the two-row pairing maps.

Two rows on the ring are given as per-site particle counts.  Scanning the
sites in order, one row's particles act as opening brackets and the other's
as closing brackets; matching the brackets on the cylinder pairs upper-row
particles to lower-row particles.  The same-site emission order is the crux:

* weakly-right pairing emits opens (upper row) before closes (lower row) at a
  shared site, so an upper particle may pair straight down;
* strictly-left pairing emits closes (upper row) before opens (lower row), so
  a same-site pair is impossible and every pairing line travels left.

The scan keeps its open brackets as ``[site, count]`` runs on a stack, so the
work per site is one push and a few pops whatever the multiplicities.  After
the linear pass, the surviving brackets read as a block of closes followed by
a block of opens.  On the cylinder the k-th leftover close (in scan order)
matches the k-th leftover open counted from the right, so the wrap step peels
the top open runs against the first close runs; this is the unique completion
in which no matched pair encloses an unmatched bracket.  Which close meets
which open is recorded for diagnostics only; all consumers depend only on the
matched/unmatched site counts, which agree with every valid completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .words import _ring_size, _site_counts, indicator_multiset


@dataclass(frozen=True)
class PairingResult:
    """Outcome of pairing an upper row onto a lower row.

    ``pairs`` holds (upper site, lower site) couples, one per matched pair of
    particles; exactly one of the unpaired multisets is nonempty unless both
    rows were exhausted.
    """

    pairs: tuple[tuple[int, int], ...]
    unpaired_upper: tuple[int, ...]
    unpaired_lower: tuple[int, ...]

    @property
    def paired_upper(self) -> tuple[int, ...]:
        return tuple(sorted(u for u, _ in self.pairs))

    @property
    def paired_lower(self) -> tuple[int, ...]:
        return tuple(sorted(l for _, l in self.pairs))


def _close(stack: list[list[int]], site: int, count: int, runs: list) -> int:
    """Match ``count`` closes at ``site`` against the open runs on top of
    ``stack``; append (open site, close site, count) runs and return how many
    closes found no open."""
    while count and stack:
        top = stack[-1]
        m = min(count, top[1])
        runs.append((top[0], site, m))
        count -= m
        top[1] -= m
        if not top[1]:
            stack.pop()
    return count


def _match(lower: Sequence[int], upper: Sequence[int], weakly_right: bool) -> tuple[list, list[int], list[int]]:
    """Cylindrically pair two rows given as per-site counts (index 0 is site 1).

    Weakly right: the upper row opens and is emitted first at a shared site;
    otherwise (strictly left) the lower row opens and the upper row, emitted
    first, closes.  Returns ``(runs, unpaired_lower, unpaired_upper)``: runs
    are (upper index, lower index, count) triples, the unpaired rows are
    per-site counts.
    """
    opens, closes = (upper, lower) if weakly_right else (lower, upper)
    stack: list[list[int]] = []  # open runs [site, count], innermost last
    loose: list[list[int]] = []  # close runs that met no open, in scan order
    runs: list[tuple[int, int, int]] = []
    for j, (o, c) in enumerate(zip(opens, closes)):
        if o and weakly_right:
            stack.append([j, o])
        if c:
            c = _close(stack, j, c, runs)
            if c:
                loose.append([j, c])
        if o and not weakly_right:
            stack.append([j, o])
    # Wrap-around: the residue reads ")...)(...("; peeling adjacent pairs off
    # the seam matches the first close runs with the top open runs.
    for run in loose:
        run[1] = _close(stack, run[0], run[1], runs)
        if not stack:
            break
    unmatched_opens, unmatched_closes = [0] * len(opens), [0] * len(closes)
    for j, c in stack:
        unmatched_opens[j] = c
    for j, c in loose:
        unmatched_closes[j] = c
    if weakly_right:
        return runs, unmatched_closes, unmatched_opens
    return [(c, o, m) for o, c, m in runs], unmatched_opens, unmatched_closes


def _result(lower: list[int], upper: list[int], weakly_right: bool) -> PairingResult:
    runs, unpaired_lower, unpaired_upper = _match(lower, upper, weakly_right)
    couples = [(u + 1, l + 1) for u, l, m in runs for _ in range(m)]
    return PairingResult(tuple(sorted(couples)), indicator_multiset(unpaired_upper), indicator_multiset(unpaired_lower))


def pair_weakly_right(lower: Iterable[int], upper: Iterable[int], n: int) -> PairingResult:
    """Cylindrically pair upper-row particles weakly rightward onto the lower row.

    Both rows are subsets of {1..n}; a particle may pair straight down to its
    own site.
    """
    _ring_size(n)
    return _result(_site_counts(lower, n, fermionic=True), _site_counts(upper, n, fermionic=True), True)


def pair_strictly_left(lower: Iterable[int], upper: Iterable[int], n: int) -> PairingResult:
    """Cylindrically pair upper-row particles strictly leftward onto the lower row.

    Rows are multisets over {1..n}; same-site pairs cannot form, so a pairing
    line may wrap the full circle back to its own site.
    """
    _ring_size(n)
    return _result(_site_counts(lower, n, fermionic=False), _site_counts(upper, n, fermionic=False), False)
