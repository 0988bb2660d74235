"""Projection maps from multiline queues to ring words.

The row operator works on a word's nested layers L_1 >= L_2 >= ... (L_m
counts, per site, the labels >= m).  It hands the label classes r = k, ...,
a (largest label k, smallest a) down through one queue row by cylindrical
pairing of the row against L_r, which leaves ur_r row and uw_r word
particles unpaired.  Paired row particles take label r; the row saturates
at the largest class s with ur_s = 0 (s = a if none), after which each word
particle newly left unpaired collapses with its label less one, and row
particles no class reaches take the fresh label f.  With p = row - ur_s the
new layers are

    L'_m = p (m <= s) or row - ur_m (s < m <= k)
           + (row - p if m <= f) + (uw_max(m+1, a) if m + 1 <= s).

A label-1 particle cannot collapse: the row operators check that the new
word holds max(|row|, |word|) particles, and raise if one was lost.

Folding the update over the rows from the top down, starting from no layers,
projects the whole queue to a word.  The same word is computed a second,
independent way by the corner-transfer reading ``ctm_project``: the i-th row
is bubbled to the bottom with twists and its indicator is read off; the
readings stack into nested layers.  Agreement of all routes (and the classic
top-down label-passing algorithm on straight queues) is a test obligation,
not an assumption.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ShapeError
from .mlq import MLQ, _exchange, _site_values, colex_rows, count_queues
from .pairing import _match, pair_strictly_left, pair_weakly_right
from .words import (
    WORD_CLASSES,
    _site_counts,
    _stacked,
    _wrap,
    BosonicWord,
    FermionicWord,
    Indicator,
    Word,
    indicator_multiset,
    multiset_indicator,
)


# ---------------------------------------------------------------------------
# single-row operators
# ---------------------------------------------------------------------------


def _row_layers(row: list[int], fresh: int, layers: list, weakly_right: bool, match=_match) -> list[list[int]]:
    """The layers L'_1, L'_2, ... of the word that ``row`` (per-site counts)
    holds once the word with layers ``layers`` has passed its labels down and
    the unreached row particles have taken ``fresh``; see the module notes.
    ``match`` pairs the row against one layer, as :func:`pairing._match` does."""
    if not layers:
        return [row] * fresh if any(row) else []
    # a: the smallest label, below which every layer is L_1 (the stack's layers
    # share one sequence type, as a list never equals a tuple)
    k, a = len(layers), 1
    while a < k and layers[a] == layers[0]:
        a += 1
    # unpaired (row, word) counts against each class a..k
    unpaired = [match(row, layer, weakly_right)[1:] for layer in layers[a - 1 :]]
    s = next((r for r in range(k, a - 1, -1) if not any(unpaired[r - a][0])), None)
    if s is None:  # every word particle pairs; the row's leftovers take the fresh label
        s, below = a, [row] * fresh + [[x - u for x, u in zip(row, unpaired[0][0])]] * (a - fresh)
    else:  # the row saturates at class s; the word particles unpaired below it collapse
        below = [[x + u for x, u in zip(row, unpaired[max(m + 1 - a, 0)][1])] for m in range(1, s)]
        below += [row] if any(row) else []
    return below + [[x - u for x, u in zip(row, ur)] for ur, _ in unpaired[s + 1 - a :]]


def _checked_content(word: Word, fresh_label: int) -> tuple[int, ...]:
    """The word's labels, ascending, once ``fresh_label`` is a positive
    integer no larger than the smallest of them: the row operators' one guard."""
    if type(fresh_label) is not int or fresh_label < 1:
        raise ValueError("fresh label must be a positive integer")
    content = word.content()
    if content and fresh_label > content[0]:
        raise ValueError(f"fresh label exceeds smallest word label ({fresh_label} > {content[0]})")
    return content


def _apply_row(row: Iterable[int], fresh_label: int, word: Word, kind: str) -> Word:
    """The row operator on a ``kind`` word; see :func:`apply_row_fermionic`."""
    if word.kind != kind:
        raise ValueError(f"a {kind} row operator got a {word.kind} word")
    fermionic = kind == "fermionic"
    counts = _site_counts(row, word.n, fermionic)
    content = _checked_content(word, fresh_label)
    layers = _row_layers(counts, fresh_label, word.layers(), fermionic)
    # every row particle stays and every word particle pairs or collapses
    if (sum(layers[0]) if layers else 0) != max(sum(counts), len(content)):
        raise ValueError("a collapsing label-1 particle would get label 0")
    return _stacked(type(word), layers, word.n)


def apply_row_fermionic(row: Iterable[int], fresh_label: int, word: FermionicWord) -> FermionicWord:
    """Pass the labels of ``word`` down through one fermionic row.

    ``fresh_label`` labels the row particles that no word particle reaches;
    it must not exceed the smallest label present in the word.  An all-zero
    word labels every row particle with ``fresh_label``; an empty row lets
    every word particle collapse (all labels drop by one), which a label-1
    particle cannot do: that raises ``ValueError``.
    """
    return _apply_row(row, fresh_label, word, "fermionic")


def apply_row_bosonic(row: Iterable[int], fresh_label: int, word: BosonicWord) -> BosonicWord:
    """Bosonic analogue of :func:`apply_row_fermionic` (strictly-left pairing)."""
    return _apply_row(row, fresh_label, word, "bosonic")


# ---------------------------------------------------------------------------
# whole-queue projection
# ---------------------------------------------------------------------------


def _fold(q: MLQ):
    """The layer stacks after rows k, k-1, ..., 1 have passed their labels down."""
    fermionic, layers = q.kind == "fermionic", []
    for j in range(q.k, 0, -1):
        layers = _row_layers(_site_counts(q.rows[j - 1], q.n, fermionic), j, layers, fermionic)
        yield layers


def project(q: MLQ) -> Word:
    """Project a queue to a word by folding the row operator top row first."""
    *_, layers = _fold(q)
    return _stacked(WORD_CLASSES[q.kind], layers, q.n)


def label_trace(q: MLQ) -> list[Word]:
    """Intermediate labelled rows of the projection, indexed j-1 for row j.

    Entry j-1 is the word produced once rows j..k have been processed; entry 0
    is the projection itself.  Entry j-1 also equals the projection of the
    subqueue rows j..k with every label raised by j-1.
    """
    return [_stacked(WORD_CLASSES[q.kind], layers, q.n) for layers in _fold(q)][::-1]


def fiber_law(shape: Sequence[int], n: int, kind: str, x: Sequence | None = None) -> dict:
    """Law of ``project(q)`` over the queues of ``shape`` on ``n`` sites, each
    weighing 1, or its weight x^D at the site values ``x`` if given (n
    positive values).

    The queues are not enumerated.  Entry j-1 of :func:`label_trace` depends
    only on rows j..k, so a law on layer stacks is pushed down through the
    rows from the top: mu_j(L') = sum over L of mu_{j+1}(L) times the total
    weight of the rows r of size ``shape[j-1]`` whose row operator takes L to
    L'.  Within a stage, many stacks share a layer, so each (row, layer)
    pairing is made once per stage.  One word is built per stack left after
    row 1.
    """
    x = _site_values(x, n)
    count_queues(shape, n, kind)
    fermionic = kind == "fermionic"
    law: dict = {(): 1}  # layer stack -> mass of the queues' upper rows that fold to it
    for j in range(len(shape), 0, -1):
        rows = []  # (per-site counts, weight) of each row of size shape[j-1]
        for r in colex_rows(n, shape[j - 1], kind):
            weight = 1 if x is None else math.prod([x[s - 1] for s in r], start=Fraction(1))
            rows.append((tuple(_site_counts(r, n, fermionic)), weight))
        match = functools.cache(_match)  # made once per stage, of the module's _match when the stage starts
        pushed: dict = {}
        for stack, mass in law.items():
            for row, weight in rows:
                key = tuple(map(tuple, _row_layers(row, j, stack, fermionic, match)))
                pushed[key] = pushed.get(key, 0) + mass * weight
        law = pushed
    total = sum(law.values())
    cls = WORD_CLASSES[kind]
    return {_stacked(cls, stack, n): Fraction(mass) / total for stack, mass in law.items()}


def ferrari_martin(q: MLQ) -> Word:
    """Classic top-down label passing; defined only on straight queues.

    Kept deliberately independent of the row operator :func:`_row_layers`:
    each label class, largest first, is paired as per-site counts onto the
    row particles no larger class has claimed, by :func:`pairing._match`.
    """
    if not q.is_straight:
        raise ShapeError(f"label passing needs weakly decreasing row sizes, got {q.shape}")
    fermionic, classes = q.kind == "fermionic", []  # (label, per-site counts) handed down to row r, largest first
    for r in range(q.k, 0, -1):
        pool, carried = _site_counts(q.rows[r - 1], q.n, False), []  # pool: the particles no class has claimed
        for label, counts in classes:
            _, unclaimed, stranded = _match(pool, counts, fermionic)
            if any(stranded):
                raise AssertionError("straight queue left a label stranded")
            carried.append((label, [p - u for p, u in zip(pool, unclaimed)]))
            pool = unclaimed
        if any(pool):  # row r's unclaimed particles take the label r
            carried.append((r, pool))
        classes = carried
    particles = [(j, label) for label, counts in classes for j, c in enumerate(counts, 1) for _ in range(c)]
    return WORD_CLASSES[q.kind].from_particles(q.n, particles)


# ---------------------------------------------------------------------------
# one-particle-at-a-time variant
# ---------------------------------------------------------------------------


def canonical_order(word: Word) -> tuple[tuple[int, int], ...]:
    """Priority order on the (site, label) particles: labels descending, sites ascending."""
    return tuple(sorted(word.particles(), key=lambda p: (-p[1], p[0])))


def apply_row_particlewise(row: Iterable[int], fresh_label: int, word: Word, order=None) -> Word:
    """Queueing formulation of the row operator: one particle pairs at a time.

    ``order`` lists the word's (site, label) particles in a priority-respecting
    order (labels weakly decreasing), :func:`canonical_order` by default.  The
    output does not depend on the order chosen.  While free row particles
    remain, each word particle takes the nearest one: weakly right of its
    site (own site first) on a fermionic row, strictly left (own site last)
    on a bosonic one.  Each later particle collapses: the one word particle
    the kind's pairing map leaves stranded drops through with its label less
    one, which a label-1 particle cannot do (``ValueError``).
    """
    n = word.n
    fermionic = word.kind == "fermionic"
    row = list(row)
    free = _site_counts(row, n, fermionic)  # row particles no word particle has taken yet
    _checked_content(word, fresh_label)
    if order is None:
        order = canonical_order(word)
    else:  # a caller's order; the canonical one holds by construction
        order = tuple(order)
        if not all(type(p) is tuple and len(p) == 2 and {int}.issuperset(map(type, p)) for p in order):
            raise ValueError("order must list (site, label) pairs of integers")
        if tuple(sorted(order)) != word.particles():
            raise ValueError("order must list exactly the word's particles")
        if any(a[1] < b[1] for a, b in zip(order, order[1:])):
            raise ValueError("order must have weakly decreasing labels")

    out: list[tuple[int, int]] = []
    cap = min(sum(free), len(order))
    steps = range(n) if fermionic else range(-1, -n - 1, -1)
    for site, lab in order[:cap]:
        for step in steps:
            t = _wrap(site + step, n)
            if free[t - 1]:
                free[t - 1] -= 1
                out.append((t, lab))
                break
        else:
            raise AssertionError("pairing phase ran out of row particles")
    out += [(t + 1, fresh_label) for t, c in enumerate(free) for _ in range(c)]
    pair = pair_weakly_right if fermionic else pair_strictly_left
    pending = [site for site, _ in order[:cap]]
    for site, lab in order[cap:]:
        if lab == 1:
            raise ValueError("a collapsing label-1 particle would get label 0")
        pending.append(site)
        res = pair(row, pending, n)
        if len(res.unpaired_upper) != 1:
            raise AssertionError("collapse step must strand exactly one particle")
        m = res.unpaired_upper[0]
        out.append((m, lab - 1))
        pending.remove(m)
    return WORD_CLASSES[word.kind].from_particles(n, out)


# ---------------------------------------------------------------------------
# corner-transfer reading and the R-matrix expansion of the row operator
# ---------------------------------------------------------------------------


def ctm_components(q: MLQ, j: int = 1) -> list[Indicator]:
    """Row-j readings of the partial corner transfer: [pi_j, ..., pi_k].

    The i-th entry is the indicator of row j after rows j..i-1 have been
    twisted out of the way: row i is exchanged down through the original
    rows i-1, ..., j and keeps the lower output each time.  As a multiset the
    entries are nested; this is verified before returning them in index order.
    """
    if type(j) is not int:
        raise ValueError(f"component base must be an integer, got {j!r}")
    if not 1 <= j <= q.k:
        raise IndexError(f"component base {j} outside 1..{q.k}")
    fermionic = q.kind == "fermionic"
    comps: list[Indicator] = []
    for i in range(j, q.k + 1):
        carry = q.rows[i - 1]
        for t in range(i - 1, j - 1, -1):
            carry = _exchange(q.rows[t - 1], carry, q.n, fermionic)[0]
        comps.append(tuple(_site_counts(carry, q.n, False)))
    ranked = sorted(comps, key=sum, reverse=True)
    for high, low in zip(ranked, ranked[1:]):
        if any(l > h for h, l in zip(high, low)):
            raise AssertionError("corner-transfer readings are not nested")
    return comps


def ctm_project(q: MLQ, j: int = 1) -> Word:
    """Assemble the corner-transfer readings into a word (layers stacked bottom-up)."""
    layers = sorted(ctm_components(q, j), key=sum, reverse=True)
    return WORD_CLASSES[q.kind].from_layers(layers, q.n)


def check_r_expansion(row: Sequence[int], word: Word) -> bool:
    """Check the layer expansion of the row operator against R-matrix readings.

    With u = sum of its layers u_1 >= u_2 >= ... (smallest label at least 2,
    which forces u_1 = u_2), the freshly labelled output of the row operator
    at fresh label 1 must equal the row's indicator plus the first-factor
    readings of R applied to (row, u_i) for i >= 2; R is the two-row exchange
    behind :func:`twist`.
    """
    if word.content() and word.content()[0] < 2:
        raise ValueError("smallest word label must be at least 2")
    fermionic = word.kind == "fermionic"
    counts = multiset_indicator(row, word.n)
    sites = indicator_multiset(counts)  # the row as an ascending tuple, each site checked
    readings = (_exchange(sites, indicator_multiset(u), word.n, fermionic)[0] for u in word.layers()[1:])
    stack = [counts] + [multiset_indicator(r, word.n) for r in readings]
    if fermionic:
        return apply_row_fermionic(row, 1, word).letters == tuple(map(sum, zip(*stack)))
    stack.sort(key=sum, reverse=True)
    return apply_row_bosonic(row, 1, word) == BosonicWord.from_layers(stack, word.n)
