"""Words on the ring and their indicator-vector calculus.

A fermionic word assigns a nonnegative integer label to each of the n ring
sites (0 marks an empty site).  A bosonic word assigns a multiset of positive
labels to each site.  Both decompose uniquely into a weakly decreasing stack
of indicator vectors (the "layers"): layer m marks, per site, how many
particles of label >= m sit there.  Both also read as their ``(site, label)``
particles; the base class :class:`Word` computes everything else from them.
A row of sites becomes per-site counts through one validated builder,
``_site_counts``; ``_word`` sets the slot of a word derived from validated
values.  Sites are 1-indexed everywhere in the public interface; tuples are
0-indexed internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, Iterable, Sequence

Indicator = tuple[int, ...]


def _wrap(site: int, n: int) -> int:
    """The ring site 1..n that ``site`` denotes (sites count modulo n)."""
    return (site - 1) % n + 1


def _ints(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple, once each is a plain ``int`` (no ``bool``, no ``float``)."""
    out = tuple(values)
    if not {int}.issuperset(map(type, out)):
        raise ValueError(f"{what} must be integers")
    return out


def _ring_size(n) -> int:
    """``n``, once it is a positive plain ``int`` (no ``bool``, no ``float``):
    the one check of a ring size."""
    if type(n) is not int or n < 1:
        raise ValueError("ring size must be a positive integer")
    return n


def _site_labels(n: int, particles: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Per-site label lists of ``(site, label)`` particles on n sites, validated."""
    sites: list[list[int]] = [[] for _ in range(_ring_size(n))]
    for site, label in particles:
        if type(site) is not int or type(label) is not int:
            raise ValueError("particle sites and labels must be integers")
        if not 1 <= site <= n:
            raise ValueError(f"site {site} outside 1..{n}")
        if label < 1:
            raise ValueError("labels must be positive")
        sites[site - 1].append(label)
    return sites


def _site_counts(sites: Iterable[int], n: int, fermionic: bool) -> list[int]:
    """Per-site particle counts of a row of sites in {1..n}, validated; a
    fermionic row holds each site at most once."""
    counts = [0] * n
    for j in sites:
        if type(j) is not int or not 1 <= j <= n:
            raise ValueError(f"site {j!r} outside 1..{n}")
        if fermionic and counts[j - 1]:
            raise ValueError("fermionic row contains a duplicate site")
        counts[j - 1] += 1
    return counts


def multiset_indicator(elements: Iterable[int], n: int) -> Indicator:
    """Per-site multiplicity vector of a multiset over {1..n}."""
    return tuple(_site_counts(elements, _ring_size(n), False))


def indicator_multiset(counts: Sequence[int]) -> tuple[int, ...]:
    """The ascending multiset holding site j ``counts[j - 1]`` times (nonnegative plain ``int``s)."""
    out: list[int] = []
    for j, c in enumerate(counts):
        if type(c) is not int or c < 0:
            raise ValueError(f"counts must be nonnegative integers, got {c!r}")
        out.extend([j + 1] * c)
    return tuple(out)


def _word(cls: type, value: tuple):
    """The ``cls`` word storing ``value`` (its ``letters`` or ``sites``, derived from
    validated values in constructor form), set through the slot without ``__post_init__``."""
    word = object.__new__(cls)
    _STORE[cls.kind](word, value)
    return word


def _stacked(cls: type, layers: Sequence[Sequence[int]], n: int):
    """The ``cls`` word on n sites with the nested layer stack ``layers``, built
    unchecked: site j holds L_m[j] - L_{m+1}[j] particles of label m."""
    cols = zip(*layers) if layers else [(0,)] * n  # per site j: L_1[j] >= L_2[j] >= ...
    if cls.kind == "fermionic":
        return _word(cls, tuple(map(sum, cols)))
    # ascending, the labels at site j count the layers with L_m[j] >= t, for t = L_1[j], ..., 1
    return _word(cls, tuple([tuple([sum([c >= t for c in col]) for t in range(col[0], 0, -1)]) for col in cols]))


@dataclass(frozen=True, slots=True)
class Word:
    """A word on the ring, read through its ``(site, label)`` particles.  Build
    one through :class:`FermionicWord` (per-site labels) or :class:`BosonicWord`
    (per-site multisets), which store it and provide ``n``, ``particles`` and
    ``from_particles``; different kinds never compare equal, and no word keeps a ``__dict__``.
    """

    kind: ClassVar[str]

    @property
    def max_label(self) -> int:
        return max([a for _, a in self.particles()], default=0)

    def content(self) -> tuple[int, ...]:
        """Multiset of the particle labels, sorted ascending."""
        return tuple(sorted([a for _, a in self.particles()]))

    def layer(self, m: int) -> Indicator:
        """Per-site count of labels >= m (an indicator on a fermionic word)."""
        if type(m) is not int or m < 1:
            raise ValueError(f"layer index m must be an integer >= 1, got {m!r}")
        return tuple(_site_counts([j for j, a in self.particles() if a >= m], self.n, False))

    def layers(self) -> list[Indicator]:
        """Nested decomposition [layer(1), ..., layer(max_label)], in one pass
        over the particles: a label-a particle counts in layers 1..a."""
        particles = self.particles()
        stack = [[0] * self.n for _ in range(max([a for _, a in particles], default=0))]
        for site, a in particles:
            for layer in stack[:a]:
                layer[site - 1] += 1
        return [tuple(layer) for layer in stack]

    @classmethod
    def from_layers(cls, layers: Sequence[Indicator], n: int | None = None) -> Word:
        """Rebuild a word from nested layers; inverse of :meth:`layers`.  An
        empty stack needs the ring size ``n``; a given ``n`` must match the layers."""
        if not layers:
            if n is None:
                raise ValueError("ring size required for an empty layer stack")
            return cls.from_particles(n, ())
        for low, high in zip(layers, layers[1:]):
            if len(low) != len(high):
                raise ValueError("layers of unequal length")
            if any(h > l for l, h in zip(low, high)):
                raise ValueError("layers are not nested")
        if not layers[0] or min(_ints(chain(*layers), "layer counts")) < 0:
            raise ValueError("layers must be nonempty nonnegative counts")
        if n is not None and n != len(layers[0]):
            raise ValueError(f"layers of length {len(layers[0])} on a ring of size {n}")
        if cls.kind == "fermionic" and max(layers[0]) > 1:
            raise ValueError("fermionic layer counts must be 0 or 1")
        return _stacked(cls, layers, len(layers[0]))

    def increment(self, j: int) -> Word:
        """Raise every label by j; empty sites stay empty."""
        if type(j) is not int or j < 0:
            raise ValueError(f"shift j must be a nonnegative integer, got {j!r}")
        return self.from_particles(self.n, [(site, a + j) for site, a in self.particles()])


@dataclass(frozen=True, slots=True)
class FermionicWord(Word):
    """Per-site labels; 0 means empty.  Immutable and hashable."""

    kind: ClassVar[str] = "fermionic"
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", _ints(self.letters, "letters"))
        if not self.letters:
            raise ValueError("word must have at least one site")
        if any(a < 0 for a in self.letters):
            raise ValueError("letters must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.letters)

    def support(self) -> tuple[int, ...]:
        """Sites carrying a particle, ascending."""
        return tuple(j + 1 for j, a in enumerate(self.letters) if a)

    def particles(self) -> tuple[tuple[int, int], ...]:
        """The (site, label) particles, sites ascending."""
        return tuple((j + 1, a) for j, a in enumerate(self.letters) if a)

    @classmethod
    def from_particles(cls, n: int, particles: Iterable[tuple[int, int]]) -> "FermionicWord":
        """The word on n sites holding ``particles``; inverse of :meth:`particles`."""
        sites = _site_labels(n, particles)
        if max(map(len, sites)) > 1:
            raise ValueError("a fermionic site holds at most one particle")
        return _word(cls, tuple([s[0] if s else 0 for s in sites]))

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.letters)


@dataclass(frozen=True, slots=True)
class BosonicWord(Word):
    """Per-site multisets of positive labels, each stored sorted ascending."""

    kind: ClassVar[str] = "bosonic"
    sites: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(sorted(_ints(s, "labels"))) for s in self.sites)
        object.__setattr__(self, "sites", norm)
        if not norm:
            raise ValueError("word must have at least one site")
        if any(a < 1 for s in norm for a in s):
            raise ValueError("labels must be positive")

    @property
    def n(self) -> int:
        return len(self.sites)

    def particles(self) -> tuple[tuple[int, int], ...]:
        """The (site, label) particles, sites ascending, labels ascending at a site."""
        return tuple((j + 1, a) for j, s in enumerate(self.sites) for a in s)

    @classmethod
    def from_particles(cls, n: int, particles: Iterable[tuple[int, int]]) -> "BosonicWord":
        """The word on n sites holding ``particles``; inverse of :meth:`particles`."""
        return _word(cls, tuple([tuple(sorted(s)) for s in _site_labels(n, particles)]))

    def __str__(self) -> str:
        return "(" + ",".join("".join(map(str, s)) if s else "-" for s in self.sites) + ")"


WORD_CLASSES: dict[str, type[Word]] = {"fermionic": FermionicWord, "bosonic": BosonicWord}
_STORE = {"fermionic": FermionicWord.letters.__set__, "bosonic": BosonicWord.sites.__set__}  # slot setters, by kind
