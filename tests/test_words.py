import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlqueues import (
    BosonicMLQ,
    BosonicWord,
    FermionicWord,
    count_queues,
    count_states,
    enumerate_queues,
    enumerate_states,
    indicator_multiset,
    multiset_indicator,
    pair_strictly_left,
    pair_weakly_right,
)

from mlqueues.documents import emit_queue, emit_word, parse_queue, parse_word
from mlqueues.projection import fiber_law
from mlqueues.words import WORD_CLASSES, _site_counts

from conftest import bw, fw, queues


class TestIndicators:
    def test_subset_indicator_examples(self):
        # a subset's per-site counts are its 0/1 indicator
        assert multiset_indicator({1, 3, 4, 6}, 6) == (1, 0, 1, 1, 0, 1)
        assert multiset_indicator({3, 6}, 6) == (0, 0, 1, 0, 0, 1)
        assert multiset_indicator(set(), 3) == (0, 0, 0)

    def test_multiset_indicator_examples(self):
        assert multiset_indicator([1, 1, 3, 4, 4, 4], 6) == (2, 0, 1, 3, 0, 0)
        assert multiset_indicator([1, 4, 4], 6) == (1, 0, 0, 2, 0, 0)
        assert multiset_indicator([], 4) == (0, 0, 0, 0)

    def test_out_of_range_site_rejected(self):
        with pytest.raises(ValueError):
            multiset_indicator({0}, 3)
        with pytest.raises(ValueError):
            multiset_indicator({4}, 3)
        with pytest.raises(ValueError):
            multiset_indicator([7], 6)

    def test_duplicate_site_rejected_in_subset(self):
        with pytest.raises(ValueError, match="duplicate site"):
            _site_counts([2, 2], 4, True)

    @pytest.mark.parametrize("site", [True, 1.0, 2.5], ids=["bool", "integral-float", "float"])
    @pytest.mark.parametrize("indicator", [multiset_indicator])
    def test_non_integer_site_rejected(self, indicator, site):
        # a bool site used to count as site 1, a float one raised TypeError
        with pytest.raises(ValueError, match="outside 1..3"):
            indicator([site], 3)

    def test_inverses(self):
        for sites in itertools.chain.from_iterable(itertools.combinations(range(1, 6), r) for r in range(6)):
            assert indicator_multiset(multiset_indicator(sites, 5)) == tuple(sites)
        rng = random.Random(5)
        for _ in range(50):
            ms = tuple(sorted(rng.choices(range(1, 7), k=rng.randint(0, 8))))
            assert indicator_multiset(multiset_indicator(ms, 6)) == ms

    # [-1, 2] used to give (2, 2); [1.5] and [True, 1.0] ended in a TypeError
    @pytest.mark.parametrize("counts", [[-1, 2], [1.5], [True, 1.0]])
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            indicator_multiset(counts)


class TestLayers:
    def test_fermionic_layer_examples(self):
        w = fw("3252035")
        assert w.layer(3) == (1, 0, 1, 0, 0, 1, 1)
        assert w.layer(1) == (1, 1, 1, 1, 0, 1, 1)
        assert w.layer(1) == w.layer(2)
        assert w.layer(4) == w.layer(5) == (0, 0, 1, 0, 0, 0, 1)
        assert w.layer(w.max_label + 1) == (0,) * 7

    def test_bosonic_layer_examples(self):
        w = bw("233,-,2235,25")
        assert w.layer(1) == w.layer(2) == (3, 0, 4, 2)
        assert w.layer(3) == (2, 0, 2, 1)
        assert w.layer(4) == w.layer(5) == (0, 0, 1, 1)
        assert bw("-,-").layer(1) == (0, 0)

    @pytest.mark.parametrize("m", [1.5, True, "1", None])
    @pytest.mark.parametrize("w", [fw("201"), bw("2,-,1")], ids=["fermionic", "bosonic"])
    def test_non_integer_layer_index_rejected(self, w, m):
        # layer(1.5) used to return layer 2, and layer(True) layer 1
        with pytest.raises(ValueError, match="layer index m must be an integer"):
            w.layer(m)

    def test_layers_monotone(self):
        for w in (fw("3252035"), bw("233,-,2235,25")):
            ls = w.layers()
            for low, high in zip(ls, ls[1:]):
                assert all(h <= l for l, h in zip(low, high))

    def test_roundtrip_examples(self):
        w = fw("3252035")
        assert FermionicWord.from_layers(w.layers()) == w
        b = bw("233,-,2235,25")
        assert BosonicWord.from_layers(b.layers()) == b
        assert FermionicWord.from_layers([(1, 0, 1)]) == fw("101")
        assert FermionicWord.from_layers([], n=4) == fw("0000")

    def test_roundtrip_exhaustive_small(self):
        for n in range(1, 4):
            for letters in itertools.product(range(4), repeat=n):
                w = FermionicWord(letters)
                assert FermionicWord.from_layers(w.layers(), n) == w

    def test_roundtrip_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 8)
            w = FermionicWord(tuple(rng.randint(0, 5) for _ in range(n)))
            assert FermionicWord.from_layers(w.layers(), n) == w
            sites = tuple(tuple(sorted(rng.choices(range(1, 6), k=rng.randint(0, 3)))) for _ in range(n))
            b = BosonicWord(sites)
            assert BosonicWord.from_layers(b.layers(), n) == b

    def test_non_nested_layers_rejected(self):
        with pytest.raises(ValueError):
            FermionicWord.from_layers([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            BosonicWord.from_layers([(1, 0), (0, 1)])

    @pytest.mark.parametrize(
        "layers", [[(1, -1)], [(True, 0)], [(1.0, 0)], [()]], ids=["negative", "bool", "float", "no-sites"]
    )
    def test_malformed_layer_counts_rejected(self, layers):
        # a bosonic stack with a negative or bool count used to give a word
        for cls in (FermionicWord, BosonicWord):
            with pytest.raises(ValueError, match="layer"):
                cls.from_layers(layers)


    def test_stacked_layer_example(self):
        layers = [multiset_indicator([1, 1, 3, 4, 4, 4], 6), multiset_indicator([1, 4, 4], 6)]
        assert BosonicWord.from_layers(layers) == bw("12,-,1,122,-,-")

    def test_zero_layer_on_top_is_identity(self):
        w = bw("12,-,334")
        assert BosonicWord.from_layers(w.layers() + [(0, 0, 0)]) == w

    def test_stacked_layer_hand_derived(self):
        assert BosonicWord.from_layers([(2, 0), (1, 0)]) == bw("12,-")

    def test_oversized_layer_is_not_nested(self):
        with pytest.raises(ValueError, match="not nested"):
            BosonicWord.from_layers([(1, 0), (2, 0)])

    @pytest.mark.parametrize("cls", [FermionicWord, BosonicWord])
    def test_ring_size_must_match_layers(self, cls):
        # a given n used to be ignored: [(1, 1), (1, 0), (0, 0)] on n = 5 gave a 2-site word
        with pytest.raises(ValueError, match="ring of size 5"):
            cls.from_layers([(1, 1), (1, 0), (0, 0)], 5)
        assert cls.from_layers([(1, 1), (1, 0)], 2) == cls.from_layers([(1, 1), (1, 0)])

    def test_fermionic_site_counts_at_most_one(self):
        # [(2, 0)] used to give the word 2 0, whose layers are [(1, 0), (1, 0)]
        with pytest.raises(ValueError, match="0 or 1"):
            FermionicWord.from_layers([(2, 0)])
        assert BosonicWord.from_layers([(2, 0)]) == bw("11,-")


class TestIncrement:
    def test_examples(self):
        v = fw("102013")
        assert v.increment(1) == fw("203024")
        assert v.increment(2) == fw("304035")
        assert v.increment(0) == v
        V = bw("-,24,113,-")
        assert V.increment(1) == bw("-,35,224,-")
        assert V.increment(2) == bw("-,46,335,-")

    @pytest.mark.parametrize("j", [1.5, True, "1", -1])
    @pytest.mark.parametrize("w", [fw("201"), bw("2,-,1")], ids=["fermionic", "bosonic"])
    def test_non_integer_or_negative_shift_rejected(self, w, j):
        # increment(True) used to shift by 1, and increment(1.5) blamed the particles
        with pytest.raises(ValueError, match="shift j must be a nonnegative integer"):
            w.increment(j)

    @settings(max_examples=60, derandomize=True)
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=8),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    def test_additive(self, letters, a, b):
        w = FermionicWord(tuple(letters))
        assert w.increment(a + b) == w.increment(a).increment(b)


class TestValidation:
    def test_negative_letter_rejected(self):
        with pytest.raises(ValueError):
            FermionicWord((1, -1))

    def test_nonpositive_label_rejected(self):
        with pytest.raises(ValueError):
            BosonicWord(((0,),))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError, match="letters must be integers"):
            FermionicWord((1.5, 0))
        with pytest.raises(ValueError, match="labels must be integers"):
            BosonicWord(((2.9,),))
        with pytest.raises(ValueError, match="letters must be integers"):
            FermionicWord((True, 0))

    def test_bosonic_sites_canonically_sorted(self):
        assert BosonicWord(((3, 1, 2),)).sites == ((1, 2, 3),)

    def test_content_and_support(self):
        w = fw("3052")
        assert w.support() == (1, 3, 4)
        assert w.content() == (2, 3, 5)
        assert bw("13,2,-").content() == (1, 2, 3)

    # every entry point that takes a ring size checks it through one words._ring_size
    RING_SIZE_ENTRY_POINTS = {
        "queue": lambda n: BosonicMLQ(n, ((1,),)),
        "count_queues": lambda n: count_queues((1,), n, "fermionic"),
        "enumerate_queues": lambda n: enumerate_queues((1,), n, "fermionic"),
        "count_states": lambda n: count_states((1,), n, "fermionic"),
        "enumerate_states": lambda n: enumerate_states((1,), n, "bosonic"),
        "fiber_law": lambda n: fiber_law((1,), n, "fermionic"),
        "from_particles": lambda n: FermionicWord.from_particles(n, ()),
        "parse_queue": lambda n: parse_queue({"kind": "fermionic", "n": n, "rows": [[1]]}),
        "parse_word": lambda n: parse_word({"kind": "fermionic_word", "n": n, "letters": [1]}),
        "pair_weakly_right": lambda n: pair_weakly_right([], [], n),
        "pair_strictly_left": lambda n: pair_strictly_left([], [], n),
        "multiset_indicator": lambda n: multiset_indicator([], n),
    }

    @pytest.mark.parametrize("n", (True, 2.5, 2.0, 0, -1))
    @pytest.mark.parametrize("entry", RING_SIZE_ENTRY_POINTS.values(), ids=RING_SIZE_ENTRY_POINTS)
    def test_ring_size_must_be_a_positive_int(self, entry, n):
        # a bool or float is no ring size, even where it compares as a positive number
        with pytest.raises(ValueError, match="^ring size must be a positive integer$"):
            entry(n)


@st.composite
def words(draw):
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return FermionicWord(tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))))
    sites = draw(st.lists(st.lists(st.integers(1, 5), max_size=3), min_size=n, max_size=n))
    return BosonicWord(tuple(map(tuple, sites)))


class TestLayersInOnePass:
    @settings(max_examples=200, derandomize=True)
    @given(words())
    @example(fw("000"))
    @example(bw("-,-,-"))
    def test_layers_are_the_layer_indicators(self, w):
        assert w.layers() == [w.layer(m) for m in range(1, w.max_label + 1)]


class TestParticles:
    def test_examples(self):
        assert fw("3052").particles() == ((1, 3), (3, 5), (4, 2))
        assert bw("31,-,2").particles() == ((1, 1), (1, 3), (3, 2))
        assert FermionicWord.from_particles(3, ()) == fw("000")
        assert BosonicWord.from_particles(2, [(2, 4), (1, 2), (2, 1)]) == bw("2,14")
        assert WORD_CLASSES == {"fermionic": FermionicWord, "bosonic": BosonicWord}
        assert (fw("1").kind, bw("1").kind) == ("fermionic", "bosonic")

    @pytest.mark.parametrize("cls", [FermionicWord, BosonicWord])
    @pytest.mark.parametrize(
        "n, particles",
        [(0, ()), (True, ()), (2, [(3, 1)]), (2, [(0, 1)]), (2, [(1, 0)]), (2, [(1, 1.0)]), (2, [(1.0, 1)])],
    )
    def test_from_particles_validates(self, cls, n, particles):
        with pytest.raises(ValueError):
            cls.from_particles(n, particles)

    def test_fermionic_site_holds_one_particle(self):
        with pytest.raises(ValueError, match="at most one particle"):
            FermionicWord.from_particles(2, [(1, 2), (1, 3)])

    @settings(max_examples=200, derandomize=True)
    @given(words())
    def test_round_trip(self, w):
        assert type(w).from_particles(w.n, w.particles()) == w
        assert [s for s, _ in w.particles()] == sorted(s for s, _ in w.particles())
        assert sorted(a for _, a in w.particles()) == list(w.content())


class TestRoundTrips:
    """Documents, layers and particles invert each other on words and queues of both kinds."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(words(), st.integers(0, 3))
    def test_word_round_trips_and_readings(self, w, j):
        assert parse_word(emit_word(w)) == w
        assert type(w).from_layers(w.layers(), w.n) == w
        assert type(w).from_particles(w.n, w.particles()) == w
        # the shared readings against a direct reading of each kind's storage
        if w.kind == "fermionic":
            labels = [a for a in w.letters if a]
            layer = lambda m: tuple(int(a >= m) for a in w.letters)
            shifted = FermionicWord(tuple(a + j if a else 0 for a in w.letters))
        else:
            labels = [a for s in w.sites for a in s]
            layer = lambda m: tuple(sum(a >= m for a in s) for s in w.sites)
            shifted = BosonicWord(tuple(tuple(a + j for a in s) for s in w.sites))
        assert list(w.content()) == sorted(labels) and w.max_label == max(labels, default=0)
        assert all(w.layer(m) == layer(m) for m in range(1, w.max_label + 2))
        assert w.increment(j) == shifted

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(queues())
    def test_queue_document_round_trip(self, q):
        assert parse_queue(emit_queue(q)) == q
