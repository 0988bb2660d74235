import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqueues import (
    BosonicWord,
    FermionicWord,
    add_layer,
    indicator_multiset,
    indicator_subset,
    multiset_indicator,
    subset_indicator,
)

from mlqueues.words import WORD_CLASSES

from conftest import bw, fw


class TestIndicators:
    def test_subset_indicator_examples(self):
        assert subset_indicator({1, 3, 4, 6}, 6) == (1, 0, 1, 1, 0, 1)
        assert subset_indicator({3, 6}, 6) == (0, 0, 1, 0, 0, 1)
        assert subset_indicator(set(), 3) == (0, 0, 0)

    def test_multiset_indicator_examples(self):
        assert multiset_indicator([1, 1, 3, 4, 4, 4], 6) == (2, 0, 1, 3, 0, 0)
        assert multiset_indicator([1, 4, 4], 6) == (1, 0, 0, 2, 0, 0)
        assert multiset_indicator([], 4) == (0, 0, 0, 0)

    def test_out_of_range_site_rejected(self):
        with pytest.raises(ValueError):
            subset_indicator({0}, 3)
        with pytest.raises(ValueError):
            subset_indicator({4}, 3)
        with pytest.raises(ValueError):
            multiset_indicator([7], 6)

    def test_duplicate_site_rejected_in_subset(self):
        with pytest.raises(ValueError):
            subset_indicator([2, 2], 4)

    def test_inverses(self):
        for sites in itertools.chain.from_iterable(itertools.combinations(range(1, 6), r) for r in range(6)):
            assert indicator_subset(subset_indicator(sites, 5)) == tuple(sites)
        rng = random.Random(5)
        for _ in range(50):
            ms = tuple(sorted(rng.choices(range(1, 7), k=rng.randint(0, 8))))
            assert indicator_multiset(multiset_indicator(ms, 6)) == ms


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


class TestAddLayer:
    def test_example(self):
        base = BosonicWord(tuple((1,) * c for c in multiset_indicator([1, 1, 3, 4, 4, 4], 6)))
        out = add_layer(base, multiset_indicator([1, 4, 4], 6))
        assert out == bw("12,-,1,122,-,-")

    def test_zero_layer_is_identity(self):
        w = bw("12,-,334")
        assert add_layer(w, (0, 0, 0)) == w

    def test_hand_derived(self):
        assert add_layer(bw("11,-"), (1, 0)) == bw("12,-")

    def test_oversized_layer_rejected(self):
        with pytest.raises(ValueError):
            add_layer(bw("1,-"), (2, 0))


class TestIncrement:
    def test_examples(self):
        v = fw("102013")
        assert v.increment(1) == fw("203024")
        assert v.increment(2) == fw("304035")
        assert v.increment(0) == v
        V = bw("-,24,113,-")
        assert V.increment(1) == bw("-,35,224,-")
        assert V.increment(2) == bw("-,46,335,-")

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


@st.composite
def words(draw):
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return FermionicWord(tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))))
    sites = draw(st.lists(st.lists(st.integers(1, 5), max_size=3), min_size=n, max_size=n))
    return BosonicWord(tuple(map(tuple, sites)))


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
