import dataclasses
import itertools
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqueues import (
    BosonicMLQ,
    BosonicWord,
    FermionicMLQ,
    FermionicWord,
    apply_row_bosonic,
    apply_row_fermionic,
    apply_twists,
    count_queues,
    enumerate_queues,
    label_trace,
    project,
    ring,
    straighten,
    twist,
)
from mlqueues.mlq import _exchange, colex_rows

from conftest import bq, bw, fq, fw


def small_queues(kind, max_n=4, max_k=3, max_part=2):
    for n in range(1, max_n + 1):
        cap = min(max_part, n) if kind == "fermionic" else max_part
        for k in range(1, max_k + 1):
            for alpha in itertools.product(range(cap + 1), repeat=k):
                yield from enumerate_queues(alpha, n, kind)


class TestShapeWeight:
    def test_shape_examples(self):
        assert fq(4, (2,), (2, 3, 4), (1, 4)).shape == (1, 3, 2)
        assert fq(3, ()).shape == (0,)
        assert bq(4, (2,), (2, 3, 3), (1, 1)).shape == (1, 3, 2)

    def test_weight_examples(self):
        assert fq(4, (2,), (2, 3, 4), (1, 4)).weight() == (1, 2, 1, 2)
        assert bq(4, (2,), (2, 3, 3), (1, 1)).weight() == (2, 2, 2, 0)
        assert fq(3, (), ()).weight() == (0, 0, 0)

    def test_straightness(self):
        assert fq(3, (1, 2), (3,)).is_straight
        assert not fq(3, (1,), (2, 3)).is_straight


class TestTwist:
    def test_fermionic_examples(self):
        q = fq(6, (1, 2, 4), (1, 3, 5, 6), (2, 3))
        assert twist(q, 1).rows == ((1, 2, 4, 5), (1, 3, 6), (2, 3))
        assert twist(q, 2).rows == ((1, 2, 4), (3, 5), (1, 2, 3, 6))

    def test_bosonic_examples(self):
        d = bq(6, (1, 2, 2, 4, 5), (2, 2), (1, 2, 4, 6))
        assert twist(d, 1).rows == ((1, 5), (2, 2, 2, 2, 4), (1, 2, 4, 6))
        assert twist(d, 2).rows == ((1, 2, 2, 4, 5), (1, 2, 2, 2), (4, 6))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            twist(fq(3, (1,), (2,)), 2)

    @pytest.mark.parametrize("i", [True, 1.0, "1"])
    def test_index_must_be_an_int(self, i):
        for q in (fq(3, (1,), (2,)), bq(3, (1,), (2,))):
            with pytest.raises(ValueError, match="twist index must be an integer"):
                twist(q, i)

    def test_involution_exhaustive(self):
        for kind in ("fermionic", "bosonic"):
            for q in small_queues(kind):
                for i in range(1, q.k):
                    assert twist(twist(q, i), i) == q

    def test_braid_and_commutation(self):
        for kind in ("fermionic", "bosonic"):
            for q in small_queues(kind, max_n=3, max_k=3, max_part=2):
                if q.k >= 3:
                    left = twist(twist(twist(q, 1), 2), 1)
                    right = twist(twist(twist(q, 2), 1), 2)
                    assert left == right
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(2, 5)
            rows = tuple(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))) for _ in range(4))
            q = FermionicMLQ(n, rows)
            assert twist(twist(q, 1), 3) == twist(twist(q, 3), 1)
            assert twist(twist(twist(q, 2), 3), 2) == twist(twist(twist(q, 3), 2), 3)

    def test_shape_transposes_and_weight_fixed(self):
        for kind in ("fermionic", "bosonic"):
            for q in small_queues(kind, max_n=3):
                for i in range(1, q.k):
                    t = twist(q, i)
                    want = list(q.shape)
                    want[i - 1], want[i] = want[i], want[i - 1]
                    assert t.shape == tuple(want)
                    assert t.weight() == q.weight()


class TestApplyTwists:
    def test_empty_word_is_identity(self):
        q = fq(4, (1, 2), (3,))
        assert apply_twists(q, ()) == q

    def test_repeated_index_cancels(self):
        q = bq(3, (1, 1), (2,))
        assert apply_twists(q, (1, 1)) == q

    def test_leftmost_factor_applies_last(self):
        q = fq(6, (1, 2, 4), (1, 3, 5, 6), (2,), (1, 2, 3, 5))
        assert apply_twists(q, (2, 3, 1)) == twist(twist(twist(q, 1), 3), 2)

    def test_reproduces_straightened_queue(self):
        q = fq(6, (1, 2, 4), (1, 3, 5, 6), (2,), (1, 2, 3, 5))
        assert apply_twists(q, (2, 3, 1)).rows == ((1, 2, 4, 5), (1, 2, 3, 6), (1, 3, 5), (2,))


class TestStraighten:
    def test_already_straight(self):
        q = fq(4, (1, 2, 3), (2, 4), (1,))
        assert straighten(q) == (q, ())

    def test_fermionic_example(self):
        q = fq(6, (1, 2, 4), (1, 3, 5, 6), (2,), (1, 2, 3, 5))
        s, word = straighten(q)
        assert s.shape == (4, 4, 3, 1)
        assert apply_twists(q, word) == s

    def test_bosonic_example(self):
        d = bq(6, (1, 2, 2, 4, 5), (2, 2), (1, 2, 4, 6))
        s, word = straighten(d)
        assert s == twist(d, 2)
        assert word == (2,)

    def test_word_replays_on_sweep(self):
        rng = random.Random(6)
        for _ in range(80):
            n = rng.randint(2, 5)
            rows = tuple(tuple(sorted(rng.choices(range(1, n + 1), k=rng.randint(0, 3)))) for _ in range(rng.randint(1, 4)))
            d = BosonicMLQ(n, rows)
            s, word = straighten(d)
            assert s.is_straight
            assert apply_twists(d, word) == s


class TestEnumeration:
    def test_counts(self):
        assert count_queues((2, 3, 1), 4, "fermionic") == 96
        assert count_queues((2, 1), 3, "bosonic") == 18
        assert count_queues((1,), 1, "fermionic") == 1
        assert len(list(enumerate_queues((2, 3, 1), 4, "fermionic"))) == 96
        assert len(list(enumerate_queues((2, 1), 3, "bosonic"))) == 18

    def test_oversized_fermionic_row_rejected(self):
        with pytest.raises(ValueError):
            count_queues((5,), 4, "fermionic")
        with pytest.raises(ValueError):
            list(enumerate_queues((5,), 4, "fermionic"))

    @pytest.mark.parametrize("alpha", [(True,), (1.5,), (2, 1.0)], ids=["bool", "1.5", "float-entry"])
    def test_non_integer_shape_entries_rejected(self, alpha):
        # (True,) used to count and enumerate as (1,); a float died with TypeError in math.comb
        with pytest.raises(ValueError, match="^shape entries must be integers$"):
            count_queues(alpha, 3, "fermionic")
        with pytest.raises(ValueError, match="^shape entries must be integers$"):
            enumerate_queues(alpha, 3, "bosonic")

    def test_shape_checked_on_the_call(self):
        for alpha, n, kind in (((5,), 4, "fermionic"), ((), 3, "fermionic"), ((1,), 3, "mixed"), ((1,), 0, "bosonic")):
            with pytest.raises(ValueError):
                enumerate_queues(alpha, n, kind)

    def test_colex_row_order(self):
        assert colex_rows(4, 2, "fermionic") == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
        assert colex_rows(2, 2, "bosonic") == [(1, 1), (1, 2), (2, 2)]

    @pytest.mark.parametrize("kind", ("fermionic", "bosonic"))
    def test_colex_rows_match_the_recursive_reference(self, kind):
        def subsets(n, size):  # size-``size`` subsets of {1..n}, the largest site varying slowest
            if size == 0:
                yield ()
                return
            for top in range(size, n + 1):
                for rest in subsets(top - 1, size - 1):
                    yield rest + (top,)

        def multisets(n, size):
            if size == 0:
                yield ()
                return
            for top in range(1, n + 1):
                for rest in multisets(top, size - 1):
                    yield rest + (top,)

        reference = subsets if kind == "fermionic" else multisets
        for n in range(1, 9):
            for size in range(7):  # fermionic sizes above n included: no rows
                assert colex_rows(n, size, kind) == list(reference(n, size)), (n, size)

    def test_top_row_varies_fastest(self):
        qs = list(enumerate_queues((1, 1), 2, "fermionic"))
        assert [q.rows for q in qs] == [((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,))]

    def test_stream_is_deterministic(self):
        a = [q.rows for q in enumerate_queues((2, 1), 3, "bosonic")]
        b = [q.rows for q in enumerate_queues((2, 1), 3, "bosonic")]
        assert a == b and len(set(a)) == len(a)


class TestValidation:
    def test_duplicate_fermionic_site_rejected(self):
        with pytest.raises(ValueError):
            FermionicMLQ(3, ((1, 1),))

    def test_rows_sorted_canonically(self):
        assert BosonicMLQ(3, ((3, 1, 1),)).rows == ((1, 1, 3),)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            FermionicMLQ(3, ((4,),))

    def test_non_integer_sites_rejected(self):
        with pytest.raises(ValueError, match="row sites must be integers"):
            FermionicMLQ(3, ((1.7,),))
        with pytest.raises(ValueError, match="row sites must be integers"):
            BosonicMLQ(3, ((True,),))
        with pytest.raises(ValueError, match="ring size must be a positive integer"):
            BosonicMLQ(3.0, ((1,),))

    def test_kinds_never_compare_equal(self):
        f, b = FermionicMLQ(3, ((1, 2), (3,))), BosonicMLQ(3, ((1, 2), (3,)))
        assert f != b and f.rows == b.rows
        assert repr(f) == "FermionicMLQ(n=3, rows=((1, 2), (3,)))"
        assert repr(b) == "BosonicMLQ(n=3, rows=((1, 2), (3,)))"
        assert (f.kind, b.kind) == ("fermionic", "bosonic")



@st.composite
def validated_queues(draw):
    kind = draw(st.sampled_from(("fermionic", "bosonic")))
    n = draw(st.integers(1, 6))
    if kind == "fermionic":
        row = st.lists(st.integers(1, n), max_size=n, unique=True)
    else:
        row = st.lists(st.integers(1, n), max_size=5)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    cls = FermionicMLQ if kind == "fermionic" else BosonicMLQ
    return cls(n, tuple(tuple(r) for r in rows))


def assert_like_validated(derived, rebuilt):
    """A derived value equals, hashes, prints and pickles like its validated
    rebuild, and keeps no ``__dict__``."""
    assert type(derived) is type(rebuilt) and derived == rebuilt
    assert hash(derived) == hash(rebuilt) and repr(derived) == repr(rebuilt)
    back = pickle.loads(pickle.dumps(derived))
    assert type(back) is type(rebuilt) and back == rebuilt and hash(back) == hash(rebuilt)
    assert not hasattr(derived, "__dict__")


def assert_matches_validated_rebuild(q):
    assert_like_validated(q, type(q)(q.n, q.rows))
    assert type(q.rows) is tuple and all(type(r) is tuple for r in q.rows)


def assert_word_matches_validated_rebuild(w):
    if isinstance(w, FermionicWord):
        rebuilt = FermionicWord(w.letters)
        assert type(w.letters) is tuple and all(type(a) is int for a in w.letters)
    else:
        rebuilt = BosonicWord(w.sites)
        assert type(w.sites) is tuple and all(type(s) is tuple for s in w.sites)
    assert_like_validated(w, rebuilt)


class TestDerivedQueues:
    """Queues and words the package derives without re-validation equal their validated rebuild."""

    @settings(max_examples=300, deadline=None)
    @given(validated_queues(), st.data())
    def test_twist_and_ringing(self, q, data):
        for i in range(1, q.k):
            assert_matches_validated_rebuild(twist(q, i))
        site = data.draw(st.integers(1, q.n))
        x = None if isinstance(q, FermionicMLQ) else data.draw(st.none() | st.just(tuple(range(1, q.n + 1))))
        for reverse in (False, True):
            assert_matches_validated_rebuild(ring(q, site, x, reverse)[0])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("fermionic", "bosonic")), st.integers(1, 4), st.lists(st.integers(0, 3), min_size=1, max_size=3))
    def test_enumeration(self, kind, n, alpha):
        if kind == "fermionic":
            alpha = [min(a, n) for a in alpha]
        for q in enumerate_queues(alpha, n, kind):
            assert_matches_validated_rebuild(q)

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            list(enumerate_queues((), 3, "fermionic"))

    @settings(max_examples=300, deadline=None)
    @given(validated_queues(), st.data())
    def test_row_operator_words(self, q, data):
        words = [project(q), *label_trace(q)]
        words += [type(w).from_particles(w.n, w.particles()) for w in words] + [type(w).from_layers(w.layers(), w.n) for w in words]
        for w in words:
            assert_word_matches_validated_rebuild(w)
        fresh = data.draw(st.integers(1, 3))
        label = st.integers(max(fresh, 2), fresh + 3)
        if q.kind == "fermionic":
            letters = data.draw(st.lists(st.just(0) | label, min_size=q.n, max_size=q.n))
            out = apply_row_fermionic(q.rows[0], fresh, FermionicWord(tuple(letters)))
        else:
            sites = data.draw(st.lists(st.lists(label, max_size=3), min_size=q.n, max_size=q.n))
            out = apply_row_bosonic(q.rows[0], fresh, BosonicWord(tuple(map(tuple, sites))))
        assert_word_matches_validated_rebuild(out)


SLOTTED = {
    "FermionicWord": lambda: fw("102"),
    "BosonicWord": lambda: bw("12,-,3"),
    "FermionicMLQ": lambda: fq(3, (1, 2), (3,)),
    "BosonicMLQ": lambda: bq(3, (1, 1), (3,)),
}


@pytest.mark.parametrize("make", SLOTTED.values(), ids=SLOTTED)
def test_value_types_are_slotted_and_frozen(make):
    value = make()
    assert not hasattr(value, "__dict__")
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))


def all_rows(n, kind, max_size):
    return [r for size in range(max_size + 1) for r in colex_rows(n, size, kind)]


class TestExchange:
    def test_fermionic_count_check_fires_on_a_doubled_site(self):
        with pytest.raises(ValueError, match="duplicate site"):
            _exchange((1, 1), (2,), 3, True)
        with pytest.raises(ValueError, match="duplicate site"):
            _exchange((1,), (2, 2), 3, True)

    def test_memo_agrees_with_the_unmemoized_exchange(self):
        for n in range(1, 5):
            for kind in ("fermionic", "bosonic"):
                fermionic = kind == "fermionic"
                rows = all_rows(n, kind, n if fermionic else 3)
                for lower, upper in itertools.product(rows, repeat=2):
                    expected = _exchange.__wrapped__(lower, upper, n, fermionic)
                    for _ in range(2):  # a miss, then a hit
                        got = _exchange(lower, upper, n, fermionic)
                        assert got == expected
                        assert type(got) is tuple and all(type(r) is tuple for r in got)

    def test_a_raised_exchange_is_not_cached(self):
        before = _exchange.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate site"):
                _exchange((1, 1), (2,), 3, True)
        assert _exchange.cache_info().currsize == before

    def test_memo_is_bounded(self):
        rows = all_rows(6, "bosonic", 3)
        assert len(rows) ** 2 > 4096
        for lower, upper in itertools.product(rows, repeat=2):
            _exchange(lower, upper, 6, False)
        assert _exchange.cache_info().currsize == _exchange.cache_info().maxsize == 4096

    def test_memo_shared_by_threads(self):
        # verify forks processes, not threads, but library callers may share the one memo between threads
        rows = all_rows(5, "bosonic", 2)
        expected = {(l, u): _exchange.__wrapped__(l, u, 5, False) for l, u in itertools.product(rows, repeat=2)}
        wrong = []

        def work(seed):
            keys = list(expected)
            random.Random(seed).shuffle(keys)
            wrong.extend(k for k in keys if _exchange(*k, 5, False) != expected[k])

        _exchange.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert _exchange.cache_info().currsize == len(expected)
