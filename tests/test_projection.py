import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlqueues import (
    BosonicMLQ,
    BosonicWord,
    FermionicMLQ,
    FermionicWord,
    ShapeError,
    apply_row_bosonic,
    apply_row_fermionic,
    apply_row_particlewise,
    apply_twists,
    check_r_expansion,
    ctm_components,
    ctm_project,
    enumerate_queues,
    ferrari_martin,
    label_trace,
    multiset_indicator,
    project,
    subset_indicator,
    twist,
)
from mlqueues import verify
from mlqueues.documents import parse_queue
from mlqueues.projection import _fold, canonical_order, fiber_law

from conftest import bq, bw, fq, fw, queues

EX_QUEUE = fq(6, (1, 2, 4), (1, 3, 5, 6), (2,), (1, 2, 3, 5))
EX_BQUEUE = bq(6, (1, 2, 2, 4, 5), (2, 2), (1, 2, 4, 6))


def random_queue(rng, kind, max_n=6, max_k=4, max_part=4):
    n = rng.randint(2, max_n)
    rows = []
    for _ in range(rng.randint(1, max_k)):
        cap = min(max_part, n) if kind == "fermionic" else max_part
        a = rng.randint(0, cap)
        if kind == "fermionic":
            rows.append(tuple(sorted(rng.sample(range(1, n + 1), a))))
        else:
            rows.append(tuple(sorted(rng.choices(range(1, n + 1), k=a))))
    cls = FermionicMLQ if kind == "fermionic" else BosonicMLQ
    return cls(n, tuple(rows))


LABEL_ONE = {
    "fermionic": (apply_row_fermionic, fw("10"), fw("01")),
    "bosonic": (apply_row_bosonic, bw("1,-"), bw("-,1")),
}


class TestApplyRow:
    @pytest.mark.parametrize("kind", sorted(LABEL_ONE))
    def test_label_one_collapses_only_with_an_error(self, kind):
        apply_row, word, image = LABEL_ONE[kind]
        assert apply_row([2], 1, word) == image == apply_row_particlewise([2], 1, word)
        with pytest.raises(ValueError, match="label-1 particle would get label 0"):
            apply_row([], 1, word)
        with pytest.raises(ValueError, match="label-1 particle would get label 0"):
            apply_row_particlewise([], 1, word)

    def test_word_of_the_other_kind_rejected(self):
        with pytest.raises(ValueError, match="fermionic row operator got a bosonic word"):
            apply_row_fermionic([1], 1, bw("2,-"))
        with pytest.raises(ValueError, match="bosonic row operator got a fermionic word"):
            apply_row_bosonic([1], 1, fw("20"))

    def test_non_integer_row_site_rejected(self):
        with pytest.raises(ValueError, match="site 1.5"):
            apply_row_bosonic([1.5], 1, bw("-,-"))
        with pytest.raises(ValueError, match="site True"):
            apply_row_fermionic([True], 1, fw("00"))


class TestApplyRowFermionic:
    def test_ten_site_example(self):
        out = apply_row_fermionic({2, 3, 4, 7, 9}, 1, fw("3242543303"))
        assert out == fw("1343225041")

    def test_eleven_site_example(self):
        out = apply_row_fermionic({2, 4, 5, 8, 10}, 1, FermionicWord((3, 2, 0, 4, 2, 5, 4, 3, 3, 0, 3)))
        assert out.letters == (1, 3, 0, 4, 3, 2, 2, 5, 0, 4, 1)

    def test_empty_word_labels_row(self):
        assert apply_row_fermionic({1, 3}, 2, fw("0000")) == fw("2020")

    def test_empty_row_decrements(self):
        assert apply_row_fermionic(set(), 1, fw("3040")) == fw("2030")

    def test_fresh_label_bound(self):
        apply_row_fermionic({1}, 2, fw("202"))  # equality with the smallest label is allowed
        with pytest.raises(ValueError):
            apply_row_fermionic({1}, 3, fw("202"))
        with pytest.raises(ValueError):
            apply_row_fermionic({1}, 0, fw("000"))

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="fermionic row contains a duplicate site"):
            apply_row_fermionic([2, 2], 1, FermionicWord((0, 0, 0)))
        with pytest.raises(ValueError, match="fermionic row contains a duplicate site"):
            apply_row_fermionic([1, 3, 1], 1, fw("202"))


class TestApplyRowBosonic:
    def test_five_site_example(self):
        out = apply_row_bosonic([1, 1, 2, 4], 1, bw("446,-,234,3,36"))
        assert out == bw("22344,6,-,16,2")

    def test_empty_row_decrements(self):
        assert apply_row_bosonic([], 1, bw("3,-")) == bw("2,-")

    def test_empty_word_labels_row(self):
        assert apply_row_bosonic([2, 2], 3, bw("-,-,-")) == bw("-,33,-")

    def test_fresh_label_bound(self):
        with pytest.raises(ValueError):
            apply_row_bosonic([1], 3, bw("2,-"))


class TestProject:
    def test_fermionic_example_and_twist_invariance(self):
        assert project(EX_QUEUE) == fw("330420")
        straightened = apply_twists(EX_QUEUE, (2, 3, 1))
        assert project(straightened) == fw("330420")

    def test_bosonic_example_and_twist_invariance(self):
        assert project(EX_BQUEUE) == bw("3,12,-,2,3,-")
        assert project(twist(EX_BQUEUE, 2)) == bw("3,12,-,2,3,-")

    def test_single_row(self):
        assert project(fq(3, (2,))) == fw("010")
        assert project(bq(2, (1, 1))) == bw("11,-")

    def test_twist_invariance_small_sweep(self):
        rng = random.Random(17)
        for _ in range(150):
            q = random_queue(rng, rng.choice(("fermionic", "bosonic")), max_n=5, max_k=3, max_part=3)
            for i in range(1, q.k):
                assert project(twist(q, i)) == project(q)

    def test_pinned_digest_of_whole_families(self):
        # digest of the projections computed before the row operators moved to
        # the run-length pairing kernel; any change in a single word shows here
        lines = [
            f"{kind} {q.rows} {project(q)}"
            for shape, n, kind in (((3, 2, 1), 5, "fermionic"), ((1, 3, 2), 5, "fermionic"),
                                   ((2, 2, 1), 3, "bosonic"), ((1, 2, 2), 3, "bosonic"))
            for q in enumerate_queues(shape, n, kind)
        ]
        assert len(lines) == 1216
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "0907c1a279a4d7b9729d8deb1fecb8313ba84b7db996328f28bf3e2f953db61e"

    def test_content_law(self):
        rng = random.Random(18)
        for _ in range(100):
            q = random_queue(rng, rng.choice(("fermionic", "bosonic")))
            w = project(q)
            lam = sorted(q.shape, reverse=True)
            for j, part in enumerate(lam, start=1):
                assert sum(w.layer(j)) == part


class TestFerrariMartin:
    def test_fermionic_example(self):
        assert ferrari_martin(fq(5, (1, 3, 4, 5), (2, 3, 4), (3, 5))) == fw("10332")

    def test_bosonic_example(self):
        assert ferrari_martin(bq(5, (1, 3, 3, 5), (2, 2, 4), (1, 2))) == bw("3,-,13,-,2")

    def test_one_row_queue(self):
        assert ferrari_martin(fq(4, (2, 4))) == fw("0101")

    def test_twisted_rejected(self):
        with pytest.raises(ShapeError):
            ferrari_martin(fq(3, (1,), (2, 3)))

    def test_agrees_with_fold_on_straight_sweep(self):
        for alpha in ((2, 1), (2, 2), (3, 1, 1)):
            for q in enumerate_queues(alpha, 4, "fermionic"):
                assert ferrari_martin(q) == project(q)
        for alpha in ((2, 1), (2, 2, 1)):
            for d in enumerate_queues(alpha, 3, "bosonic"):
                assert ferrari_martin(d) == project(d)


class TestParticlewise:
    def test_fermionic_appendix_example(self):
        order = ((2, 4), (4, 4), (3, 3), (5, 3), (6, 3), (1, 2))
        out = apply_row_particlewise({1, 3, 5, 6}, 2, fw("243433"), order=order)
        assert out == fw("324143")

    def test_bosonic_appendix_example_consistent_value(self):
        # The one-at-a-time route must agree with the simultaneous operator;
        # the value below is the agreed output for this input (the published
        # reference table for it is internally inconsistent, see the
        # acceptance notes).
        word = bw("2334,344,-,2,344")
        order = ((1, 4), (2, 4), (2, 4), (5, 4), (5, 4), (1, 3), (1, 3), (2, 3), (5, 3), (1, 2), (4, 2))
        out = apply_row_particlewise([1, 1, 1, 3, 3, 5, 5], 2, word, order)
        assert out == apply_row_bosonic([1, 1, 1, 3, 3, 5, 5], 2, word)
        assert out == bw("12344,-,44,-,1234")

    def test_distinct_labels_have_unique_order(self):
        word = fw("3010200")
        orders = [canonical_order(word)]
        assert orders == [((1, 3), (5, 2), (3, 1))]
        assert apply_row_particlewise({2, 4, 6}, 1, word) == apply_row_fermionic({2, 4, 6}, 1, word)

    def test_all_orders_agree_small(self):
        rng = random.Random(23)
        for _ in range(25):
            q = random_queue(rng, "fermionic", max_n=5, max_k=2, max_part=3)
            word = label_trace(q)[-1] if q.k > 1 else FermionicWord((0,) * q.n)
            expected = apply_row_fermionic(q.rows[0], 1, word)
            by_label = {}
            for p in word.particles():
                by_label.setdefault(p[1], []).append(p)
            classes = [by_label[a] for a in sorted(by_label, reverse=True)]
            for perm in itertools.product(*[itertools.permutations(c) for c in classes]):
                order = tuple(p for block in perm for p in block)
                assert apply_row_particlewise(q.rows[0], 1, word, order) == expected

    def test_all_orders_agree_small_bosonic(self):
        rng = random.Random(24)
        for _ in range(15):
            d = random_queue(rng, "bosonic", max_n=4, max_k=2, max_part=3)
            word = label_trace(d)[-1] if d.k > 1 else BosonicWord(((),) * d.n)
            if len(word.content()) > 6:
                continue
            expected = apply_row_bosonic(d.rows[0], 1, word)
            by_label = {}
            for j in range(1, word.n + 1):
                for a in word.sites[j - 1]:
                    by_label.setdefault(a, []).append((j, a))
            classes = [by_label[a] for a in sorted(by_label, reverse=True)]
            for perm in itertools.product(*[itertools.permutations(c) for c in classes]):
                order = tuple(p for block in perm for p in block)
                assert apply_row_particlewise(d.rows[0], 1, word, order) == expected

    @pytest.mark.parametrize("row", [[2, 2], [0], [4]], ids=["duplicate", "site-0", "site-n+1"])
    def test_rows_validated_like_the_operator(self, row):
        with pytest.raises(ValueError):
            apply_row_particlewise(row, 1, fw("000"))
        if row != [2, 2]:
            with pytest.raises(ValueError):
                apply_row_particlewise(row, 1, bw("-,-,-"))

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            apply_row_particlewise({1}, 1, fw("210"), order=((2, 1), (1, 2)))  # labels increase
        with pytest.raises(ValueError):
            apply_row_particlewise({1}, 1, fw("210"), order=((1, 2),))  # misses a particle

    @pytest.mark.parametrize(
        "order", [(1, (1, 2)), ((1, 2), 2), ((1, 2), (2, True)), ((1, 2), (2, 1.0)), ((1, 2), (2, 1, 0))]
    )
    def test_malformed_order_entries_rejected(self, order):
        # a bare site among (site, label) pairs used to fail the sort with TypeError
        with pytest.raises(ValueError, match=r"\(site, label\) pairs of integers"):
            apply_row_particlewise({1}, 1, fw("210"), order=order)


@st.composite
def rows_and_words(draw, collapse=False):
    """A row, a fresh label and a word whose labels are at least that label;
    a label-1 particle is left to collapse exactly when ``collapse`` is set."""
    kind = draw(st.sampled_from(("fermionic", "bosonic")))
    n = draw(st.integers(1, 6))
    fresh = 1 if collapse else draw(st.integers(1, 3))
    label = st.integers(fresh, fresh + 3)
    if kind == "fermionic":
        row = draw(st.lists(st.integers(1, n), max_size=n, unique=True))
        word = FermionicWord(tuple(draw(st.lists(st.just(0) | label, min_size=n, max_size=n))))
    else:
        row = draw(st.lists(st.integers(1, n), max_size=5))
        word = BosonicWord(tuple(map(tuple, draw(st.lists(st.lists(label, max_size=3), min_size=n, max_size=n)))))
    parts = word.particles()
    # the particles beyond the row's capacity collapse, and they hold the smallest labels
    assume(collapse == (len(parts) > len(row) and min(a for _, a in parts) == 1))
    return row, fresh, word


def row_operator(word):
    return apply_row_fermionic if word.kind == "fermionic" else apply_row_bosonic


class TestParticlewiseProperties:
    """The queueing replay equals the row operator on arbitrary words, not only on fold outputs."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows_and_words(), st.data())
    def test_equals_row_operator_under_any_priority_order(self, case, data):
        row, fresh, word = case
        expected = row_operator(word)(row, fresh, word)
        assert apply_row_particlewise(row, fresh, word, canonical_order(word)) == expected
        by_label = {}
        for p in word.particles():
            by_label.setdefault(p[1], []).append(p)
        order = tuple(p for a in sorted(by_label, reverse=True) for p in data.draw(st.permutations(by_label[a])))
        assert apply_row_particlewise(row, fresh, word, order) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows_and_words(collapse=True))
    def test_label_one_collapse_raises_in_both_routes(self, case):
        row, fresh, word = case
        for apply_row in (row_operator(word), apply_row_particlewise):
            with pytest.raises(ValueError, match="label-1 particle would get label 0"):
                apply_row(row, fresh, word)


class TestFoldProperties:
    """The layer fold against the independent routes on queues the sweeps do not reach."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(queues())
    def test_fold_equals_corner_transfer_label_passing_and_subqueues(self, q):
        w = project(q)
        assert w == ctm_project(q)
        straight = type(q)(q.n, tuple(sorted(q.rows, key=len, reverse=True)))
        assert project(straight) == ferrari_martin(straight)
        trace = label_trace(q)
        assert trace[0] == w
        # the fold carries exactly each word's layers, with no empty layer on top
        assert [list(map(tuple, layers)) for layers in _fold(q)] == [t.layers() for t in reversed(trace)]
        for j in range(1, q.k + 1):
            assert trace[j - 1] == project(type(q)(q.n, q.rows[j - 1 :])).increment(j - 1)


def r_matrix(bottom, top, n, kind):
    """The combinatorial R matrix: ``twist`` on the two-row queue (bottom, top)."""
    return twist(parse_queue({"kind": kind, "n": n, "rows": [list(bottom), list(top)]}), 1).rows


class TestCombinatorialR:
    def test_fermionic_example(self):
        assert r_matrix((1, 2, 4), (1, 3, 5, 6), 6, "fermionic") == ((1, 2, 4, 5), (1, 3, 6))

    def test_identical_rows_fixed(self):
        assert r_matrix((1, 3), (1, 3), 4, "fermionic") == ((1, 3), (1, 3))

    def test_bosonic_example(self):
        assert r_matrix((2, 2), (1, 2, 4, 6), 6, "bosonic") == ((1, 2, 2, 2), (4, 6))

    def test_mixed_kind_rejected(self):
        with pytest.raises(ValueError, match="duplicate site"):
            r_matrix((1, 1), (2,), 3, "fermionic")
        with pytest.raises(ValueError, match="queue kind"):
            r_matrix((1,), (2,), 3, "spin")


class TestCornerTransfer:
    def test_component_example(self):
        comps = ctm_components(EX_QUEUE)
        assert comps == [
            (1, 1, 0, 1, 0, 0),
            (1, 1, 0, 1, 1, 0),
            (0, 0, 0, 1, 0, 0),
            (1, 1, 0, 1, 1, 0),
        ]
        assert ctm_project(EX_QUEUE) == fw("330420")

    def test_intermediate_tensor_queues(self):
        r1 = twist(EX_QUEUE, 1)
        assert r1.rows == ((1, 2, 4, 5), (1, 3, 6), (2,), (1, 2, 3, 5))
        r12 = twist(twist(EX_QUEUE, 2), 1)
        assert r12.rows == ((4,), (1, 2, 3), (1, 2, 5, 6), (1, 2, 3, 5))
        r13 = twist(twist(twist(EX_QUEUE, 3), 2), 1)
        assert r13.rows == ((1, 2, 4, 5), (1, 3, 6), (1, 2, 3, 5), (2,))

    def test_straightened_components_are_relabelled(self):
        comps = ctm_components(EX_QUEUE)
        prime = apply_twists(EX_QUEUE, (2, 3, 1))
        comps_prime = ctm_components(prime)
        rho = [2, 4, 1, 3]  # where each row of the straightened queue came from
        assert comps_prime == [comps[r - 1] for r in rho]
        assert ctm_project(prime) == ctm_project(EX_QUEUE)

    def test_single_factor(self):
        q = fq(4, (2, 3))
        assert ctm_components(q) == [subset_indicator({2, 3}, 4)]
        assert ctm_project(q) == fw("0110")

    def test_swap_identity_per_twist(self):
        rng = random.Random(31)
        for _ in range(60):
            q = random_queue(rng, rng.choice(("fermionic", "bosonic")), max_n=5, max_k=4, max_part=3)
            before = ctm_components(q)
            for i in range(1, q.k):
                after = ctm_components(twist(q, i))
                perm = list(range(q.k))
                perm[i - 1], perm[i] = perm[i], perm[i - 1]
                assert after == [before[p] for p in perm]

    def test_agrees_with_fold_on_sweep(self):
        rng = random.Random(32)
        for _ in range(120):
            q = random_queue(rng, rng.choice(("fermionic", "bosonic")))
            assert ctm_project(q) == project(q)

    def test_partial_readings(self):
        assert ctm_project(EX_QUEUE, 2) == fw("203022")
        assert ctm_project(EX_QUEUE, 3) == fw("121010")

    def test_count_vectors_agree_with_twist_bubbling_on_sweep(self):
        def bubbled(q, j):
            # the definition: reading i is row j of q after twists i-1, ..., j
            comps = []
            for i in range(j, q.k + 1):
                m = q
                for t in range(i - 1, j - 1, -1):
                    m = twist(m, t)
                comps.append(multiset_indicator(m.rows[j - 1], q.n))
            return comps

        queues = verify._sweep_queues(verify.DEFAULT_BOUNDS, 0)
        assert len(queues) == 6704
        for q in queues:
            for j in range(1, q.k + 1):
                assert ctm_components(q, j) == bubbled(q, j)


class TestLabelTrace:
    def test_example_rows(self):
        tr = label_trace(EX_QUEUE)
        assert tr[0] == fw("330420")
        assert tr[1] == fw("304033")
        assert tr[2] == fw("343030")
        assert tr[3] == fw("444040")

    def test_trace_matches_incremented_subqueues(self):
        rng = random.Random(33)
        for _ in range(60):
            q = random_queue(rng, rng.choice(("fermionic", "bosonic")), max_n=5, max_k=4, max_part=3)
            tr = label_trace(q)
            cls = FermionicMLQ if isinstance(q, FermionicMLQ) else BosonicMLQ
            for j in range(1, q.k + 1):
                sub = cls(q.n, q.rows[j - 1 :])
                assert tr[j - 1] == project(sub).increment(j - 1)
                assert tr[j - 1] == ctm_project(q, j).increment(j - 1)


class TestIncrementCommutation:
    def test_randomized(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(2, 6)
            row = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
            base = rng.randint(1, 3)
            letters = tuple(rng.choice([0] + list(range(base + 1, base + 4))) for _ in range(n))
            w = FermionicWord(letters)
            lhs = apply_row_fermionic(row, base + 1, w.increment(1))
            rhs = apply_row_fermionic(row, base, w).increment(1)
            assert lhs == rhs

    def test_randomized_bosonic(self):
        rng = random.Random(42)
        for _ in range(80):
            n = rng.randint(2, 5)
            row = tuple(sorted(rng.choices(range(1, n + 1), k=rng.randint(0, 4))))
            base = rng.randint(1, 3)
            sites = tuple(
                tuple(sorted(rng.choices(range(base + 1, base + 4), k=rng.randint(0, 2)))) for _ in range(n)
            )
            w = BosonicWord(sites)
            lhs = apply_row_bosonic(row, base + 1, w.increment(1))
            rhs = apply_row_bosonic(row, base, w).increment(1)
            assert lhs == rhs


class TestRExpansion:
    def test_eleven_site_table(self):
        u = FermionicWord((3, 2, 0, 4, 2, 5, 4, 3, 3, 0, 3))
        row = (2, 4, 5, 8, 10)
        layers = u.layers()
        firsts = {
            5: (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
            4: (0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0),
            3: (0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0),
            2: (1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1),
        }
        for i in (2, 3, 4, 5):
            first, _ = r_matrix(row, tuple(j + 1 for j, b in enumerate(layers[i - 1]) if b), 11, "fermionic")
            assert subset_indicator(first, 11) == firsts[i]
        assert check_r_expansion(row, u)

    def test_single_layer(self):
        assert check_r_expansion((1,), FermionicWord((2, 0)))

    def test_all_zero_word(self):
        assert check_r_expansion((1, 3), fw("0000"))

    def test_randomized_both_kinds(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(2, 6)
            row = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
            letters = tuple(rng.choice([0, 0, 2, 3, 4]) for _ in range(n))
            assert check_r_expansion(row, FermionicWord(letters))
        for _ in range(60):
            n = rng.randint(2, 5)
            row = tuple(sorted(rng.choices(range(1, n + 1), k=rng.randint(0, 4))))
            sites = tuple(tuple(sorted(rng.choices(range(2, 5), k=rng.randint(0, 2)))) for _ in range(n))
            assert check_r_expansion(row, BosonicWord(sites))

    def test_small_label_rejected(self):
        with pytest.raises(ValueError):
            check_r_expansion((1,), fw("12"))


def _enumerated_fiber_law(shape, n, kind, x=None):
    """The fiber law by brute force: project every queue of the family."""
    mass = {}
    for q in enumerate_queues(shape, n, kind):
        w = project(q)
        mass[w] = mass.get(w, 0) + (1 if x is None else math.prod([xj**e for xj, e in zip(x, q.weight())], start=Fraction(1)))
    total = sum(mass.values())
    return {w: Fraction(m) / total for w, m in mass.items()}


_FIBER_SHAPES = [(lam, n, "fermionic", None) for lam, n in verify.TASEP_GRID] + [
    (lam, n, "bosonic", tuple(Fraction(v) for v in xs[:n])) for lam, n in verify.TAZRP_GRID for xs in verify.TAZRP_X
]


class TestFiberLaw:
    @pytest.mark.parametrize("shape, n, kind, x", _FIBER_SHAPES)
    def test_push_forward_equals_enumeration(self, shape, n, kind, x):
        assert fiber_law(shape, n, kind, x) == _enumerated_fiber_law(shape, n, kind, x)

    @pytest.mark.parametrize(
        "shape, n, kind, x",
        [((1, 2), 4, "fermionic", None), ((2, 0, 1), 4, "fermionic", None), ((0,), 3, "fermionic", None),
         ((1, 3, 2), 3, "bosonic", (Fraction(1, 2), 2, 3)), ((0, 2), 3, "bosonic", (1, 2, 3))],
    )
    def test_twisted_and_empty_rows(self, shape, n, kind, x):
        assert fiber_law(shape, n, kind, x) == _enumerated_fiber_law(shape, n, kind, x)

    @pytest.mark.parametrize(
        "shape, n, kind, x",
        [((2, 1), 3, "fermionic", (1, 2)), ((4,), 3, "fermionic", None), ((), 3, "fermionic", None),
         ((2, -1), 3, "bosonic", None), ((2, 1), 0, "bosonic", None), ((2, 1), 3, "other", None)],
    )
    def test_bad_family_rejected(self, shape, n, kind, x):
        with pytest.raises(ValueError):
            fiber_law(shape, n, kind, x)

    @pytest.mark.parametrize("x", [(1, -2), (1, -1), (0, 1), ("-1/2", 1)])
    def test_non_positive_site_value_rejected(self, x):
        # (1, -2) used to give a "law" with a negative mass, (1, -1) to divide by zero
        with pytest.raises(ValueError, match="positive"):
            fiber_law((1,), 2, "bosonic", x)
