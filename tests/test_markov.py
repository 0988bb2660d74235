import bisect
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqueues import (
    BosonicMLQ,
    ChainError,
    ChainSpec,
    RationalDistribution,
    ShapeError,
    certify_stationary,
    conjugate,
    count_states,
    enumerate_queues,
    enumerate_states,
    MODELS,
    mlq_chain,
    model_chain,
    ktazrp_transitions,
    project,
    ring,
    simulate_ctmc,
    stationary_exact,
    tasep_transitions,
    tazrp_transitions,
)
from mlqueues import markov
from mlqueues.markov import model_size, queue_law, ring_forward, ring_forward_bosonic, ring_reverse, ring_reverse_bosonic
from mlqueues.projection import fiber_law

from conftest import bq, bw, fq, fw

X123 = (Fraction(1), Fraction(2), Fraction(3))


class TestStateSpaces:
    def test_tasep_states(self):
        words = enumerate_states((2, 1), 3, "fermionic")
        assert {w.letters for w in words} == {
            (2, 1, 0), (1, 2, 0), (1, 0, 2), (2, 0, 1), (0, 1, 2), (0, 2, 1),
        }

    def test_tazrp_states(self):
        words = enumerate_states((2, 1), 2, "bosonic")
        assert {w.sites for w in words} == {
            ((1, 2), ()), ((2,), (1,)), ((1,), (2,)), ((), (1, 2)),
        }

    def test_single_state(self):
        assert len(enumerate_states((1,), 1, "fermionic")) == 1

    def test_tasep_states_are_sorted_distinct_permutations(self):
        for lam, n in (((1,), 1), ((1, 1), 3), ((2, 1), 4), ((1, 1, 1), 3), ((2, 2), 4), ((2, 2, 1), 5), ((3, 1, 1), 6)):
            letters = lam + (0,) * (n - len(lam))
            want = sorted(set(itertools.permutations(letters)))
            assert [w.letters for w in enumerate_states(lam, n, "fermionic")] == want

    @pytest.mark.parametrize(
        "lam, n", [((1,), 3), ((2, 1), 3), ((2, 2, 1), 3), ((3, 1, 1), 4), ((2, 2, 2), 2), ((1, 1, 1, 1), 3)]
    )
    def test_bosonic_states_in_count_vector_order(self, lam, n):
        # per label, largest first, the per-site count vectors in lexicographic order;
        # the Monte-Carlo run starts at states[0]
        values = sorted(set(lam), reverse=True)
        per_label = [
            [c for c in itertools.product(range(m + 1), repeat=n) if sum(c) == m] for m in map(lam.count, values)
        ]
        want = [
            tuple(tuple(sorted(v for v, counts in zip(values, combo) for _ in range(counts[j]))) for j in range(n))
            for combo in itertools.product(*per_label)
        ]
        assert [w.sites for w in enumerate_states(lam, n, "bosonic")] == want

    def test_closed_form_count_matches_enumeration(self):
        for kind in ("fermionic", "bosonic"):
            for n in range(1, 6):
                for k in range(1, 4):
                    for lam in itertools.combinations_with_replacement((3, 2, 1), k):
                        if kind == "fermionic" and k > n:
                            with pytest.raises(ValueError):
                                count_states(lam, n, kind)
                            continue
                        assert count_states(lam, n, kind) == len(enumerate_states(lam, n, kind))

    def test_too_many_particles_rejected(self):
        with pytest.raises(ValueError):
            enumerate_states((1, 1, 1), 2, "fermionic")

    def test_empty_content_rejected(self):
        with pytest.raises(ValueError):
            enumerate_states((), 3, "bosonic")

    @pytest.mark.parametrize("lam", [(2.9,), (1.5,), (2, 1.0), (True,)], ids=["2.9", "1.5", "float-part", "bool"])
    def test_non_integer_content_parts_rejected(self, lam):
        # int() used to truncate them: count_states((2.9,), 3, "fermionic") was 3
        with pytest.raises(ValueError, match="content parts must be integers"):
            count_states(lam, 3, "fermionic")
        with pytest.raises(ValueError, match="content parts must be integers"):
            enumerate_states(lam, 3, "bosonic")

    def test_conjugate(self):
        assert conjugate((2, 1)) == (2, 1)
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate((2, 1, 1)) == (3, 1)
        assert conjugate(()) == ()

    @pytest.mark.parametrize("lam", [(True,), (1.5,)], ids=["bool", "float"])
    def test_conjugate_rejects_non_integer_parts(self, lam):
        # (True,) used to give (1,), (1.5,) a TypeError
        with pytest.raises(ValueError, match="^partition parts must be integers$"):
            conjugate(lam)


class TestTransitions:
    def test_tasep_rule(self):
        # larger labels hop left; the wrap pair of 012 reads (2, 0) and stays put
        assert {t.letters for t, _ in tasep_transitions(fw("012"))} == {(1, 0, 2), (0, 2, 1)}
        assert {t.letters for t, _ in tasep_transitions(fw("210"))} == {(0, 1, 2)}
        assert [(t.letters, r) for t, r in tasep_transitions(fw("10"))] == [((0, 1), Fraction(1))]

    def test_constant_word_frozen(self):
        assert tasep_transitions(fw("111")) == []

    def test_tazrp_example(self):
        w = bw("233,-,2235,25")
        got = {(t.sites, r) for t, r in tazrp_transitions(w, (Fraction(1), Fraction(2), Fraction(3), Fraction(4)))}
        assert got == {
            (((2, 3), (3,), (2, 2, 3, 5), (2, 5)), Fraction(1, 1)),
            (((2, 3, 3), (), (2, 2, 3), (2, 5, 5)), Fraction(1, 3)),
            (((2, 3, 3, 5), (), (2, 2, 3, 5), (2,)), Fraction(1, 4)),
        }

    def test_tazrp_empty_word(self):
        assert tazrp_transitions(bw("-,-"), (Fraction(1),) * 2) == []

    def test_tazrp_single_particle(self):
        assert [(t.sites, r) for t, r in tazrp_transitions(bw("1,-"), (Fraction(1),) * 2)] == [
            (((), (1,)), Fraction(1))
        ]

    def test_ktazrp_blocks(self):
        assert len(ktazrp_transitions(bw("122,-,-"))) == 3
        assert len(ktazrp_transitions(bw("22,-"))) == 2
        assert len(ktazrp_transitions(bw("3,-"))) == 1

    # each rule refuses a word of the other kind; it used to end in an AttributeError
    OTHER_KIND = {
        "tasep": (lambda: tasep_transitions(bw("1,-")), "expected a fermionic word, got a bosonic one"),
        "tazrp": (lambda: tazrp_transitions(fw("10"), None), "expected a bosonic word, got a fermionic one"),
        "tazrp-with-rates": (lambda: tazrp_transitions(fw("10"), (Fraction(1),) * 2), "expected a bosonic word, got a fermionic one"),
        "ktazrp": (lambda: ktazrp_transitions(fw("10")), "expected a bosonic word, got a fermionic one"),
    }

    @pytest.mark.parametrize("rule", sorted(OTHER_KIND))
    def test_rule_refuses_the_other_word_kind(self, rule):
        call, message = self.OTHER_KIND[rule]
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestStationaryExact:
    def test_two_identical_particles_uniform(self):
        dist = stationary_exact(model_chain("tasep", (1, 1), 3))
        assert all(p == Fraction(1, 3) for p in dist.probs.values())

    def test_tasep_21_3_matches_fiber_counts(self):
        dist = stationary_exact(model_chain("tasep", (2, 1), 3))
        assert dist[fw("210")] == Fraction(2, 9)
        assert dist[fw("012")] == Fraction(1, 9)
        fibers = {}
        for q in enumerate_queues((2, 1), 3, "fermionic"):
            w = project(q)
            fibers[w] = fibers.get(w, 0) + 1
        assert all(dist[w] == Fraction(c, 9) for w, c in fibers.items())

    def test_tazrp_21_3_matches_weighted_fibers(self):
        dist = stationary_exact(model_chain("tazrp", (2, 1), 3, X123))
        weights = {}
        z = Fraction(0)
        for d in enumerate_queues((2, 1), 3, "bosonic"):
            w = project(d)
            wt = math.prod([xj**e for xj, e in zip(X123, d.weight())], start=Fraction(1))
            weights[w] = weights.get(w, Fraction(0)) + wt
            z += wt
        assert all(dist[w] == v / z for w, v in weights.items())

    def test_reducible_chain_rejected(self):
        chain = ChainSpec(("a", "b", "c"), ((0, 1, Fraction(1)), (1, 0, Fraction(1))))
        with pytest.raises(ChainError):
            stationary_exact(chain)

    def test_empty_chain_rejected(self):
        with pytest.raises(ChainError):
            stationary_exact(ChainSpec((), ()))

    def test_single_state_chain(self):
        dist = stationary_exact(ChainSpec(("only",), ()))
        assert dist["only"] == 1

    @settings(max_examples=80, derandomize=True)
    @given(st.data())
    def test_random_irreducible_chain_is_stationary(self, data):
        ns = data.draw(st.integers(1, 6))
        rate = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
        order = data.draw(st.permutations(range(ns)))
        # a cycle through every state makes the chain irreducible; extra edges may repeat
        edges = [(order[k], order[(k + 1) % ns]) for k in range(ns)] if ns > 1 else []
        extra = data.draw(st.lists(st.tuples(st.integers(0, ns - 1), st.integers(0, ns - 1)), max_size=2 * ns))
        edges += [(a, b) for a, b in extra if a != b]
        chain = ChainSpec(tuple(range(ns)), tuple((a, b, data.draw(rate)) for a, b in edges))
        q = [[Fraction(0)] * ns for _ in range(ns)]
        for src, dst, r in chain.transitions:
            q[src][dst] += r
            q[src][src] -= r
        dist = stationary_exact(chain)
        pi = [dist[s] for s in range(ns)]
        assert all(p > 0 for p in pi) and sum(pi) == 1
        assert all(sum(pi[i] * q[i][j] for i in range(ns)) == 0 for j in range(ns))

    def test_flux_tally(self):
        chain = ChainSpec(
            ("a", "b", "c"),
            ((0, 1, Fraction(2)), (1, 2, Fraction(1)), (2, 0, Fraction(3)), (0, 2, Fraction(1))),
        )
        out, into = chain.flux([Fraction(1), Fraction(2), Fraction(5)])
        assert out == [3, 2, 15]
        assert into == [15, 2, 3]

    def test_certificate_rejects_what_is_not_the_law(self):
        chain = ChainSpec(
            ("a", "b", "c"),
            ((0, 1, Fraction(2)), (1, 2, Fraction(1)), (2, 0, Fraction(3)), (0, 2, Fraction(1))),
        )
        law = [stationary_exact(chain)[s] for s in chain.states]
        assert certify_stationary(chain, law)
        moved = [law[0] + Fraction(1, 100), law[1] - Fraction(1, 100), law[2]]  # still sums to 1
        assert sum(moved) == 1 and not certify_stationary(chain, moved)
        assert not certify_stationary(chain, [Fraction(0), Fraction(1, 2), Fraction(1, 2)])
        assert not certify_stationary(chain, [2 * p for p in law])
        # a vector of another length: an extra entry used to be left out of the flux tally, and a
        # short vector raised IndexError
        assert not certify_stationary(chain, [p / 2 for p in law] + [Fraction(1, 2)])
        assert not certify_stationary(chain, [Fraction(1)])

    def test_certificate_accepts_a_large_fiber_law(self):
        # 3024 states: the push-forward and the balance check, no solve
        chain = model_chain("tasep", (4, 3, 2, 1), 9)
        law = queue_law("tasep", (4, 3, 2, 1), 9)
        assert len(law) == len(chain.states) == 3024
        assert certify_stationary(chain, [law[s] for s in chain.states])


def _recorded_attempts(monkeypatch) -> list:
    """Record (modulus, certified?) for each prime the stationary solve tries."""
    attempts = []
    real = markov._law_mod

    def attempt(chain, p):
        law = real(chain, p)
        attempts.append((p, law is not None))
        return law

    monkeypatch.setattr(markov, "_law_mod", attempt)
    return attempts


class TestModularSolve:
    def test_prime_too_small_to_reconstruct_is_retried(self, monkeypatch):
        chain = model_chain("tasep", (3, 2, 1), 6)
        law = stationary_exact(chain)
        monkeypatch.setattr(markov, "_MODULI", (101, 2**61 - 1))
        attempts = _recorded_attempts(monkeypatch)
        assert stationary_exact(chain) == law
        assert attempts == [(101, False), (2**61 - 1, True)]

    def test_prime_dividing_a_rate_denominator_is_retried(self, monkeypatch):
        chain = model_chain("tazrp", (2, 1), 3, (Fraction(1), Fraction(2), Fraction(7)))
        law = stationary_exact(chain)
        monkeypatch.setattr(markov, "_MODULI", (7, 2**61 - 1))
        attempts = _recorded_attempts(monkeypatch)
        assert stationary_exact(chain) == law
        assert attempts == [(7, False), (2**61 - 1, True)]

    def test_null_space_plane_mod_p_is_retried(self, monkeypatch):
        # both rates between a and b vanish mod 7, so mod 7 a decouples from b and c
        seven, one = Fraction(7), Fraction(1)
        chain = ChainSpec(("a", "b", "c"), ((0, 1, seven), (1, 0, seven), (1, 2, one), (2, 1, one)))
        monkeypatch.setattr(markov, "_MODULI", (7, 2**61 - 1))
        attempts = _recorded_attempts(monkeypatch)
        assert stationary_exact(chain).probs == {s: Fraction(1, 3) for s in "abc"}
        assert attempts == [(7, False), (2**61 - 1, True)]

    def test_exhausted_ladder_raises(self, monkeypatch):
        chain = model_chain("tazrp", (2, 1), 3, (Fraction(1), Fraction(2), Fraction(7)))
        monkeypatch.setattr(markov, "_MODULI", (7, 101))
        with pytest.raises(ChainError):
            stationary_exact(chain)

    def test_rational_reconstruction(self):
        p = 2**61 - 1
        bound = math.isqrt(p // 2)
        for q in (Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(bound, bound - 1), Fraction(-bound, 1)):
            assert markov._rational(q.numerator * pow(q.denominator, -1, p) % p, p, bound) == q
        assert markov._rational(bound + 1, p, bound) is None

    def test_n8_tasep_law_equals_fiber_law(self):
        # 1680 states; the fiber side pushes 878 080 queues' law through 4 rows
        dist = stationary_exact(model_chain("tasep", (4, 3, 2, 1), 8))
        assert len(dist.probs) == 1680
        assert fiber_law((4, 3, 2, 1), 8, "fermionic") == dist.probs


# each entry point that reads site values x, on 3 sites
X_READERS = {
    "tazrp_transitions": lambda x: tazrp_transitions(bw("12,-,2"), x),
    "ring": lambda x: ring(bq(3, (1, 3), (2,)), 1, x),
    "model_chain": lambda x: model_chain("tazrp", (2, 1), 3, x),
    "queue_law": lambda x: queue_law("mlq-bosonic", (2, 1), 3, x),
    "fiber_law": lambda x: fiber_law((2, 1), 3, "bosonic", x),
}
# bad x -> the message of every reader; a bool, a float, infinity and text used to be read
BAD_X = {
    "bool": ((True, 2, 3), "site values must be integers or Fractions, got True"),
    "float": ((0.1, 2, 3), "site values must be integers or Fractions, got 0.1"),
    "infinity": ((float("inf"), 2, 3), "site values must be integers or Fractions, got inf"),
    "text": (("1/2", 2, 3), "site values must be integers or Fractions, got '1/2'"),
    "exponent": (("1e3", 2, 3), "site values must be integers or Fractions, got '1e3'"),
    "zero": ((0, 2, 3), "rate parameters must be positive"),
    "length": ((1, 2), "expected 3 site values, got 2"),
}


class TestRateParams:
    """Site values x: a sequence of n positive ints or Fractions, read by ``mlq._site_values``."""

    @pytest.mark.parametrize("reader", sorted(X_READERS))
    def test_ints_read_as_their_fractions(self, reader):
        assert X_READERS[reader]([1, 2, 3]) == X_READERS[reader]((Fraction(1), Fraction(2), Fraction(3)))

    @pytest.mark.parametrize("bad", sorted(BAD_X))
    @pytest.mark.parametrize("reader", sorted(X_READERS))
    def test_bad_values_raise_one_message_everywhere(self, reader, bad):
        x, message = BAD_X[bad]
        with pytest.raises(ValueError) as info:
            X_READERS[reader](x)
        assert str(info.value) == message

    def test_none_is_unit_rates(self):
        w = bw("12,-,2")
        assert tazrp_transitions(w, None) == tazrp_transitions(w, (Fraction(1),) * 3)
        assert model_chain("tazrp", (2, 1), 3) == model_chain("tazrp", (2, 1), 3, (Fraction(1),) * 3)
        assert fiber_law((2, 1), 3, "bosonic") == fiber_law((2, 1), 3, "bosonic", (1, 1, 1))

    @pytest.mark.parametrize("x", [X123, (Fraction(1), Fraction(2)), (1, 1, 1)])
    def test_fermionic_ringing_takes_no_rates(self, x):
        # fermionic ringing has unit rates; an x of any length used to be ignored
        with pytest.raises(ValueError, match="mlq-fermionic takes no site rates"):
            mlq_chain("fermionic", (2, 1), 3, x)
        with pytest.raises(ValueError, match="mlq-fermionic takes no site rates"):
            model_chain("mlq-fermionic", (2, 1), 3, x)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            model_chain("tazrp", (2, 1), 4, X123)
        with pytest.raises(ValueError):
            model_chain("mlq-bosonic", (2, 1), 4, X123)
        with pytest.raises(ValueError):
            mlq_chain("bosonic", (2, 1), 4, X123)
        with pytest.raises(ValueError):
            ring(bq(4, (1,)), 1, X123)
        with pytest.raises(ValueError):
            ring(bq(4, (1,)), 1, X123, reverse=True)


class TestModelArguments:
    @pytest.mark.parametrize("lam", [(True, 1), (2.0, 1)], ids=["bool", "float"])
    @pytest.mark.parametrize("model", MODELS)
    def test_non_integer_parts_rejected_alike_on_every_route(self, model, lam):
        # queue_law read lambda only through conjugate: (True, 1) gave a law, (2.0, 1) a TypeError
        for route in (queue_law, model_chain, model_size):
            with pytest.raises(ValueError, match="^lambda parts must be integers$"):
                route(model, lam, 3)

    @pytest.mark.parametrize("route", [queue_law, model_chain, model_size])
    def test_twisted_fermionic_shape_checked_before_the_ring_size(self, route):
        with pytest.raises(ShapeError):
            route("mlq-fermionic", (1, 2), 0)

    def test_mlq_chain_is_the_ringing_model_chain(self):
        assert mlq_chain("fermionic", (2, 1), 3) == model_chain("mlq-fermionic", (2, 1), 3)
        assert mlq_chain("bosonic", (1, 2), 3, X123) == model_chain("mlq-bosonic", (1, 2), 3, X123)
        with pytest.raises(ShapeError):
            mlq_chain("fermionic", (1, 2), 3)
        for kind in ("anyonic", []):  # refused as a queue kind, not as a model name
            with pytest.raises(ValueError, match="^" + re.escape(f"unknown kind {kind!r}; a queue kind is one of ")):
                mlq_chain(kind, (2, 1), 3)


class TestChainSpecValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(("a",), ((0, 0, Fraction(1)),))

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(("a", "a"), ())

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(("a", "b"), ((0, 1, Fraction(0)),))

    # each used to build: a float endpoint failed in the solver, a bool rate read as 1
    @pytest.mark.parametrize("transition", [(0, 1.0, Fraction(1)), (0, 1, True), (0, 1, "1"), (0, 1, 1.0)],
                             ids=["float-endpoint", "bool-rate", "str-rate", "float-rate"])
    def test_malformed_transition_rejected(self, transition):
        with pytest.raises(ValueError, match="must be (positive )?integers"):
            ChainSpec(("a", "b"), (transition, (1, 0, Fraction(1))))

    def test_int_rate_accepted(self):
        assert stationary_exact(ChainSpec(("a", "b"), ((0, 1, 2), (1, 0, Fraction(1))))).probs == {
            "a": Fraction(1, 3), "b": Fraction(2, 3)}


class TestDistribution:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            RationalDistribution({"a": Fraction(1, 2)})


class TestFermionicRinging:
    def test_single_row_hop(self):
        assert ring(fq(3, (2,)), 2) == (fq(3, (1,)), 2, 1)

    def test_inverse_of_single_row_hop(self):
        assert ring(fq(3, (1,)), 2, reverse=True) == (fq(3, (2,)), 2, 1)

    def test_empty_queue_fixed(self):
        q = fq(3, (), ())
        img, _, _ = ring(q, 1)
        assert img == q
        img, _, _ = ring(q, 1, reverse=True)
        assert img == q

    def test_mutual_inverses_exhaustive(self):
        for lam in ((1,), (2, 1), (2, 2, 1)):
            for n in range(max(2, lam[0]), 5):
                for q in enumerate_queues(lam, n, "fermionic"):
                    for i in range(1, n + 1):
                        img, exit_site, _ = ring(q, i)
                        assert ring(img, exit_site, reverse=True) == (q, i, 1)
                        img, exit_site, _ = ring(q, i, reverse=True)
                        assert ring(img, exit_site) == (q, i, 1)

    def test_three_row_roundtrip(self):
        q = fq(5, (1, 3, 4, 5), (2, 3, 4), (3, 5))
        img, exit_site, _ = ring(q, 3)
        assert ring(img, exit_site, reverse=True) == (q, 3, 1)

    def test_site_out_of_range(self):
        with pytest.raises(IndexError):
            ring(fq(3, (1,)), 4)

    def test_queue_of_the_other_kind_rejected(self):
        for fn in (ring_forward, ring_reverse):
            with pytest.raises(ValueError, match="expected a fermionic queue"):
                fn(bq(3, (1, 1), (2, 2)), 1)
        for fn in (ring_forward_bosonic, ring_reverse_bosonic):
            with pytest.raises(ValueError, match="expected a bosonic queue"):
                fn(fq(3, (1,), (2,)), 1)


SIX_X = (Fraction(1), Fraction(2), Fraction(3), Fraction(5))
SIX_D = bq(4, (1, 1, 2, 4, 4), (1, 2, 2, 2), (1, 1, 1), (2, 3))


class TestBosonicRinging:
    def test_four_forward_images(self):
        expect = {
            1: (((1, 2, 2, 4, 4), (1, 2, 2, 3), (1, 1, 1), (2, 4)), 3, Fraction(1, 1)),
            2: (((1, 1, 3, 4, 4), (1, 2, 2, 2), (1, 1, 1), (2, 4)), 3, Fraction(1, 2)),
            3: (((1, 1, 2, 4, 4), (1, 2, 2, 2), (1, 1, 1), (2, 4)), 3, Fraction(1, 3)),
            4: (((1, 1, 1, 2, 4), (2, 2, 2, 2), (1, 1, 1), (3, 3)), 2, Fraction(1, 5)),
        }
        for i, (rows, exit_site, rate) in expect.items():
            img, got_exit, got_rate = ring(SIX_D, i, SIX_X)
            assert img.rows == rows
            assert got_exit == exit_site
            assert got_rate == rate

    def test_reverse_roundtrip_at_site_two(self):
        img, exit_site, _ = ring(SIX_D, 4, SIX_X)
        assert exit_site == 2
        back, back_exit, _ = ring(img, 2, SIX_X, reverse=True)
        assert (back, back_exit) == (SIX_D, 4)

    def test_empty_queue_fixed(self):
        d = bq(3, (), ())
        img, _, rate = ring(d, 2)
        assert img == d and rate == 1
        img, _, rate = ring(d, 2, reverse=True)
        assert img == d and rate == 1

    def test_mutual_inverses_random(self):
        rng = random.Random(51)
        for _ in range(300):
            n = rng.randint(2, 5)
            rows = tuple(tuple(sorted(rng.choices(range(1, n + 1), k=rng.randint(0, 3)))) for _ in range(rng.randint(1, 4)))
            d = BosonicMLQ(n, rows)
            i = rng.randint(1, n)
            img, exit_site, _ = ring(d, i)
            assert ring(img, exit_site, reverse=True)[:2] == (d, i)
            rimg, rexit, _ = ring(d, i, reverse=True)
            assert ring(rimg, rexit)[:2] == (d, i)

    def test_weight_identity_random(self):
        rng = random.Random(52)
        for _ in range(200):
            n = rng.randint(2, 5)
            rows = tuple(tuple(sorted(rng.choices(range(1, n + 1), k=rng.randint(0, 3)))) for _ in range(rng.randint(1, 4)))
            d = BosonicMLQ(n, rows)
            i = rng.randint(1, n)
            img, exit_site, _ = ring(d, i)
            want = list(d.weight())
            want[exit_site % n] += 1  # site exit+1, cyclically
            want[i - 1] -= 1
            assert list(img.weight()) == want


class TestRing:
    """``ring`` runs the ringing map of the queue's kind and is the one owner of the rate."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_fermionic_is_the_unit_rate_map(self, reverse):
        fn = ring_reverse if reverse else ring_forward
        for alpha, n in (((2, 1), 3), ((2, 2, 1), 4), ((1, 2), 3)):
            for q in enumerate_queues(alpha, n, "fermionic"):
                for i in range(1, n + 1):
                    assert ring(q, i, reverse=reverse) == (*fn(q, i), 1)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("x", [None, X123])
    def test_bosonic_is_the_bosonic_map(self, reverse, x):
        fn = ring_reverse_bosonic if reverse else ring_forward_bosonic
        for alpha in ((2, 1), (1, 2), (2, 0, 1)):
            for q in enumerate_queues(alpha, 3, "bosonic"):
                for i in range(1, 4):
                    assert ring(q, i, x, reverse)[:2] == fn(q, i)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 5), st.integers(1, 4), st.booleans(), st.booleans())
    def test_bosonic_rate_reads_the_ringing_column(self, data, n, k, reverse, with_x):
        row = st.lists(st.integers(1, n), max_size=4).map(lambda r: tuple(sorted(r)))
        q = BosonicMLQ(n, tuple(data.draw(st.lists(row, min_size=k, max_size=k))))
        x = tuple(data.draw(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=9), min_size=n, max_size=n)))
        i = data.draw(st.integers(1, n))
        c = i % n + 1 if reverse else i
        want = Fraction(1) / x[c - 1] if with_x and any(c in r for r in q.rows) else 1
        assert ring(q, i, x if with_x else None, reverse)[2] == want

    @pytest.mark.parametrize("x", [X123, (Fraction(1),) * 3, (Fraction(1), Fraction(2)), (1, 1, 1)])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_fermionic_takes_no_rates(self, x, reverse):
        with pytest.raises(ValueError, match="fermionic ringing takes no site rates"):
            ring(fq(3, (1,), (2,)), 1, x, reverse)

    def test_guards_of_the_per_kind_maps(self):
        with pytest.raises(IndexError, match="site 4 outside 1..3"):
            ring(bq(3, (1,)), 4)
        with pytest.raises(IndexError, match="site 0 outside 1..3"):
            ring(fq(3, (1,)), 0, reverse=True)

    @pytest.mark.parametrize("i", [2.0, True, "2"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_site_must_be_an_int(self, i, reverse):
        for q in (fq(3, (2,), (2, 3)), bq(3, (2,), (2, 3))):
            with pytest.raises(ValueError, match="ringing site must be an integer"):
                ring(q, i, reverse=reverse)


class TestMlqChains:
    def test_fermionic_chain_is_uniform(self):
        chain = model_chain("mlq-fermionic", (2, 1), 3)
        assert len(chain.states) == 9
        dist = stationary_exact(chain)
        assert all(p == Fraction(1, 9) for p in dist.probs.values())

    def test_bosonic_chain_weight_stationary(self):
        chain = model_chain("mlq-bosonic", (2, 1), 3, X123)
        assert len(chain.states) == 18
        dist = stationary_exact(chain)
        weights = {s: math.prod([xj**e for xj, e in zip(X123, s.weight())], start=Fraction(1)) for s in chain.states}
        z = sum(weights.values())
        assert all(dist[s] == weights[s] / z for s in chain.states)

    def test_twisted_bosonic_chain_allowed(self):
        chain = model_chain("mlq-bosonic", (1, 2), 2)
        stationary_exact(chain)  # well-defined and irreducible

    def test_twisted_fermionic_chain_rejected(self):
        with pytest.raises(ShapeError):
            model_chain("mlq-fermionic", (1, 2), 3)

    def test_projection_identity_straight_and_twisted(self):
        for alpha in ((2, 1), (1, 2)):
            for d in enumerate_queues(alpha, 3, "bosonic"):
                tau = project(d)
                zr = {}
                for target, rate in tazrp_transitions(tau, X123):
                    zr[target] = zr.get(target, Fraction(0)) + rate
                got = {}
                for site in range(1, 4):
                    img, _, rate = ring(d, site, X123)
                    if img == d:
                        continue
                    w = project(img)
                    if w != tau:
                        got[w] = got.get(w, Fraction(0)) + rate
                assert got == zr

    def test_ktazrp_matches_tazrp_at_unit_rates(self):
        for n in (2, 3):
            a = stationary_exact(model_chain("ktazrp", (2, 1), n))
            b = stationary_exact(model_chain("tazrp", (2, 1), n))
            assert all(a[s] == b[s] for s in a.probs)


def _reference_simulate(chain, seed, jumps):
    """The jump loop as first written, on Random.expovariate and a per-jump
    absorbing-state test: :func:`simulate_ctmc` must match it bit for bit."""
    ns = len(chain.states)
    rates = [[] for _ in range(ns)]
    targets = [[] for _ in range(ns)]
    for src, dst, rate in chain.transitions:
        rates[src].append(float(rate))
        targets[src].append(dst)
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
        k = bisect.bisect_left(cumulative[state], rng.random() * total)
        state = dsts[k] if k < len(dsts) else dsts[-1]
    span = sum(occupation)
    return {s: occupation[i] / span for i, s in enumerate(chain.states)}


class TestSimulation:
    @pytest.mark.parametrize(
        "model, lam, n, x",
        [("tasep", (3, 2, 1), 5, None), ("tazrp", (2, 2, 1), 3, (1, Fraction(2, 3), 5)),
         ("ktazrp", (2, 1, 1), 3, None), ("mlq-bosonic", (2, 1), 3, (Fraction(1, 7), 2, 3))],
    )
    def test_matches_the_reference_loop(self, model, lam, n, x):
        chain = model_chain(model, lam, n, x)
        for seed in (0, 5, 4177):
            for jumps in (1, 7, 20_000):
                got = simulate_ctmc(chain, seed, jumps)
                assert list(got.items()) == list(_reference_simulate(chain, seed, jumps).items())

    @pytest.mark.parametrize("start", (0, 1))
    def test_exit_rate_that_rounds_to_zero_is_refused_before_any_jump(self, start):
        # float(Fraction(1, 10**400)) is 0.0: the chain is irreducible, and the state used
        # to be reported as absorbing once the walk reached it
        tiny, one = Fraction(1, 10**400), Fraction(1)
        rates = (tiny, one) if start == 0 else (one, tiny)
        chain = ChainSpec(("a", "b"), ((0, 1, rates[0]), (1, 0, rates[1])))
        with pytest.raises(ChainError, match="^exit rate beyond the float range: " + repr("ab"[start]) + "$"):
            simulate_ctmc(chain, seed=0, jumps=100)

    @pytest.mark.parametrize(
        "rates",
        [(Fraction(10**401),), (Fraction(10**308), Fraction(10**308))],
        ids=["rate-past-float", "sum-past-float"],
    )
    def test_exit_rate_past_the_float_range_is_refused_before_any_jump(self, rates):
        # state c is never reached from a, yet its exit rate is refused while the tables are built:
        # float(10**401) raises OverflowError, and 1e308 + 1e308 is inf, a holding time of 0
        transitions = ((0, 1, Fraction(1)), (1, 0, Fraction(1))) + tuple((2, 0, r) for r in rates)
        chain = ChainSpec(("a", "b", "c"), transitions)
        with pytest.raises(ChainError, match="^exit rate beyond the float range: 'c'$"):
            simulate_ctmc(chain, seed=0, jumps=1)

    @pytest.mark.parametrize("jumps", [True, 2.5, 3.0], ids=["bool", "2.5", "3.0"])
    def test_non_integer_jumps_rejected(self, jumps):
        # True used to run one jump, 2.5 to die with TypeError in range
        with pytest.raises(ValueError, match="^jumps must be an integer"):
            simulate_ctmc(model_chain("tasep", (2, 1), 3), seed=0, jumps=jumps)

    def test_symmetric_two_state(self):
        chain = ChainSpec(("a", "b"), ((0, 1, Fraction(1)), (1, 0, Fraction(1))))
        freqs = simulate_ctmc(chain, seed=1, jumps=20_000)
        assert abs(freqs["a"] - 0.5) < 0.02

    def test_close_to_exact_stationary(self):
        chain = model_chain("tasep", (2, 1), 3)
        exact = stationary_exact(chain)
        freqs = simulate_ctmc(chain, seed=7, jumps=100_000)
        assert 0.5 * sum(abs(float(exact[s]) - freqs.get(s, 0.0)) for s in chain.states) < 0.02

    def test_deterministic_for_fixed_seed(self):
        chain = model_chain("tasep", (2, 1), 3)
        a = simulate_ctmc(chain, seed=3, jumps=5_000)
        b = simulate_ctmc(chain, seed=3, jumps=5_000)
        assert a == b
        c = simulate_ctmc(chain, seed=4, jumps=5_000)
        assert a != c

    def test_pinned_table(self):
        # seeded trajectories are bitwise reproducible, down to the last float bit
        freqs = simulate_ctmc(model_chain("tasep", (2, 1), 3), seed=3, jumps=5_000)
        assert {w.letters: p for w, p in freqs.items()} == {
            (0, 1, 2): 0.116843626251013,
            (0, 2, 1): 0.22670621658113338,
            (1, 0, 2): 0.20179681499768853,
            (1, 2, 0): 0.11146827595856255,
            (2, 0, 1): 0.11653066477811712,
            (2, 1, 0): 0.22665440143348534,
        }

    def test_zero_jumps_rejected(self):
        with pytest.raises(ValueError):
            simulate_ctmc(model_chain("tasep", (2, 1), 3), seed=0, jumps=0)

    def test_absorbing_state_rejected(self):
        chain = ChainSpec(("a", "b"), ((0, 1, Fraction(1)),))
        with pytest.raises(ChainError):
            simulate_ctmc(chain, seed=0, jumps=100)

    def test_one_state_chain_stays_put(self):
        assert simulate_ctmc(ChainSpec(("a",), ()), seed=0, jumps=100) == {"a": 1.0}
