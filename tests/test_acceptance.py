"""Acceptance suite: exact reproduction of the worked examples plus the
property sweeps, each criterion with its stated time budget.

Run with ``pytest tests/test_acceptance.py -v``; a per-criterion summary table
is printed at the end of the session.
"""

import time
from fractions import Fraction

import pytest

from mlqueues import (
    apply_row_bosonic,
    apply_row_fermionic,
    apply_row_particlewise,
    apply_twists,
    ctm_components,
    ctm_project,
    ferrari_martin,
    label_trace,
    model_chain,
    project,
    ring,
    simulate_ctmc,
    stationary_exact,
    twist,
)
from mlqueues.verify import (
    SUITES,
    TASEP_GRID,
    TAZRP_GRID,
    TAZRP_X,
    find_ringing_counterexample,
    replay_witness,
    suite_phi_equals_ctm,
    suite_r_invariance,
    suite_ringing,
)

from conftest import bq, bw, fq, fw


# ---------------------------------------------------------------------------
# criterion 1: worked examples, exact equality
# ---------------------------------------------------------------------------


class TestCriterion1:
    def test_criterion_1_straight_label_passing(self):
        q = fq(5, (1, 3, 4, 5), (2, 3, 4), (3, 5))
        assert ferrari_martin(q) == fw("10332")
        assert project(q) == fw("10332")
        d = bq(5, (1, 3, 3, 5), (2, 2, 4), (1, 2))
        assert ferrari_martin(d) == bw("3,-,13,-,2")
        assert project(d) == bw("3,-,13,-,2")

    def test_criterion_1_row_operator_fermionic(self):
        out = apply_row_fermionic({2, 3, 4, 7, 9}, 1, fw("3242543303"))
        assert out.letters == (1, 3, 4, 3, 2, 2, 5, 0, 4, 1)

    def test_criterion_1_row_operator_bosonic(self):
        out = apply_row_bosonic([1, 1, 2, 4], 1, bw("446,-,234,3,36"))
        assert out == bw("22344,6,-,16,2")

    def test_criterion_1_twisted_projection_fermionic(self):
        q = fq(6, (1, 2, 4), (1, 3, 5, 6), (2,), (1, 2, 3, 5))
        straightened = apply_twists(q, (2, 3, 1))
        assert straightened.rows == ((1, 2, 4, 5), (1, 2, 3, 6), (1, 3, 5), (2,))
        assert project(q) == fw("330420")
        assert project(straightened) == fw("330420")

    def test_criterion_1_twisted_projection_bosonic(self):
        d = bq(6, (1, 2, 2, 4, 5), (2, 2), (1, 2, 4, 6))
        d_straight = twist(d, 2)
        assert d_straight.rows == ((1, 2, 2, 4, 5), (1, 2, 2, 2), (4, 6))
        assert project(d) == bw("3,12,-,2,3,-")
        assert project(d_straight) == bw("3,12,-,2,3,-")

    def test_criterion_1_corner_transfer_readings(self):
        q = fq(6, (1, 2, 4), (1, 3, 5, 6), (2,), (1, 2, 3, 5))
        comps = ctm_components(q)
        assert comps == [
            (1, 1, 0, 1, 0, 0),
            (1, 1, 0, 1, 1, 0),
            (0, 0, 0, 1, 0, 0),
            (1, 1, 0, 1, 1, 0),
        ]
        assert ctm_project(q) == fw("330420")
        prime = apply_twists(q, (2, 3, 1))
        comps_prime = ctm_components(prime)
        # track where each row of the straightened queue originated
        origin = list(range(1, q.k + 1))
        for i in reversed((2, 3, 1)):
            origin[i - 1], origin[i] = origin[i], origin[i - 1]
        assert comps_prime == [comps[r - 1] for r in origin]
        assert ctm_project(prime) == fw("330420")

    def test_criterion_1_partial_corner_transfer_rows(self):
        q = fq(6, (1, 2, 4), (1, 3, 5, 6), (2,), (1, 2, 3, 5))
        tr = label_trace(q)
        assert tr[1] == fw("304033")  # row j=2
        assert tr[2] == fw("343030")  # row j=3
        assert tr[3] == fw("444040")  # row j=4
        assert tr[0] == project(q)

    def test_criterion_1_sigma_images(self):
        q = fq(6, (1, 2, 4), (1, 3, 5, 6), (2, 3))
        assert twist(q, 1).rows == ((1, 2, 4, 5), (1, 3, 6), (2, 3))
        assert twist(q, 2).rows == ((1, 2, 4), (3, 5), (1, 2, 3, 6))
        d = bq(6, (1, 2, 2, 4, 5), (2, 2), (1, 2, 4, 6))
        assert twist(d, 1).rows == ((1, 5), (2, 2, 2, 2, 4), (1, 2, 4, 6))
        assert twist(d, 2).rows == ((1, 2, 2, 4, 5), (1, 2, 2, 2), (4, 6))

    def test_criterion_1_queueing_example_fermionic(self):
        order = ((2, 4), (4, 4), (3, 3), (5, 3), (6, 3), (1, 2))
        out = apply_row_particlewise({1, 3, 5, 6}, 2, fw("243433"), order=order)
        assert out == fw("324143")

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "pinned upstream reference output (2344,-,344,-,2334) is internally "
            "inconsistent with the defining procedure: it assigns three labels at "
            "site 3 where the row holds only two particles, and its collapse "
            "labels are not decremented; every consistent route computes "
            "(12344,-,44,-,1234) for this input (see the decisions notes)"
        ),
    )
    def test_criterion_1_queueing_example_bosonic_printed_value(self):
        word = bw("2334,344,-,2,344")
        order = ((1, 4), (2, 4), (2, 4), (5, 4), (5, 4), (1, 3), (1, 3), (2, 3), (5, 3), (1, 2), (4, 2))
        out = apply_row_particlewise([1, 1, 1, 3, 3, 5, 5], 2, word, order)
        assert out == bw("2344,-,344,-,2334")

    def test_criterion_1_queueing_example_bosonic_consistent_value(self):
        word = bw("2334,344,-,2,344")
        order = ((1, 4), (2, 4), (2, 4), (5, 4), (5, 4), (1, 3), (1, 3), (2, 3), (5, 3), (1, 2), (4, 2))
        out = apply_row_particlewise([1, 1, 1, 3, 3, 5, 5], 2, word, order)
        assert out == apply_row_bosonic([1, 1, 1, 3, 3, 5, 5], 2, word)
        assert out == bw("12344,-,44,-,1234")

    def test_criterion_1_ringing_example(self):
        x = (Fraction(2), Fraction(3), Fraction(5), Fraction(7))
        d = bq(4, (1, 1, 2, 4, 4), (1, 2, 2, 2), (1, 1, 1), (2, 3))
        expected = {
            1: ((1, 2, 2, 4, 4), (1, 2, 2, 3), (1, 1, 1), (2, 4)),
            2: ((1, 1, 3, 4, 4), (1, 2, 2, 2), (1, 1, 1), (2, 4)),
            3: ((1, 1, 2, 4, 4), (1, 2, 2, 2), (1, 1, 1), (2, 4)),
            4: ((1, 1, 1, 2, 4), (2, 2, 2, 2), (1, 1, 1), (3, 3)),
        }
        exits = {1: 3, 2: 3, 3: 3, 4: 2}
        for i in (1, 2, 3, 4):
            img, exit_site, rate = ring(d, i, x)
            assert img.rows == expected[i]
            assert exit_site == exits[i]
            assert rate == Fraction(1) / x[i - 1]
        img4, _, _ = ring(d, 4, x)
        back, back_exit, _ = ring(img4, 2, x, reverse=True)
        assert (back, back_exit) == (d, 4)


# ---------------------------------------------------------------------------
# criteria 2 and 3: stationary laws equal fiber counts / weighted fiber sums
# ---------------------------------------------------------------------------


def test_criterion_2_exclusion_stationary_fibers():
    start = time.perf_counter()
    report = SUITES["stationary-tasep"](None, 0)
    assert report.passed, report.to_text()
    assert report.parameters["grid"] == [[list(lam), n] for lam, n in TASEP_GRID]
    assert time.perf_counter() - start <= 10.0


def test_criterion_3_zero_range_stationary_fibers():
    start = time.perf_counter()
    report = SUITES["stationary-tazrp"](None, 0)
    assert report.passed, report.to_text()
    assert report.parameters == {"grid": [[list(lam), n] for lam, n in TAZRP_GRID], "x": TAZRP_X}
    assert time.perf_counter() - start <= 10.0


# ---------------------------------------------------------------------------
# criterion 4: twist invariance and route agreement at default bounds
# ---------------------------------------------------------------------------


def test_criterion_4_twist_invariance_and_route_agreement():
    start = time.perf_counter()
    inv = suite_r_invariance(seed=2026)
    assert inv.passed, inv.to_text()
    routes = suite_phi_equals_ctm(seed=2026)
    assert routes.passed, routes.to_text()
    assert inv.cases == routes.cases >= 1000
    assert time.perf_counter() - start <= 30.0


# ---------------------------------------------------------------------------
# criterion 5: ringing-chain properties
# ---------------------------------------------------------------------------


def test_criterion_5_ringing_chain_properties():
    start = time.perf_counter()
    report = suite_ringing(seed=2026)
    assert report.passed, report.to_text()
    assert time.perf_counter() - start <= 20.0


# ---------------------------------------------------------------------------
# criterion 6: twisted fermionic ringing counterexample
# ---------------------------------------------------------------------------


def test_criterion_6_counterexample_exists_and_replays():
    start = time.perf_counter()
    witness = find_ringing_counterexample(4, 4)
    assert witness is not None
    assert replay_witness(witness)
    assert time.perf_counter() - start <= 20.0


# ---------------------------------------------------------------------------
# criterion 7: Monte-Carlo sanity
# ---------------------------------------------------------------------------


def test_criterion_7_monte_carlo_sanity():
    start = time.perf_counter()
    chain = model_chain("tasep", (2, 1), 3)
    exact = stationary_exact(chain)
    for seed in (11, 22, 33):
        freqs = simulate_ctmc(chain, seed=seed, jumps=100_000)
        assert 0.5 * sum(abs(float(exact[s]) - freqs.get(s, 0.0)) for s in chain.states) < 0.02
    assert time.perf_counter() - start <= 10.0


# ---------------------------------------------------------------------------
# criterion 8: block-hopping chain matches the unit-rate zero-range chain
# ---------------------------------------------------------------------------


def test_criterion_8_block_chain_consistency():
    for n in (2, 3):
        blocks = stationary_exact(model_chain("ktazrp", (2, 1), n))
        unit = stationary_exact(model_chain("tazrp", (2, 1), n))
        assert all(blocks[s] == unit[s] for s in blocks.probs)
