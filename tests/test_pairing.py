import itertools
import random
from functools import lru_cache

import pytest

from mlqueues import pair_strictly_left, pair_weakly_right
from mlqueues.pairing import _match


def bracket_rows(pattern: str):
    """(lower, upper) site sets of a bracket string under weakly-right pairing:
    positions double as sites, opens are upper-row particles and closes are
    lower-row particles."""
    lower = {i + 1 for i, c in enumerate(pattern) if c == ")"}
    upper = {i + 1 for i, c in enumerate(pattern) if c == "("}
    return lower, upper


def pair_brackets(pattern: str):
    """Weakly-right pairing of a bracket string on a ring of its length; the
    empty string is the one empty site, as a ring has at least one site."""
    return pair_weakly_right(*bracket_rows(pattern), max(len(pattern), 1))


def oracle_unmatched(pattern: str):
    """Recursive elimination of cyclically adjacent open/close pairs.

    Removes any open whose cyclically next surviving bracket is a close,
    branching over every elimination order; returns the set of terminal
    survivor index-sets.  Independent of the stack/wrap implementation.
    """
    n = len(pattern)

    @lru_cache(maxsize=None)
    def terminals(remaining: frozenset) -> frozenset:
        order = sorted(remaining)
        moves = []
        for pos, idx in enumerate(order):
            nxt = order[(pos + 1) % len(order)]
            if idx != nxt and pattern[idx] == "(" and pattern[nxt] == ")":
                moves.append((idx, nxt))
        if not moves:
            return frozenset([remaining])
        out = set()
        for a, b in moves:
            out |= terminals(remaining - {a, b})
        return frozenset(out)

    return terminals(frozenset(range(n)))


def oracle_survivors(pattern: str) -> frozenset:
    terminal_sets = oracle_unmatched(pattern)
    assert len(terminal_sets) == 1, f"oracle not confluent on {pattern!r}"
    return next(iter(terminal_sets))


def split_sites(pattern: str, opens_first: bool, finest: bool) -> list[int]:
    """Site index of each bracket: one bracket per site, or maximal blocks that
    read as one site's emission (opens then closes if ``opens_first``)."""
    first, second = ("(", ")") if opens_first else (")", "(")
    site, sites = 0, []
    for idx, c in enumerate(pattern):
        if idx and (finest or (c == first and pattern[idx - 1] == second)):
            site += 1
        sites.append(site)
    return sites


class TestCyclicMatch:
    """The run-length kernel behind both pairing maps, on bracket strings."""

    @pytest.mark.parametrize(
        "pattern,unmatched_positions",
        [
            ("())()((", (6,)),  # one stranded open
            ("))(())", (1, 2)),  # two stranded closes at the prefix
            ("()()()", ()),
            (")(", ()),  # wrap pair
            ("", ()),
        ],
    )
    def test_bracket_strings(self, pattern, unmatched_positions):
        res = pair_brackets(pattern)
        assert tuple(sorted(res.unpaired_lower + res.unpaired_upper)) == unmatched_positions
        assert 2 * len(res.pairs) + len(unmatched_positions) == len(pattern)

    def test_homogeneous_leftovers(self):
        rng = random.Random(3)
        for _ in range(300):
            pattern = "".join(rng.choice("()") for _ in range(rng.randint(0, 12)))
            res = pair_brackets(pattern)
            assert not (res.unpaired_lower and res.unpaired_upper)

    def test_no_unmatched_token_inside_any_pair(self):
        rng = random.Random(4)
        for _ in range(200):
            pattern = "".join(rng.choice("()") for _ in range(rng.randint(1, 12)))
            res = pair_brackets(pattern)
            loose = set(res.unpaired_lower + res.unpaired_upper)
            for open_site, close_site in res.pairs:
                inside = set()
                j = open_site % len(pattern) + 1
                while j != close_site:
                    inside.add(j)
                    j = j % len(pattern) + 1
                assert not (inside & loose)

    def test_agrees_with_recursive_oracle(self):
        rng = random.Random(9)
        patterns = ["".join(rng.choice("()") for _ in range(rng.randint(0, 12))) for _ in range(150)]
        patterns += ["())()((", "))(())", ")))(((", "((()))"]
        for pattern in patterns:
            res = pair_brackets(pattern)
            got = frozenset(j - 1 for j in res.unpaired_lower + res.unpaired_upper)
            assert got == oracle_survivors(pattern), pattern

    @pytest.mark.parametrize("weakly_right", [True, False])
    def test_counts_agree_with_oracle_every_string(self, weakly_right):
        # weakly right emits a site's opens first, strictly left its closes;
        # grouping brackets into sites gives counts above one
        for length in range(9):
            for pattern in map("".join, itertools.product("()", repeat=length)):
                survivors = oracle_survivors(pattern)
                for finest in (True, False):
                    sites = split_sites(pattern, weakly_right, finest)
                    n = sites[-1] + 1 if sites else 0
                    opens, closes = [0] * n, [0] * n
                    for c, j in zip(pattern, sites):
                        (opens if c == "(" else closes)[j] += 1
                    want_opens, want_closes = [0] * n, [0] * n
                    for idx in survivors:
                        (want_opens if pattern[idx] == "(" else want_closes)[sites[idx]] += 1
                    if weakly_right:
                        runs, unpaired_lower, unpaired_upper = _match(closes, opens, True)
                        got_opens, got_closes = unpaired_upper, unpaired_lower
                    else:
                        runs, unpaired_lower, unpaired_upper = _match(opens, closes, False)
                        got_opens, got_closes = unpaired_lower, unpaired_upper
                    assert (got_opens, got_closes) == (want_opens, want_closes), (pattern, finest)
                    assert 2 * sum(m for _, _, m in runs) + len(survivors) == length


class TestWeaklyRight:
    def test_example_pair(self):
        res = pair_weakly_right({1, 2, 4}, {1, 3, 5, 6}, 6)
        assert res.unpaired_upper == (5,)
        assert res.unpaired_lower == ()
        assert set(res.pairs) == {(1, 1), (3, 4), (6, 2)}

    def test_example_pair_shifted_roles(self):
        res = pair_weakly_right({1, 3, 5, 6}, {2, 3}, 6)
        assert res.unpaired_lower == (1, 6)
        assert res.unpaired_upper == ()
        assert set(res.pairs) == {(2, 5), (3, 3)}

    def test_equal_rows_pair_in_place(self):
        res = pair_weakly_right({2, 4, 5}, {2, 4, 5}, 6)
        assert res.pairs == ((2, 2), (4, 4), (5, 5))
        assert res.unpaired_upper == res.unpaired_lower == ()

    def test_pair_count_is_min(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 8)
            a = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            b = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            res = pair_weakly_right(a, b, n)
            assert len(res.pairs) == min(len(a), len(b))
            assert len(res.unpaired_lower) == len(a) - len(res.pairs)
            assert len(res.unpaired_upper) == len(b) - len(res.pairs)

    def test_rotation_equivariance(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(2, 8)
            a = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            b = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            base = pair_weakly_right(a, b, n)
            for shift in range(1, n):
                rot = lambda s: {(x - 1 + shift) % n + 1 for x in s}
                res = pair_weakly_right(rot(a), rot(b), n)
                assert sorted((x - 1 + shift) % n + 1 for x in base.unpaired_lower) == list(res.unpaired_lower)
                assert sorted((x - 1 + shift) % n + 1 for x in base.unpaired_upper) == list(res.unpaired_upper)
                assert sorted((x - 1 + shift) % n + 1 for x in base.paired_lower) == list(res.paired_lower)
                assert sorted((x - 1 + shift) % n + 1 for x in base.paired_upper) == list(res.paired_upper)

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError):
            pair_weakly_right([1, 1], [2], 3)

    def test_matched_sites_agree_with_oracle_exhaustive(self):
        for n in (2, 3, 4, 5):
            sites = list(range(1, n + 1))
            subsets = list(
                itertools.chain.from_iterable(itertools.combinations(sites, r) for r in range(min(n, 4) + 1))
            )
            for a in subsets:
                for b in subsets:
                    res = pair_weakly_right(a, b, n)
                    pattern, site_of = "", []
                    for j in sites:
                        for c in ("(" if j in b else "") + (")" if j in a else ""):
                            pattern += c
                            site_of.append(j)
                    survivors = oracle_survivors(pattern)
                    assert sorted(site_of[i] for i in survivors if pattern[i] == ")") == list(res.unpaired_lower)
                    assert sorted(site_of[i] for i in survivors if pattern[i] == "(") == list(res.unpaired_upper)


class TestStrictlyLeft:
    def test_example_pair(self):
        res = pair_strictly_left([1, 2, 2, 4, 5], [2, 2], 6)
        assert res.unpaired_lower == (2, 2, 4)
        assert res.unpaired_upper == ()
        assert set(res.pairs) == {(2, 1), (2, 5)}

    def test_example_pair_shifted_roles(self):
        res = pair_strictly_left([2, 2], [1, 2, 4, 6], 6)
        assert res.unpaired_upper == (1, 2)
        assert set(res.pairs) == {(4, 2), (6, 2)}

    def test_empty_upper(self):
        res = pair_strictly_left([1, 3, 3], [], 4)
        assert res.pairs == ()
        assert res.unpaired_lower == (1, 3, 3)

    def test_same_site_pairing_needs_full_wrap(self):
        # a lone particle above a lone particle at the same site still pairs,
        # via the line that travels the whole circle
        res = pair_strictly_left([2], [2], 3)
        assert res.pairs == ((2, 2),)

    def test_pair_count_is_min(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 6)
            a = rng.choices(range(1, n + 1), k=rng.randint(0, 4))
            b = rng.choices(range(1, n + 1), k=rng.randint(0, 4))
            res = pair_strictly_left(a, b, n)
            assert len(res.pairs) == min(len(a), len(b))

    def test_rotation_equivariance(self):
        rng = random.Random(14)
        for _ in range(60):
            n = rng.randint(2, 8)
            a = rng.choices(range(1, n + 1), k=rng.randint(0, 5))
            b = rng.choices(range(1, n + 1), k=rng.randint(0, 5))
            base = pair_strictly_left(a, b, n)
            for shift in range(1, n):
                rot = lambda s: [(x - 1 + shift) % n + 1 for x in s]
                res = pair_strictly_left(rot(a), rot(b), n)
                assert sorted((x - 1 + shift) % n + 1 for x in base.unpaired_lower) == list(res.unpaired_lower)
                assert sorted((x - 1 + shift) % n + 1 for x in base.unpaired_upper) == list(res.unpaired_upper)

    def test_matched_sites_agree_with_oracle(self):
        # exhaustive over small two-row bosonic configurations
        for n in (2, 3):
            rows = list(itertools.combinations_with_replacement(range(1, n + 1), 2))
            rows += [(j,) for j in range(1, n + 1)] + [()]
            for a in rows:
                for b in rows:
                    res = pair_strictly_left(a, b, n)
                    pattern, site_of = "", []
                    for j in range(1, n + 1):
                        for c in ")" * b.count(j) + "(" * a.count(j):
                            pattern += c
                            site_of.append(j)
                    survivors = oracle_survivors(pattern)
                    assert sorted(site_of[i] for i in survivors if pattern[i] == "(") == list(res.unpaired_lower)
                    assert sorted(site_of[i] for i in survivors if pattern[i] == ")") == list(res.unpaired_upper)
