"""Smith normal form: pinned examples plus the random property suite."""

import random
from math import gcd

from nilrep.snf import (cokernel_invariants, diagonal_of, int_det,
                        integer_rank, mat_mul, smith_normal_form)


def diag_entries(d):
    return diagonal_of(d)


def test_identity_is_fixed():
    d, u, v = smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]


def test_zero_matrix():
    d, u, v = smith_normal_form([[0]])
    assert d == [[0]]
    assert u == [[1]] and v == [[1]]


def test_two_by_two_diagonal_gcd_lcm():
    # brute-check the 2x2 diagonal rule: diag(a, b) -> diag(gcd, lcm)
    for a in range(1, 7):
        for b in range(1, 7):
            d, u, v = smith_normal_form([[a, 0], [0, b]])
            g = gcd(a, b)
            assert diag_entries(d) == [g, a * b // g]
    d, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert diag_entries(d) == [1, 6]


def test_empty_shapes():
    for m in ([], [[]], [[], []]):
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d


def test_random_round_trip_and_chain():
    rng = random.Random(987)
    for _ in range(500):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(int_det(u)) == 1
        assert abs(int_det(v)) == 1
        diag = diag_entries(d)
        assert all(e >= 0 for e in diag)
        nonzero = [e for e in diag if e]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def test_cokernel_invariants():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    assert cokernel_invariants([[2, 0], [0, 3]]) == (0, (6,))
    # Z^3 / <(0,0,-1)> = Z^2
    assert cokernel_invariants([[0], [0], [-1]]) == (2, ())
    # no columns at all
    assert cokernel_invariants([[], []]) == (2, ())


def test_integer_rank():
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0], [0, 5]]) == 2
    assert integer_rank([[0]]) == 0


def _pad(rng, m, rows, cols):
    """m with zero rows and zero columns inserted at random positions."""
    width = len(m[0])
    at = sorted(rng.sample(range(width + cols), width))
    out = []
    for row in m:
        padded = [0] * (width + cols)
        for j, e in zip(at, row):
            padded[j] = e
        out.append(padded)
    for _ in range(rows):
        out.insert(rng.randint(0, len(out)), [0] * (width + cols))
    return out


def test_pruned_cokernel_matches_full_smith_form():
    # referee: the invariants read off the Smith form of the whole padded
    # matrix, zero rows and columns included
    rng = random.Random(4242)
    cases = [[], [[]], [[], []], [[0, 0, 0], [0, 0, 0]]]
    for _ in range(500):
        m = [[rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]]
        m += [[rng.randint(-6, 6) for _ in m[0]]
              for _ in range(rng.randint(0, 3))]
        cases.append(_pad(rng, m, rng.randint(0, 3), rng.randint(0, 5)))
    for m in cases:
        d, _, _ = smith_normal_form(m)
        nonzero = [e for e in diagonal_of(d) if e]
        assert cokernel_invariants(m) == (
            len(m) - len(nonzero), tuple(e for e in nonzero if e >= 2)), m
        assert integer_rank(m) == len(nonzero), m


def test_cokernel_invariants_match_the_smith_diagonal():
    # unit-heavy matrices eliminate most of their pivots before the Smith
    # form runs, unit-free ones hand it the whole live block
    rng = random.Random(1789)
    cases = [[], [[]], [[], []], [[0]], [[1]], [[-1, 0], [0, 0]]]
    for entries in ((-1, 0, 0, 1), (-1, 0, 1, 2, -3),
                    (0, 0, 2, -2, 3, 4, -6, 9)):
        for _ in range(300):
            rows, cols = rng.randint(1, 7), rng.randint(0, 8)
            cases.append([[rng.choice(entries) for _ in range(cols)]
                          for _ in range(rows)])
    for m in cases:
        d, _, _ = smith_normal_form(m)
        nonzero = [e for e in diagonal_of(d) if e]
        assert cokernel_invariants(m) == (
            len(m) - len(nonzero), tuple(e for e in nonzero if e >= 2)), m
