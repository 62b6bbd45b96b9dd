"""Brute-force oracle tests: enumeration, posets, multichains, Moebius tables."""

from fractions import Fraction

import numpy as np
import pytest

from arborium.algebra import MultiPoly, gens
from arborium.arbor import make_tn, parse_arbor, random_corpus
from arborium.oracle import (
    Poset,
    build_poset,
    count_points,
    enumerate_points,
    height_distribution_oracle,
    k_oracle,
    m_triangle_oracle,
    mobius_oracle,
    multichain_weight_counts,
    zeta_oracle,
)

u, X, Y, E, V, s, v = gens()


def test_enumerate_unit_segment():
    assert enumerate_points(make_tn(1), 1) == [(0,), (1,)]
    assert enumerate_points(make_tn(1), 0) == [(0,)]


def test_enumerate_fan_two():
    pts = enumerate_points(make_tn(2), 1)
    assert pts == sorted(pts)  # lexicographic
    assert set(pts) == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)}
    assert len(enumerate_points(make_tn(2), 2)) == 12


def test_count_matches_enumerate():
    for t in random_corpus(9, sizes=range(1, 6), per_size=2):
        for dil in range(3):
            assert count_points(t, dil) == len(enumerate_points(t, dil))


def test_poset_structure_fan_two():
    P = build_poset(make_tn(2))
    assert P.size == 5
    mins = [i for i in range(P.size) if P.leq[:, i].sum() == 1]
    assert [P.elements[i] for i in mins] == [(0, 0)]
    maxs = [i for i in range(P.size) if P.leq[i, :].sum() == 1]
    assert {P.elements[i] for i in maxs} == {(2, 0), (1, 1)}
    assert P.heights == [sum(p) for p in P.elements]


def test_poset_size_fan_family():
    # |points(t_n)| = 2^(n-1) * (n+3)/2
    for n in range(1, 7):
        expected = 2 ** (n - 1) * Fraction(n + 3, 2)
        assert build_poset(make_tn(n)).size == expected


def test_mobius_two_chain():
    P = build_poset(make_tn(1))
    mu = mobius_oracle(P)
    i0 = P.elements.index((0,))
    i1 = P.elements.index((1,))
    assert mu[(i0, i0)] == 1 and mu[(i1, i1)] == 1
    assert mu[(i0, i1)] == -1
    assert (i1, i0) not in mu


def test_mobius_defining_identity():
    P = build_poset(make_tn(3))
    mu = mobius_oracle(P)
    for a in range(P.size):
        for b in range(P.size):
            if not P.leq[a, b]:
                continue
            total = sum(mu.get((a, e), 0)
                        for e in range(P.size)
                        if P.leq[a, e] and P.leq[e, b])
            assert total == (1 if a == b else 0)


def test_m_triangle_oracle_small():
    assert m_triangle_oracle(build_poset(make_tn(1))) == 1 - Y + X * Y
    m2 = m_triangle_oracle(build_poset(make_tn(2)))
    assert m2.subs({"X": 1}) == 1


def _binned_mobius_sum(P):
    # sum of mu(a, b) X^ht(a) Y^ht(b), straight from the sparse Moebius table
    total = MultiPoly.zero()
    for (a, b), val in mobius_oracle(P).items():
        total = total + val * X ** P.heights[a] * Y ** P.heights[b]
    return total


def test_m_triangle_solve_matches_mobius_table():
    arbors = random_corpus(20260809, sizes=range(1, 6), per_size=4)
    arbors += [make_tn(n) for n in range(1, 7)]
    for t in arbors:
        P = build_poset(t)
        assert m_triangle_oracle(P) == _binned_mobius_sum(P), t


def _layered_poset(layers):
    # bottom < three-element antichain < ... < three-element antichain < top,
    # with mu(bottom, top) = -(-2)^layers; index order is a linear extension
    heights = [0] + [h for h in range(1, layers + 1) for _ in range(3)] + [layers + 1]
    hs = np.array(heights)
    leq = (hs[:, None] < hs[None, :]) | np.eye(len(heights), dtype=bool)
    return Poset(list(range(len(heights))), heights, leq)


def test_m_triangle_solve_is_exact_or_raises_overflow():
    P = _layered_poset(20)
    m = m_triangle_oracle(P)
    assert m == _binned_mobius_sum(P)
    assert m.coefficient("X", 0).coefficient("Y", 21).constant_value() == -(2 ** 20)
    # |mu(bottom, top)| * |P| reaches 2^62 from 61 layers; 70 layers wrap int64
    for layers in (61, 70):
        with pytest.raises(OverflowError):
            m_triangle_oracle(_layered_poset(layers))


def test_multichain_counts_basics():
    P = build_poset(make_tn(2))
    # m=2: single elements, weighted by height
    assert multichain_weight_counts(P, 2) == {0: 1, 1: 2, 2: 2}
    # m=3: ordered pairs a <= b
    assert sum(multichain_weight_counts(P, 3).values()) == 12
    with pytest.raises(ValueError):
        multichain_weight_counts(P, 1)


def test_multichain_counts_on_both_sides_of_the_int64_bound():
    # |P| = 5: int64 counting up to m = 27 (5^26 < 2^62), Python ints from m = 28.
    P = build_poset(make_tn(2))
    below = [[a for a in range(P.size) if P.leq[a, b]] for b in range(P.size)]
    totals = [1] * P.size
    for m in range(2, 31):
        expected: dict = {}
        for b, c in enumerate(totals):
            expected[P.heights[b]] = expected.get(P.heights[b], 0) + c
        got = multichain_weight_counts(P, m)
        assert got == expected and all(type(c) is int for c in got.values()), m
        totals = [sum(totals[a] for a in below[b]) for b in range(P.size)]


def test_multichain_totals_monotone():
    P = build_poset(parse_arbor("{1,2}({3})"))
    totals = [sum(multichain_weight_counts(P, m).values()) for m in range(2, 8)]
    assert totals[0] == P.size
    assert all(a <= b for a, b in zip(totals, totals[1:]))


def test_zeta_oracle_smallest():
    assert zeta_oracle(build_poset(make_tn(1))) == 1 + (u - 1) * X


def test_zeta_oracle_fan_two_values():
    z = zeta_oracle(build_poset(make_tn(2)))
    at_one = z.subs({"X": 1})
    assert at_one.subs({"u": 2}).constant_value() == 5
    assert at_one.subs({"u": 3}).constant_value() == 12
    assert at_one == u * (3 * u - 1) * Fraction(1, 2)


def test_k_oracle_values():
    assert k_oracle(build_poset(make_tn(1))) == 1 + X * Y
    assert k_oracle(build_poset(make_tn(2))) == 1 + 2 * X * Y + X * Y ** 2 + X ** 2 * Y ** 2


def test_height_distribution():
    for m in range(1, 4):
        expected = sum((X ** k for k in range(m + 1)), MultiPoly.zero())
        assert height_distribution_oracle(make_tn(1), m) == expected
    assert height_distribution_oracle(make_tn(2), 1) == 1 + 2 * X + 2 * X ** 2


def test_height_distribution_total_is_count():
    for t in random_corpus(14, sizes=range(1, 6), per_size=2):
        for m in (1, 2):
            poly = height_distribution_oracle(t, m)
            assert poly.subs({"X": 1}).constant_value() == count_points(t, m)


def test_height_distribution_fan_totals():
    # total count at X=1 equals (m+1)^(n-1) (mn/2 + m/2 + 1)
    for n in range(1, 6):
        for m in range(1, 4):
            total = height_distribution_oracle(make_tn(n), m).subs({"X": 1})
            expected = (m + 1) ** (n - 1) * (Fraction(m * n, 2) + Fraction(m, 2) + 1)
            assert total.constant_value() == expected
