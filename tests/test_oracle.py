"""Brute-force oracle tests: enumeration, posets, multichains, Moebius tables."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from arborium import oracle
from arborium.algebra import MultiPoly, gens
from arborium.arbor import Arbor, constraints, make_tn, parse_arbor, random_arbor, random_corpus
from arborium.crosscheck import _MAX_POINTS
from arborium.oracle import (
    _PRIMES,
    Poset,
    _moduli,
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


def test_count_and_enumerate_match_a_filtered_box():
    # reference independent of the walk: every point of the box [0, u*n]^n,
    # kept when it meets each subtree inequality
    rng = random.Random(11)
    for n in range(1, 5):
        for _ in range(4):
            t = random_arbor(n, rng)
            cons = constraints(t)
            for dil in range(3):
                box = itertools.product(range(dil * n + 1), repeat=n)
                expected = [p for p in box
                            if all(sum(p[lab - 1] for lab in c.support) <= dil * c.bound
                                   for c in cons)]
                assert enumerate_points(t, dil) == expected, (t, dil)
                assert count_points(t, dil) == len(expected), (t, dil)


def test_count_and_enumerate_have_no_depth_limit():
    n = 1500
    path = Arbor(0, {i: {i + 1} for i in range(n)}, {i: [i + 1] for i in range(n - 1)})
    assert count_points(path, 0) == 1
    assert enumerate_points(path, 0) == [(0,) * n]


def _filtered_box(t, dil):
    # reference independent of the walk, vectorized: every point of the box
    # where each coordinate is at most dil times the smallest support bound
    # containing it, in lex order, kept when it meets each subtree inequality
    cons = constraints(t)
    shape = [dil * min(c.bound for c in cons if lab in c.support) + 1
             for lab in range(1, t.size + 1)]
    box = np.indices(shape).reshape(t.size, -1).T
    keep = np.ones(len(box), dtype=bool)
    for c in cons:
        keep &= box[:, [lab - 1 for lab in c.support]].sum(axis=1) <= dil * c.bound
    return list(map(tuple, box[keep].tolist()))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32), st.integers(0, 3))
@example(5, 0, 3)
def test_walk_matches_the_filtered_box(size, seed, dil):
    t = random_arbor(size, random.Random(seed))
    expected = _filtered_box(t, dil)
    assert enumerate_points(t, dil) == expected
    count = count_points(t, dil)
    assert type(count) is int and count == len(expected)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_walk_blocks_keep_the_points_and_their_order(monkeypatch, block):
    # blocks of 1-3 rows split every expansion, most of them inside one
    # prefix's range of values
    cases = [(t, dil) for t in random_corpus(20260809, sizes=range(1, 6), per_size=2)
             for dil in range(3)]
    cases += [(make_tn(2), 7), (parse_arbor("{1,2}({3}({6,7},{8}),{4,5})"), 1)]
    expected = [(enumerate_points(t, dil), count_points(t, dil)) for t, dil in cases]
    monkeypatch.setattr(oracle, "_BLOCK", block)
    for (t, dil), (points, count) in zip(cases, expected):
        got = enumerate_points(t, dil)
        assert got == points and got == sorted(set(got)), (t, dil)
        assert count_points(t, dil) == count == len(points), (t, dil)


def test_count_points_memory_is_bounded_by_the_block():
    # 14.7 million points; the walk holds at most n + 1 blocks of prefixes
    t = parse_arbor("{1,2}({3}({6,7},{8}),{4,5})")
    tracemalloc.start()
    try:
        count = count_points(t, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 14681700
    assert peak < 32 * 2 ** 20, peak


def test_count_points_refuses_an_int64_overflow():
    # budgets, caps and block sums are int64: u * n must stay below 2^62 / _BLOCK
    bound = 2 ** 62 // oracle._BLOCK
    assert count_points(make_tn(1), bound - 1) == bound
    for t, dil in ((make_tn(1), 2 ** 62), (make_tn(1), bound), (make_tn(2), bound // 2)):
        with pytest.raises(ValueError):
            count_points(t, dil)
        with pytest.raises(ValueError):
            enumerate_points(t, dil)


def test_poset_order_is_the_full_pairwise_comparison():
    arbors = random_corpus(20260809, sizes=range(1, 6), per_size=4)
    arbors.append(parse_arbor("{1,2}({3}({6,7},{8}),{4,5})"))
    for t in arbors:
        P = build_poset(t)
        arr = np.array(P.elements, dtype=np.int64)
        for start in range(0, P.size, 256):
            rows = arr[start:start + 256, None, :]
            full = (rows <= arr[None, :, :]).all(axis=2)
            assert np.array_equal(P.leq[start:start + 256], full), t


def test_poset_packing_edge_cases():
    # |P| off a byte boundary (t_1: 2 points, t_2: 5), coordinates up to 5
    # (one root block of five labels), the fan t_6 and a 6-deep path
    cases = [make_tn(1), make_tn(2), parse_arbor("{1,2,3,4,5}"), make_tn(6),
             parse_arbor("{1}({2}({3}({4}({5}({6})))))")]
    for t in cases:
        P = build_poset(t)
        pairwise = [[all(x <= y for x, y in zip(a, b)) for b in P.elements] for a in P.elements]
        assert P.leq.dtype == bool and P.leq.tolist() == pairwise, t
    assert [build_poset(t).size for t in cases[:2]] == [2, 5]
    assert max(map(max, build_poset(cases[2]).elements)) == 5


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
    census = multichain_weight_counts(P, 3)
    assert list(census) == [2, 3]
    # m=2: single elements, weighted by height
    assert census[2] == {0: 1, 1: 2, 2: 2}
    # m=3: ordered pairs a <= b
    assert sum(census[3].values()) == 12
    with pytest.raises(ValueError):
        multichain_weight_counts(P, 1)


def test_multichain_counts_on_both_sides_of_the_int64_bound():
    # |P| = 5: the bound 5^29 exceeds one prime, so the sweep carries two
    # residues; the counts themselves grow only quadratically in m.
    P = build_poset(make_tn(2))
    census = multichain_weight_counts(P, 30)
    assert list(census) == list(range(2, 31))
    below = [[a for a in range(P.size) if P.leq[a, b]] for b in range(P.size)]
    totals = [1] * P.size
    for m in range(2, 31):
        expected: dict = {}
        for b, c in enumerate(totals):
            expected[P.heights[b]] = expected.get(P.heights[b], 0) + c
        got = census[m]
        assert got == expected and all(type(c) is int for c in got.values()), m
        totals = [sum(totals[a] for a in below[b]) for b in range(P.size)]
    # A 64-element chain: C(b+m-2, m-2) multichains end at element b, which
    # passes 2^63 from m = 23 (b = 63); 64^29 needs five primes.
    chain = Poset(list(range(64)), list(range(64)), np.triu(np.ones((64, 64), dtype=bool)))
    for m, got in multichain_weight_counts(chain, 30).items():
        assert got == {b: comb(b + m - 2, m - 2) for b in range(64)}, m


def _plain_census(P, top):
    # the sweep's reference: Python-int totals over the leq matrix, one m at a time
    below = [np.nonzero(P.leq[:, b])[0].tolist() for b in range(P.size)]
    totals = [1] * P.size
    census = {}
    for m in range(2, top + 1):
        if m > 2:
            totals = [sum(totals[a] for a in below[b]) for b in range(P.size)]
        counts: dict = {}
        for h, c in zip(P.heights, totals):
            counts[h] = counts.get(h, 0) + c
        census[m] = counts
    return census


def test_residue_primes():
    assert list(_PRIMES) == sorted(set(_PRIMES), reverse=True)
    for p in _PRIMES:
        assert sympy.isprime(p) and p * _MAX_POINTS <= 2 ** 53
    # cross_check's largest census: |P| <= _MAX_POINTS and top = n + 3 with
    # 2^n <= _MAX_POINTS, so n <= 13
    n = _MAX_POINTS.bit_length() - 1
    assert n == 13 and prod(_PRIMES) > _MAX_POINTS ** (n + 3 - 1)
    assert _moduli(_MAX_POINTS, n + 3) == _PRIMES[:5]


def test_residue_primes_are_the_fewest_that_cover():
    assert _moduli(2, 12) == _PRIMES[:1]
    assert _moduli(5, 30) == _PRIMES[:2]
    assert _moduli(3464, 11) == _PRIMES[:3]
    with pytest.raises(ValueError):
        _moduli(2, 300)  # 2^299 exceeds the table's product


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32), st.integers(2, 12))
@example(1, 0, 12)  # |P| = 2: one prime
@example(3, 0, 12)  # two primes
@example(6, 0, 12)  # three primes
def test_multichain_counts_match_the_plain_loop(size, seed, top):
    P = build_poset(random_arbor(size, random.Random(seed)))
    census = multichain_weight_counts(P, top)
    assert census == _plain_census(P, top)
    assert all(list(got) == list(dict.fromkeys(P.heights)) for got in census.values())
    assert all(type(c) is int for got in census.values() for c in got.values())


def test_multichain_counts_refuse_a_poset_beyond_the_residue_bound():
    # leq is a placeholder: the size check must come before any array is built
    P = Poset(list(range(_MAX_POINTS + 1)), [0] * (_MAX_POINTS + 1), None)
    with pytest.raises(ValueError):
        multichain_weight_counts(P, 2)


def test_multichain_totals_monotone():
    P = build_poset(parse_arbor("{1,2}({3})"))
    totals = [sum(counts.values()) for counts in multichain_weight_counts(P, 7).values()]
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
