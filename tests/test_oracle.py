"""Brute-force oracle tests: enumeration, posets, multichains, Moebius tables."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arborium import oracle
from arborium.algebra import MultiPoly, poly_from_counts
from arborium.arbor import Arbor, constraints, make_tn, parse_arbor, random_arbor, random_corpus
from arborium.oracle import (
    Poset,
    build_poset,
    count_points,
    dilate_counts,
    enumerate_points,
    height_distribution_oracle,
    k_oracle,
    m_triangle_oracle,
    mobius_oracle,
    multichain_weight_counts,
    zeta_oracle,
)
from fan_forms import gens

u, X, Y, E, V, s = gens()

FIGURE = "{1,2}({3}({6,7},{8}),{4,5})"


def test_enumerate_unit_segment():
    assert enumerate_points(make_tn(1), 1).tolist() == [[0], [1]]
    assert enumerate_points(make_tn(1), 0).tolist() == [[0]]


def test_enumerate_fan_two():
    pts = enumerate_points(make_tn(2), 1)
    assert pts.dtype == np.int64 and pts.shape == (5, 2)
    assert pts.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0]]  # lexicographic
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
                expected = [list(p) for p in box
                            if all(sum(p[lab - 1] for lab in c.support) <= dil * c.bound
                                   for c in cons)]
                assert enumerate_points(t, dil).tolist() == expected, (t, dil)
                assert count_points(t, dil) == len(expected), (t, dil)


def test_count_and_enumerate_have_no_depth_limit():
    n = 1500
    path = Arbor(0, {i: {i + 1} for i in range(n)}, {i: [i + 1] for i in range(n - 1)})
    assert count_points(path, 0) == 1
    assert dilate_counts(path, (0, 0)) == [1, 1]
    assert enumerate_points(path, 0).tolist() == [[0] * n]


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
    return box[keep].tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32), st.integers(0, 3))
@example(5, 0, 3)
def test_walk_matches_the_filtered_box(size, seed, dil):
    t = random_arbor(size, random.Random(seed))
    expected = _filtered_box(t, dil)
    assert enumerate_points(t, dil).tolist() == expected
    count = count_points(t, dil)
    assert type(count) is int and count == len(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32), st.lists(st.integers(0, 3), max_size=6))
@example(1, 0, [2, 0, 2, 1])  # n = 1: the root block is the only block
@example(5, 0, [3, 0, 1, 3])  # unsorted and repeated, over two blocks
@example(3, 0, [])
def test_dilate_counts_match_the_filtered_box(size, seed, dilates):
    # one walk over all the dilates, in the order given, repeats included
    t = random_arbor(size, random.Random(seed))
    expected = {dil: len(_filtered_box(t, dil)) for dil in set(dilates)}
    counts = dilate_counts(t, dilates)
    assert counts == [expected[dil] for dil in dilates]
    assert all(type(c) is int for c in counts)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_walk_blocks_keep_the_points_and_their_order(monkeypatch, block):
    # blocks of 1-3 rows split every expansion, most of them inside one
    # prefix's range of values
    cases = [(t, dil) for t in random_corpus(20260809, sizes=range(1, 6), per_size=2)
             for dil in range(3)]
    cases += [(make_tn(2), 7), (parse_arbor(FIGURE), 1)]
    expected = [(enumerate_points(t, dil).tolist(), count_points(t, dil)) for t, dil in cases]
    mixes = [(t, (2, 0, 1, 2, 0)) for t in random_corpus(7, sizes=range(1, 5), per_size=2)]
    mixes.append((parse_arbor(FIGURE), (1, 0, 1)))
    expected_mixes = [dilate_counts(t, dils) for t, dils in mixes]
    monkeypatch.setattr(oracle, "_BLOCK", block)
    for (t, dil), (points, count) in zip(cases, expected):
        got = list(map(tuple, enumerate_points(t, dil).tolist()))
        assert got == list(map(tuple, points)) and got == sorted(set(got)), (t, dil)
        assert count_points(t, dil) == count == len(points), (t, dil)
    # the counter reads blocks whose rows belong to different dilates
    walk, mixed = oracle._prefix_blocks, []

    def recorded(t, dilates):
        for prefixes, index, caps in walk(t, dilates):
            mixed.append(len(set(index.tolist())) > 1)
            yield prefixes, index, caps

    monkeypatch.setattr(oracle, "_prefix_blocks", recorded)
    for (t, dils), counts in zip(mixes, expected_mixes):
        assert dilate_counts(t, dils) == counts, (t, dils)
    assert any(mixed)


def test_count_points_memory_is_bounded_by_the_block():
    # 14.7 million points at u = 4; the walk holds at most n + 1 blocks of
    # prefixes, however many dilates it counts
    t = parse_arbor(FIGURE)
    for count, expected in ((lambda: count_points(t, 4), 14681700),
                            (lambda: dilate_counts(t, range(5)),
                             [1, 3464, 161145, 2109744, 14681700])):
        tracemalloc.start()
        try:
            got = count()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
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
    # one walk over several dilates is bounded by its largest one
    assert dilate_counts(make_tn(1), (bound - 1, 0, 1)) == [bound, 1, 2]
    for t, dils in ((make_tn(1), (0, bound)), (make_tn(1), (bound, 0)),
                    (make_tn(1), (1, 2 ** 62, 1)), (make_tn(2), (2, bound // 2))):
        with pytest.raises(ValueError, match="int64 bound"):
            dilate_counts(t, dils)
    with pytest.raises(ValueError, match=">= 0"):
        dilate_counts(make_tn(2), (1, -1, 2))


def _leq(P):
    # the order relation, pairwise from the coordinates: leq[a, b] iff a <= b
    arr = P.points
    return np.vstack([(arr[lo:lo + 256, None, :] <= arr[None, :, :]).all(axis=2)
                      for lo in range(0, P.size, 256)])


def _level_solve(P, leq):
    # the dense M-triangle reference: Z V = H solved in int64 one height level
    # at a time, from the top down, V[lo:hi] = H[lo:hi] - Z[lo:hi, hi:] V[hi:];
    # in height order Z is upper triangular with an identity block on the
    # diagonal at each level, so no level needs a solve inside itself.  The
    # points are sorted by height here; the sums of H^T V do not see the order.
    order = np.argsort(P.heights, kind="stable")
    heights, leq = P.heights[order], leq[np.ix_(order, order)]
    H = np.eye(heights.max() + 1, dtype=np.int64)[heights]
    V = H.copy()
    ends = np.cumsum(np.bincount(heights)).tolist()
    for lo, hi in reversed(list(zip([0] + ends, ends))):
        V[lo:hi] -= leq[lo:hi, hi:].astype(np.int64) @ V[hi:]
    table = (H.T @ V).tolist()
    return poly_from_counts({(ha, hb): val for ha, row in enumerate(table)
                             for hb, val in enumerate(row)}, "X", "Y")


def _plain_census(P, top, leq):
    # the sweep's reference: Python-int totals over leq, one m at a time
    below = [np.nonzero(leq[:, b])[0].tolist() for b in range(P.size)]
    totals = [1] * P.size
    census = {}
    for m in range(2, top + 1):
        if m > 2:
            totals = [sum(totals[a] for a in below[b]) for b in range(P.size)]
        counts: dict = {}
        for h, c in zip(P.heights.tolist(), totals):
            counts[h] = counts.get(h, 0) + c
        census[m] = counts
    return census


def test_poset_rows_are_the_walks_points_in_lex_order():
    arbors = random_corpus(20260809, sizes=range(1, 6), per_size=4)
    arbors.append(parse_arbor(FIGURE))
    for t in arbors:
        P = build_poset(t)
        assert P.points.dtype == np.int64 and P.heights.dtype == np.int64, t
        assert P.points.tolist() == enumerate_points(t, 1).tolist(), t
        assert P.heights.tolist() == [sum(p) for p in P.points.tolist()], t
        assert P.size == len(P.points), t


@pytest.mark.parametrize("points", [
    [(0, 0), (1, 0), (0, 1), (1, 1)],  # out of lex order
    [(0, 0), (0, 1), (0, 1), (1, 0)],  # a repeated row
    [(0,), (1,), (0,)],
    [(1, 0), (0, 0)],
])
def test_poset_refuses_rows_out_of_strict_lex_order(points):
    with pytest.raises(ValueError, match="strictly increasing lex order"):
        Poset(points)


def test_poset_refuses_points_that_are_not_down_closed(monkeypatch):
    # the prefix sums rest on down-closedness, so building checks it
    for points in ([(0, 0), (1, 1)], [(0, 0), (0, 1), (1, 1)], [(1,)], [(0, 0), (0, 2)]):
        with pytest.raises(ValueError, match="not down-closed"):
            Poset(points)
    assert Poset([(0, 0), (0, 1), (1, 0), (1, 1)]).size == 4
    # the figure arbor's points without the origin
    points = enumerate_points(parse_arbor(FIGURE), 1)
    monkeypatch.setattr(oracle, "enumerate_points", lambda t, dil: points[1:])
    with pytest.raises(ValueError, match="not down-closed"):
        build_poset(parse_arbor(FIGURE))


def test_poset_refuses_keys_past_int64():
    # the origin and the d unit vectors, in lex order (e_d first), are
    # down-closed, and their mixed-radix box {0, 1}^d holds 2^d keys
    def cross(d):
        return [tuple(int(i == j) for i in range(d)) for j in (-1, *range(d - 1, -1, -1))]

    assert Poset(cross(63)).size == 64
    with pytest.raises(ValueError, match="2\\^63"):
        Poset(cross(64))


def test_poset_edge_cases_match_the_references():
    # t_1 and t_2 (2 and 5 points), coordinates up to 5 (one root block of
    # five labels), the fan t_6 and a 6-deep path
    cases = [make_tn(1), make_tn(2), parse_arbor("{1,2,3,4,5}"), make_tn(6),
             parse_arbor("{1}({2}({3}({4}({5}({6})))))")]
    for t in cases:
        P = build_poset(t)
        leq = _leq(P)
        rows = P.points.tolist()
        assert leq.tolist() == [[all(x <= y for x, y in zip(a, b)) for b in rows]
                                for a in rows], t
        assert multichain_weight_counts(P, 8) == _plain_census(P, 8, leq), t
        assert m_triangle_oracle(P) == _level_solve(P, leq), t
    assert [build_poset(t).size for t in cases[:2]] == [2, 5]
    assert build_poset(cases[2]).points.max() == 5


def test_poset_structure_fan_two():
    P = build_poset(make_tn(2))
    assert P.size == 5
    leq = _leq(P)
    mins = [i for i in range(P.size) if leq[:, i].sum() == 1]
    assert P.points[mins].tolist() == [[0, 0]]
    maxs = [i for i in range(P.size) if leq[i, :].sum() == 1]
    assert sorted(P.points[maxs].tolist()) == [[1, 1], [2, 0]]
    assert P.heights.tolist() == [0, 1, 1, 2, 2]


def test_poset_size_fan_family():
    # |points(t_n)| = 2^(n-1) * (n+3)/2
    for n in range(1, 7):
        expected = 2 ** (n - 1) * Fraction(n + 3, 2)
        assert build_poset(make_tn(n)).size == expected


def test_figure_oracles_memory_is_linear_in_the_points():
    # the build, the spot path's census sweep to m = 4 and the Moebius sweep
    # together peak at about 1.1 MiB on the figure arbor (|P| = 3464); the
    # |P|^2 order relation alone would take 11.4 MiB
    t = parse_arbor(FIGURE)
    tracemalloc.start()
    try:
        P = build_poset(t)
        multichain_weight_counts(P, 4)
        m_triangle_oracle(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def test_mobius_two_chain():
    P = build_poset(make_tn(1))
    mu = mobius_oracle(P)
    i0 = P.points.tolist().index([0])
    i1 = P.points.tolist().index([1])
    assert mu[(i0, i0)] == 1 and mu[(i1, i1)] == 1
    assert mu[(i0, i1)] == -1
    assert (i1, i0) not in mu


def test_mobius_defining_identity():
    P = build_poset(make_tn(3))
    leq = _leq(P)
    mu = mobius_oracle(P)
    for a in range(P.size):
        for b in range(P.size):
            if not leq[a, b]:
                continue
            total = sum(mu.get((a, e), 0)
                        for e in range(P.size)
                        if leq[a, e] and leq[e, b])
            assert total == (1 if a == b else 0)


def test_m_triangle_oracle_small():
    assert m_triangle_oracle(build_poset(make_tn(1))) == 1 - Y + X * Y
    m2 = m_triangle_oracle(build_poset(make_tn(2)))
    assert m2.subs({"X": 1}) == 1


def _binned_mobius_sum(P):
    # sum of mu(a, b) X^ht(a) Y^ht(b), straight from the sparse Moebius table
    total = MultiPoly.zero()
    for (a, b), val in mobius_oracle(P).items():
        total = total + val * X ** int(P.heights[a]) * Y ** int(P.heights[b])
    return total


def test_m_triangle_solve_matches_mobius_table():
    arbors = random_corpus(20260809, sizes=range(1, 6), per_size=4)
    arbors += [make_tn(n) for n in range(1, 7)]
    for t in arbors:
        P = build_poset(t)
        assert m_triangle_oracle(P) == _binned_mobius_sum(P), t


def test_m_triangle_matches_the_dense_level_solve():
    arbors = random_corpus(20260809, sizes=range(1, 6), per_size=4)
    arbors.append(parse_arbor(FIGURE))
    for t in arbors:
        P = build_poset(t)
        assert m_triangle_oracle(P) == _level_solve(P, _leq(P)), t


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
    # |P| = 5: 5^27 < 2^63 <= 5^28, so the sweep is int64 up to top = 28 and
    # holds Python ints from top = 29; the counts themselves grow only
    # quadratically in m.
    P = build_poset(make_tn(2))
    for top in (28, 29):
        census = multichain_weight_counts(P, top)
        assert list(census) == list(range(2, top + 1))
        assert census == _plain_census(P, top, _leq(P)), top
        assert all(type(c) is int for got in census.values() for c in got.values()), top
    # A 64-element chain: C(b+m-2, m-2) multichains end at element b, which
    # passes 2^63 from m = 23 (b = 63); 64^10 < 2^63, so top = 11 is int64.
    chain = Poset([(b,) for b in range(64)])
    for top in (11, 30):
        for m, got in multichain_weight_counts(chain, top).items():
            assert got == {b: comb(b + m - 2, m - 2) for b in range(64)}, m


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32), st.integers(2, 12))
@example(1, 0, 12)  # |P| = 2: int64
@example(6, 0, 7)   # |P| = 557: int64, as 557^6 < 2^63
@example(6, 0, 12)  # Python ints, as 557^11 >= 2^63
def test_multichain_counts_match_the_plain_loop(size, seed, top):
    P = build_poset(random_arbor(size, random.Random(seed)))
    census = multichain_weight_counts(P, top)
    assert census == _plain_census(P, top, _leq(P))
    highest = int(P.heights.max())
    assert all(list(got) == list(range(highest + 1)) for got in census.values())
    assert all(type(c) is int for got in census.values() for c in got.values())


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
    # the 0th dilate is the origin alone; a negative dilation is refused
    assert height_distribution_oracle(parse_arbor(FIGURE), 0) == MultiPoly.const(1)
    with pytest.raises(ValueError):
        height_distribution_oracle(make_tn(1), -1)


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
