"""Recursions versus closed forms, oracles, and structural properties."""

import random
from fractions import Fraction
from functools import reduce
from math import comb
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from arborium.algebra import MultiPoly, binom_poly, laplace_laurent, poly_from_counts
from arborium.arbor import (
    Arbor, make_tn, parse_arbor, random_arbor, random_corpus, serialize_arbor)
from arborium.invariants import (
    compute_invariants,
    ehrhart,
    ehrhart_heights,
    ehrhart_tn_closed,
    k_poly,
    laplace,
    laplace_tn_closed,
    m_triangle,
    truncate_laplace,
    volume,
    zeta_poly,
)
from arborium import invariants, oracle
from arborium.cli import main
from fan_forms import (
    ehrhart_tn_alternating, gens, height_distribution_oracle, int_binom, k_poly_by_lists,
    k_tn_closed, m_tn_closed, truncate_laplace_by_fractions, zeta_tn_closed)

u, X, Y, E, V, s = gens()


# -- zeta -------------------------------------------------------------------

def test_zeta_smallest():
    assert zeta_poly(make_tn(1)) == 1 + (u - 1) * X


def test_zeta_single_vertex_base_case():
    # a lone vertex of size r has X^j coefficient binom_poly(r(u-1)+j-1, j)
    for r in (1, 2, 3):
        t = Arbor(0, {0: set(range(1, r + 1))}, {0: []})
        z = zeta_poly(t)
        for j in range(r + 1):
            assert z.coefficient("X", j) == binom_poly(r * (u - 1) + j - 1, j)


def test_zeta_fan_closed_form():
    for n in range(1, 8):
        assert zeta_poly(make_tn(n)).subs({"X": 1}) == zeta_tn_closed(n)
    assert zeta_tn_closed(1) == u
    assert zeta_tn_closed(2) == u * (3 * u - 1) * Fraction(1, 2)
    assert zeta_tn_closed(3).subs({"u": 2}).constant_value() == 12


def test_zeta_constant_coefficient_is_one():
    for n in (1, 3, 5):
        assert zeta_poly(make_tn(n)).coefficient("X", 0) == 1


def test_zeta_x_degree_is_size():
    t = parse_arbor("{2}({1,3})")
    assert zeta_poly(t).degree("X") == 3


# -- K polynomial and M-triangle -----------------------------------------------

def test_k_poly_small():
    assert k_poly(make_tn(1)) == 1 + X * Y
    assert k_poly(make_tn(2)) == 1 + 2 * X * Y + X * Y ** 2 + X ** 2 * Y ** 2


def test_k_single_vertex_base_case():
    for r in (1, 2, 3):
        t = Arbor(0, {0: set(range(1, r + 1))}, {0: []})
        expected = MultiPoly.zero()
        for k in range(r + 1):
            for j in range(k + 1):
                c = int_binom(r, j) * int_binom(k - 1, k - j)
                expected = expected + c * X ** j * Y ** k
        assert k_poly(t) == expected
        assert k_poly(t) == oracle.k_oracle(oracle.build_poset(t))


def test_k_fan_closed_form():
    assert k_tn_closed(1) == 1 + X * Y
    for n in range(1, 7):
        assert k_tn_closed(n) == k_poly(make_tn(n))


def _path(n):
    return parse_arbor("".join("{%d}(" % i for i in range(1, n)) + "{%d}" % n + ")" * (n - 1))


@pytest.mark.parametrize("arbors", [
    lambda: [make_tn(n) for n in range(1, 31)],
    # the corpus of the benchmark's corpus workload at its default seed
    lambda: random_corpus(20260809, (1, 2, 3, 3, 4, 5, 5), 16),
    lambda: [parse_arbor("{1,2}({3}({6,7},{8}),{4,5})")],
    # the cut falls at every level, and the root's packed ints reach 2 Mbit
    lambda: [_path(100)],
], ids=["t1-t30", "corpus", "figure", "path-100"])
def test_k_poly_matches_the_list_fold(arbors):
    for t in arbors():
        assert k_poly(t) == k_poly_by_lists(t), serialize_arbor(t)


def test_k_poly_makes_no_polynomial_product(monkeypatch):
    arbors = [make_tn(16), parse_arbor("{1,2}({3}({6,7},{8}),{4,5})"), _path(12)]
    expected = [k_poly_by_lists(t) for t in arbors]

    def refuse(self, other):
        raise AssertionError("k_poly multiplied polynomials")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    monkeypatch.setattr(MultiPoly, "__rmul__", refuse)
    assert [k_poly(t) for t in arbors] == expected


def test_k_at_zero():
    for t in (make_tn(4), parse_arbor("{1,2}({3},{4})")):
        assert k_poly(t).subs({"X": 0}) == 1


def test_m_triangle_small():
    assert m_triangle(make_tn(1)) == 1 - Y + X * Y
    P = oracle.build_poset(make_tn(2))
    assert m_triangle(make_tn(2)) == oracle.m_triangle_oracle(P)


def test_m_fan_closed_form():
    assert m_tn_closed(1) == 1 + X * Y - Y
    for n in range(1, 7):
        assert m_tn_closed(n) == m_triangle(make_tn(n))


def test_m_at_x_equal_one():
    for n in range(1, 11):
        assert m_tn_closed(n).subs({"X": 1}) == 1
    assert m_triangle(parse_arbor("{3}({1,4},{2})")).subs({"X": 1}) == 1


def test_m_constant_term():
    for n in (1, 2, 5):
        assert m_tn_closed(n).subs({"X": 0, "Y": 0}) == 1


# -- Ehrhart -----------------------------------------------------------------------

def test_ehrhart_small():
    assert ehrhart(make_tn(1)) == 1 + u
    assert ehrhart(make_tn(2)) == 1 + Fraction(5, 2) * u + Fraction(3, 2) * u ** 2


def test_ehrhart_fan_closed_values():
    # closed form (m+1)^(n-1) (mn/2 + m/2 + 1) against enumeration
    for n in range(1, 7):
        e = ehrhart_tn_closed(n)
        for m in range(5):
            expected = (m + 1) ** (n - 1) * (Fraction(m * n + m, 2) + 1)
            assert e.subs({"u": m}).constant_value() == expected
            assert oracle.count_points(make_tn(n), m) == expected


def test_ehrhart_closed_forms_agree():
    assert ehrhart_tn_alternating(1) == 1 + u
    assert ehrhart_tn_alternating(2) == 1 + Fraction(5, 2) * u + Fraction(3, 2) * u ** 2
    for n in range(1, 11):
        assert ehrhart_tn_alternating(n) == ehrhart_tn_closed(n)


def test_ehrhart_structure():
    t = parse_arbor("{1,3}({2})")
    e = ehrhart(t)
    assert e.degree("u") == t.size
    assert e.subs({"u": 0}).constant_value() == 1
    assert e.subs({"u": 1}).constant_value() == oracle.build_poset(t).size


def test_ehrhart_heights_match_height_distribution():
    for t in random_corpus(20260809, sizes=range(1, 6), per_size=4):
        for dil in range(4):
            by_height = height_distribution_oracle(t, dil)
            got = ehrhart_heights(t, dil)
            assert len(got) == dil * t.size + 1
            for h, c in enumerate(got):
                assert c == by_height.coefficient("X", h).constant_value(), \
                    (serialize_arbor(t), dil, h)


def test_ehrhart_heights_total_is_count():
    for t in random_corpus(20260809, sizes=range(1, 6), per_size=4):
        for dil in range(4):
            assert sum(ehrhart_heights(t, dil)) == oracle.count_points(t, dil), \
                (serialize_arbor(t), dil)
    with pytest.raises(ValueError):
        ehrhart_heights(make_tn(1), -1)


def binomial_table_heights(t, dil):
    """Reference fold for ehrhart_heights: the own list C(s+r-1, r-1) for
    s = 0..dil*n, times each child's list by a plain convolution, cut at dil*n."""
    def step(labels, n, kids):
        cap, r = dil * n, len(labels)
        acc = [comb(s + r - 1, r - 1) for s in range(cap + 1)]
        for kid in kids:
            acc = [sum(acc[i] * kid[s - i] for i in range(max(0, s - len(kid) + 1), s + 1))
                   for s in range(cap + 1)]
        return acc
    return t.fold(step)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 32), st.integers(0, 3))
@example(7, 0, 3)
def test_ehrhart_heights_match_the_binomial_table_fold(size, seed, dil):
    t = random_arbor(size, random.Random(seed))
    assert ehrhart_heights(t, dil) == binomial_table_heights(t, dil)


@pytest.mark.parametrize("text", [
    "".join("{%d}(" % i for i in range(1, 16)) + "{16}" + ")" * 15,
    "{1}(" + ",".join("{%d}" % i for i in range(2, 13)) + ")",
    "{1,2}({3}({6,7},{8}),{4,5})",
    "{1,2,3,4}({5,6}({7}),{8,9,10})",
], ids=["path-16", "t12", "figure", "wide-blocks"])
def test_ehrhart_heights_match_the_binomial_table_fold_deep_and_wide(text):
    t = parse_arbor(text)
    for dil in range(4):
        assert ehrhart_heights(t, dil) == binomial_table_heights(t, dil), dil


def test_ehrhart_figure_arbor_leading_coefficient_and_size():
    t = parse_arbor("{1,2}({3}({6,7},{8}),{4,5})")
    e = ehrhart(t)
    assert e.coefficient("u", 8).constant_value() == volume(t) == Fraction(5993, 90)
    assert e.subs({"u": 1}).constant_value() == 3464


def test_ehrhart_leading_coefficient_is_volume():
    for n in range(1, 7):
        lead = ehrhart_tn_closed(n).coefficient("u", n)
        assert lead.constant_value() == Fraction(n + 1, 2)


# -- Laplace transform ----------------------------------------------------------------

def test_truncate_laplace_rules():
    for n in (1, 2, 5):
        assert truncate_laplace(V, n) == V - V * E ** n
    assert truncate_laplace(V ** 2 * E ** 3, 2).is_zero()
    assert truncate_laplace(V ** 2, 2) == V ** 2 - (2 * V + V ** 2) * E ** 2


def test_truncate_laplace_requires_positive_v_degree():
    with pytest.raises(ValueError):
        truncate_laplace(E + V, 2)
    with pytest.raises(ValueError):
        truncate_laplace(X * V, 2)


def test_truncate_laplace_linear_and_idempotent():
    rng = random.Random(23)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            expv, expe = rng.randint(1, 4), rng.randint(0, 5)
            coeff = Fraction(rng.randint(-9, 9))
            p = V ** expv * E ** expe
            terms[p] = terms.get(p, 0) + coeff
        poly = sum((c * p for p, c in terms.items()), MultiPoly.zero())
        n = rng.randint(1, 4)
        once = truncate_laplace(poly, n)
        assert truncate_laplace(once, n) == once
        split = sum((truncate_laplace(c * p, n) for p, c in terms.items() if c),
                    MultiPoly.zero())
        assert split == once


@st.composite
def transforms(draw):
    """(p, n): a polynomial in E and V with V-degrees 1..6 and E-degrees
    0..n+2, and negative or non-integer coefficients, for n = 1..8."""
    n = draw(st.integers(1, 8))
    monomials = st.tuples(st.integers(0, n + 2), st.integers(1, 6))
    coeffs = st.fractions(-20, 20, max_denominator=12)
    return poly_from_counts(draw(st.dictionaries(monomials, coeffs, max_size=8)), "E", "V"), n


@settings(max_examples=200, deadline=None)
@given(transforms())
@example((Fraction(-5, 6) * V ** 6 * E - Fraction(3, 4) * V ** 2 * E ** 10, 8))
@example((Fraction(1, 3) * V, 1))
@example((MultiPoly.zero(), 4))
def test_truncate_laplace_matches_the_fraction_form(case):
    p, n = case
    assert truncate_laplace(p, n) == truncate_laplace_by_fractions(p, n)


def test_truncate_laplace_makes_no_fraction():
    p = Fraction(-7, 6) * V ** 4 * E - Fraction(2, 9) * V ** 2 + 3 * V * E ** 2
    expected = truncate_laplace_by_fractions(p, 3)
    made = []
    original = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        result = truncate_laplace(p, 3)
    finally:
        Fraction.__new__ = original
    assert made == []
    assert result == expected


def test_laplace_cuts_once_per_vertex():
    # Reference: the fold that also cut the vertex's own V^r at n before
    # multiplying in the children.
    def double_cut(labels, n, kids):
        return truncate_laplace(reduce(mul, kids, truncate_laplace(V ** len(labels), n)), n)

    rng = random.Random(16)
    arbors = [random_arbor(n, rng) for n in range(1, 7) for _ in range(6)]
    for t in arbors + [make_tn(n) for n in range(1, 13)]:
        assert laplace(t) == t.fold(double_cut), serialize_arbor(t)


def test_laplace_small():
    assert laplace(make_tn(1)) == V - V * E
    assert laplace(make_tn(2)) == V ** 2 * (1 - E) - V * E ** 2


def test_laplace_fan_closed_form():
    for n in range(1, 11):
        assert laplace(make_tn(n)) == laplace_tn_closed(n)


def test_laplace_nested_arbor_degree_bound():
    t = parse_arbor("{1,2}({3}({4}),{5})")
    lap = laplace(t)
    assert lap.degree("E") <= t.size
    assert min(laplace_laurent(lap, 0), default=0) >= 0


def test_volume_values():
    assert volume(make_tn(1)) == 1
    assert volume(make_tn(2)) == Fraction(3, 2)
    for n in range(1, 9):
        assert volume(make_tn(n)) == Fraction(n + 1, 2)


def test_volume_single_vertex_simplex():
    # lone vertex of size r: simplex with sum <= r, volume r^r / r!
    from math import factorial
    for r in (1, 2, 3):
        t = Arbor(0, {0: set(range(1, r + 1))}, {0: []})
        assert volume(t) == Fraction(r ** r, factorial(r))


# -- cross-invariant identities and order independence ------------------------------

def test_point_count_identities():
    for text in ("{1}({2},{3})", "{2,3}({1})", "{1,2}({3}({4}),{5})"):
        t = parse_arbor(text)
        n_points = oracle.build_poset(t).size
        assert zeta_poly(t).subs({"u": 2, "X": 1}).constant_value() == n_points
        assert k_poly(t).subs({"X": 1, "Y": 1}).constant_value() == n_points
        assert ehrhart(t).subs({"u": 1}).constant_value() == n_points


def test_child_order_independence():
    rng = random.Random(77)
    for _ in range(10):
        t = random_arbor(rng.randint(2, 6), rng)
        shuffled_children = {}
        for vid, kids in t.children.items():
            kids = list(kids)
            rng.shuffle(kids)
            shuffled_children[vid] = kids
        t2 = Arbor(t.root, {vid: set(ls) for vid, ls in t.vertices.items()},
                   shuffled_children)
        assert t2 == t
        assert zeta_poly(t2) == zeta_poly(t)
        assert k_poly(t2) == k_poly(t)
        assert m_triangle(t2) == m_triangle(t)
        assert laplace(t2) == laplace(t)
        assert ehrhart(t2) == ehrhart(t)


def test_recursions_against_oracles_spot():
    rng = random.Random(5)
    arbors = [random_arbor(rng.randint(1, 5), rng) for _ in range(6)]
    # The height cut falls at every level of a path, and only on the own
    # factor of a one-vertex arbor.
    arbors.append(parse_arbor("{1}({2}({3}({4}({5}({6})))))"))
    arbors.append(parse_arbor("{1,2,3,4,5}"))
    for t in arbors:
        P = oracle.build_poset(t)
        assert zeta_poly(t) == oracle.zeta_oracle(P), serialize_arbor(t)
        assert k_poly(t) == oracle.k_oracle(P), serialize_arbor(t)
        assert m_triangle(t) == oracle.m_triangle_oracle(P), serialize_arbor(t)


def test_compute_runs_each_fold_once(monkeypatch):
    # m is read off k and volume off laplace: wrap every binding of the two
    # folds, the module's and the by-name table's, and count the calls
    calls = {"k_poly": 0, "laplace": 0}
    for name in calls:
        original = getattr(invariants, name)

        def counted(t, name=name, original=original):
            calls[name] += 1
            return original(t)

        monkeypatch.setattr(invariants, name, counted)
        for key, fn in invariants._INVARIANTS.items():
            if fn is original:
                monkeypatch.setitem(invariants._INVARIANTS, key, counted)
    assert main(["compute", "--tn", "5", "--format", "json"]) == 0
    assert calls == {"k_poly": 1, "laplace": 1}
    t = make_tn(5)
    for names in (("m", "k"), ("volume", "laplace"), ("m",), ("volume",), ("k", "m", "k")):
        calls.update(k_poly=0, laplace=0)
        values = compute_invariants(t, names)
        assert list(values) == list(dict.fromkeys(names))
        assert sum(calls.values()) == 1, names
    values = compute_invariants(t, ("volume", "m", "laplace", "k"))
    assert values["m"] == m_triangle(t) and values["volume"] == volume(t)


def test_compute_invariants_bundle():
    values = compute_invariants(make_tn(2), ("ehrhart", "volume"))
    assert values["ehrhart"] == 1 + Fraction(5, 2) * u + Fraction(3, 2) * u ** 2
    assert values["volume"] == Fraction(3, 2)
    assert "zeta" not in values
    with pytest.raises(ValueError):
        compute_invariants(make_tn(1), ("nope",))
