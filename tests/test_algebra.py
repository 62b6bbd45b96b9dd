"""Exact-arithmetic kernel tests: ring laws, division, series, interpolation."""

import random
from fractions import Fraction

import pytest

from arborium.algebra import (
    DEGREE_LIMIT,
    ExactDivisionError,
    InterpolationError,
    MultiPoly,
    binom_poly,
    gens,
    int_binom,
    lagrange_interpolate,
    laplace_laurent,
    poly_from_terms,
    poly_to_terms,
    series_expand_rational,
    series_mul,
    series_pow_symbolic,
)
from arborium.invariants import m_from_k

u, X, Y, E, V, s, v = gens()


def random_poly(rng, variables=(u, X, Y), max_terms=4, max_exp=3):
    p = MultiPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = MultiPoly.const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for var in variables:
            term = term * var ** rng.randint(0, max_exp)
        p = p + term
    return p


def test_ring_laws_random():
    rng = random.Random(7)
    for _ in range(40):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_mul_then_exact_div_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        p = random_poly(rng)
        q = random_poly(rng)
        if q.is_zero():
            continue
        assert (p * q).exact_div(q) == p


def test_basic_products():
    assert (1 + X * Y) * (1 - X * Y) == 1 - X ** 2 * Y ** 2


def test_exact_div_k_closed_bracket():
    # n=2 instance of the closed K bracket: XY^2[(1+XY) - Y(1+X)] = XY^2 (1-Y)
    num = X * Y ** 2 * (1 + X * Y) - X * Y ** 2 * (Y * (1 + X))
    assert num.exact_div(1 - Y) == X * Y ** 2


def test_exact_div_failure():
    with pytest.raises(ExactDivisionError):
        (1 + X).exact_div(1 - Y)
    with pytest.raises(ZeroDivisionError):
        (1 + X).exact_div(MultiPoly.zero())


def test_m_from_k_reads_terms():
    # X -> 1 - 1/X together with Y -> X*Y, applied to 1 + X*Y
    assert m_from_k(1 + X * Y) == 1 + X * Y - Y


def test_m_from_k_rejects_height_below_support():
    with pytest.raises(ExactDivisionError):
        m_from_k(1 + X)  # 2 - 1/X is not a polynomial


def test_substitute_and_eval():
    p = 1 + 2 * u + u ** 2 * X
    assert p.subs({"u": 3}) == 7 + 9 * X
    assert p.subs({"u": 3, "X": Fraction(1, 2)}).constant_value() == Fraction(23, 2)
    with pytest.raises(ValueError):
        p.constant_value()


def test_int_binom_conventions():
    assert int_binom(-1, 0) == 1
    assert int_binom(5, 2) == 10
    assert int_binom(3, -1) == 0
    assert int_binom(2, 5) == 0
    assert int_binom(-1, 2) == 1  # falling factorial (-1)(-2)/2
    assert int_binom(-2, 3) == -4


def test_binom_poly_basics():
    assert binom_poly(u, 0) == 1
    assert binom_poly(u - 1, 2) == (u - 1) * (u - 2) * Fraction(1, 2)
    at_one = binom_poly(u + 1, 2).subs({"u": 1}).constant_value()
    assert at_one == 1  # binom(2, 2)


def test_binom_poly_matches_int_binom_at_integers():
    for k in range(6):
        p = binom_poly(2 * u - 3, k)
        for a in range(-4, 6):
            expected = int_binom(2 * a - 3, k)
            assert p.subs({"u": a}).constant_value() == expected


def test_series_geometric():
    ts = series_expand_rational(MultiPoly.const(1), 1 - s, 3)
    assert ts == [MultiPoly.const(1)] * 4


def test_series_requires_nonzero_constant_term():
    with pytest.raises(ValueError):
        series_expand_rational(MultiPoly.const(1), s, 3)


def test_series_counting_rhs_first_order():
    core = u * s + s - 1
    ts = series_expand_rational(core ** 2 - s * core - (s - 1), 2 * core ** 2, 1)
    assert ts[0] == 1
    assert ts[1] == u + 1


def test_series_laplace_rhs_two_orders():
    d1 = E * V * s - V * s + 1
    d2 = E * s - 1
    ts = series_expand_rational(V * (s * d2 + E * s * d1), d1 * d2, 2)
    assert ts[0].is_zero()
    assert ts[1] == V * (1 - E)
    assert ts[2] == V ** 2 * (1 - E) - V * E ** 2


def test_series_pow_plain_binomial():
    ts = series_pow_symbolic(1 + s, MultiPoly.const(1), 1)
    assert ts[0] == 1
    assert ts[1] == u


def test_series_pow_zeta_rhs_low_orders():
    ts = series_pow_symbolic(1 + (1 - u) * s, 1 - u * s, 2)
    assert ts[0] == 1
    assert ts[1] == u
    assert ts[2] == u * (3 * u - 1) * Fraction(1, 2)


def test_series_pow_rejects_bad_shape():
    with pytest.raises(ValueError):
        series_pow_symbolic(2 + s, 1 - s, 3)
    with pytest.raises(ValueError):
        series_pow_symbolic(1 + s ** 2, 1 - s, 3)


def test_series_pow_consistent_with_integer_exponent():
    # symbolic exponent specialized at u=m equals the plain rational expansion
    order = 6
    symbolic = series_pow_symbolic(1 + (1 - u) * s, 1 - u * s, order)
    for m in range(1, 5):
        alpha = Fraction(1 - m)
        beta = Fraction(m)
        plain = series_expand_rational((1 + alpha * s) ** m, (1 - beta * s) ** m, order)
        for j in range(order + 1):
            assert symbolic[j].subs({"u": m}) == plain[j]


def test_series_arithmetic_and_derivative():
    g = series_expand_rational(MultiPoly.const(1), 1 - s, 5)
    # (1/(1-s))' = 1/(1-s)^2
    sq = series_expand_rational(MultiPoly.const(1), (1 - s) ** 2, 4)
    assert [(m + 1) * g[m + 1] for m in range(5)] == sq
    assert all((a - b).is_zero() for a, b in zip(g, g))
    one_minus_s = [MultiPoly.const(1), MultiPoly.const(-1)]
    assert series_mul(g, one_minus_s, 4) == [MultiPoly.const(1)] + [MultiPoly.zero()] * 4


def test_laplace_laurent_unit_segment():
    # transform of the unit-interval density: (1 - e^-v)/v
    ls = laplace_laurent(V - V * E, 3)
    assert min(ls) == 0
    assert ls == {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6), 3: Fraction(-1, 24)}


def test_laplace_laurent_bare_pole():
    ls = laplace_laurent(V, 0)
    assert min(ls) == -1
    assert ls[-1] == 1
    assert ls.get(0, Fraction(0)) == 0


def test_laplace_laurent_fan_two():
    ls = laplace_laurent(V ** 2 * (1 - E) - V * E ** 2, 0)
    assert min(ls, default=0) >= 0
    assert ls.get(0, Fraction(0)) == Fraction(3, 2)


def test_laplace_laurent_rejects_other_variables():
    with pytest.raises(ValueError):
        laplace_laurent(V + X, 2)


def test_laurent_equality_and_text():
    # E*V + 1 -> exp(-v)/v + 1 = 1/v + 0 + v/2 - ...; the zero v^0 term is dropped
    a = laplace_laurent(E * V + 1, 1)
    assert a == {-1: 1, 1: Fraction(1, 2)}
    assert a[-1] == 1 and a[1] == Fraction(1, 2)
    assert laplace_laurent(MultiPoly.zero(), 2) == {}


def test_lagrange_examples():
    assert lagrange_interpolate([(0, 1), (1, 5), (2, 12)]) == \
        1 + Fraction(5, 2) * u + Fraction(3, 2) * u ** 2
    assert lagrange_interpolate([(0, Fraction(7, 3))]) == Fraction(7, 3)
    assert lagrange_interpolate([(0, 1), (1, 2)]) == 1 + u


def test_lagrange_overdetermined_consistency():
    samples = [(m, 1 + 2 * m + m * m) for m in range(6)]
    assert lagrange_interpolate(samples, degree=2) == 1 + 2 * u + u ** 2
    bad = samples[:-1] + [(5, 999)]
    with pytest.raises(InterpolationError):
        lagrange_interpolate(bad, degree=2)
    with pytest.raises(ValueError):
        lagrange_interpolate([(0, 1), (0, 2)])


def test_canonical_text():
    assert str(MultiPoly.zero()) == "0"
    assert str(1 + Fraction(5, 2) * u + Fraction(3, 2) * u ** 2) == "1 + 5/2*u + 3/2*u^2"
    assert str(V - E * V) == "V - E*V"
    assert str(-X + 1) == "1 - X"
    assert str(-X ** 2) == "-X^2"


def test_json_terms_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(rng, variables=(u, X, Y, E, V))
        assert poly_from_terms(poly_to_terms(p)) == p


def test_product_reaching_the_degree_limit_overflows():
    top = X ** (DEGREE_LIMIT - 1)
    assert top.degree() == DEGREE_LIMIT - 1
    with pytest.raises(OverflowError):
        top * X
    with pytest.raises(OverflowError):
        (1 + top) * (1 + u * v)
    with pytest.raises(OverflowError):
        MultiPoly.monomial((0, DEGREE_LIMIT - 3, 0, 0, 0, 1, 2))


def test_negative_exponent_is_rejected():
    with pytest.raises(ValueError):
        MultiPoly.monomial((0, -1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        MultiPoly({(1, 0, 0, 0, 0, 0, -2): 3})


def test_one_polynomial_built_two_ways_has_one_representation():
    a = (Fraction(1, 2) * X + Fraction(1, 3)) * (X - Fraction(2, 3))
    b = MultiPoly({(0, 2, 0, 0, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 0, 0, 0, 0): Fraction(-2, 9)})
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "-2/9 + 1/2*X^2"
    c = (X + 1) * (X - 1) * Fraction(3, 6)
    d = X ** 2 * Fraction(1, 2) - Fraction(1, 2)
    assert c == d and hash(c) == hash(d) and str(c) == str(d) == "-1/2 + 1/2*X^2"
    assert (c + Fraction(1, 2)) * 2 == X ** 2 and hash((c + Fraction(1, 2)) * 2) == hash(X ** 2)


def test_terms_is_a_read_only_view():
    p = Fraction(3, 4) * X ** 2 * Y - 5 * u + 1
    assert len(p.terms) == 3
    assert dict(p.terms) == {(0, 2, 1, 0, 0, 0, 0): Fraction(3, 4),
                             (1, 0, 0, 0, 0, 0, 0): Fraction(-5),
                             (0, 0, 0, 0, 0, 0, 0): Fraction(1)}
    assert p.terms[(1, 0, 0, 0, 0, 0, 0)] == -5
    assert (0, 1, 0, 0, 0, 0, 0) not in p.terms
    with pytest.raises(TypeError):
        p.terms[(0, 1, 0, 0, 0, 0, 0)] = 1
