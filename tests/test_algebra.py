"""Exact-arithmetic kernel tests: ring laws, division, series, interpolation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arborium.algebra import (
    DEGREE_LIMIT,
    VARIABLES,
    ExactDivisionError,
    InterpolationError,
    Kronecker,
    MultiPoly,
    binom_poly,
    lagrange_interpolate,
    laplace_laurent,
    poly_counts,
    poly_from_counts,
    poly_numerators,
    poly_to_terms,
    series_expand_rational,
    series_mul,
    series_pow_symbolic,
)
from arborium.invariants import m_from_k
from fan_forms import gens, int_binom

u, X, Y, E, V, s = gens()


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


def test_basic_products():
    assert (1 + X * Y) * (1 - X * Y) == 1 - X ** 2 * Y ** 2


def test_exact_div_by_a_constant_is_the_product_by_its_inverse():
    rng = random.Random(11)
    divisors = [1, 2, -1, -6, 7, Fraction(3, 4), Fraction(-5, 2), Fraction(1, 9),
                MultiPoly.const(Fraction(-2, 3)), MultiPoly.const(4)]
    for _ in range(40):
        p = random_poly(rng)
        for d in divisors:
            inverse = 1 / (d.constant_value() if isinstance(d, MultiPoly) else Fraction(d))
            assert p.exact_div(d) == p * inverse, (p, d)
    assert (2 * X - 6).exact_div(-2) == 3 - X
    assert X.exact_div(Fraction(2, 3))._den == 2


def test_exact_div_refuses_a_divisor_that_is_not_a_nonzero_constant():
    for d in (1 - Y, X, s, 2 * u):
        with pytest.raises(ValueError, match=r"is not a constant"):
            (1 + X).exact_div(d)
    with pytest.raises(ValueError):
        (1 - Y).exact_div(1 - Y)  # also when the division would be exact
    for zero in (0, Fraction(0), MultiPoly.zero()):
        with pytest.raises(ZeroDivisionError):
            (1 + X).exact_div(zero)
    with pytest.raises(TypeError):
        (1 + X).exact_div(0.5)


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
    for image in (1 + X, 0.5):
        with pytest.raises(TypeError):
            p.subs({"u": image})


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
    with pytest.raises(ValueError, match="is not a constant"):  # 1 + X: divides at s^0 only
        series_expand_rational(1 + X, 1 + X - s, 3)


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
    ts = series_pow_symbolic(MultiPoly.const(1), MultiPoly.zero(), 1)
    assert ts[0] == 1
    assert ts[1] == u


def test_series_pow_zeta_rhs_low_orders():
    ts = series_pow_symbolic(1 - u, u, 2)
    assert ts[0] == 1
    assert ts[1] == u
    assert ts[2] == u * (3 * u - 1) * Fraction(1, 2)


def test_series_pow_consistent_with_integer_exponent():
    # symbolic exponent specialized at u=m equals the plain rational expansion
    order = 6
    symbolic = series_pow_symbolic(1 - u, u, order)
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


def test_lagrange_polynomial_values_interpolate_each_coefficient():
    rng = random.Random(11)
    for x0 in (-3, 0, 2):
        values = [random_poly(rng, variables=(X, Y)) for _ in range(5)]
        expected = MultiPoly.zero()
        for key in set().union(*(y.terms for y in values)):
            coeff = lagrange_interpolate([(x0 + i, y.terms.get(key, 0))
                                          for i, y in enumerate(values)])
            expected = expected + coeff * MultiPoly({key: 1})
        assert lagrange_interpolate([(x0 + i, y) for i, y in enumerate(values)]) == expected


def test_lagrange_polynomial_values_spare_sample_checked():
    values = [X + m * Y for m in range(4)]
    assert lagrange_interpolate(list(enumerate(values)), degree=1) == X + u * Y
    with pytest.raises(InterpolationError, match="u=3"):
        lagrange_interpolate(list(enumerate(values[:3] + [X])), degree=1)
    with pytest.raises(ValueError, match="free of u"):
        lagrange_interpolate([(0, X), (1, u)])


def test_lagrange_inconsistent_spare_sample():
    samples = [(m, m ** 3) for m in range(-2, 3)]
    with pytest.raises(InterpolationError, match="u=1"):
        lagrange_interpolate(samples, degree=2)
    assert lagrange_interpolate(samples, degree=3) == u ** 3


@pytest.mark.parametrize("samples,degree", [
    ([(0, 1), (0, 2)], None),                       # duplicate
    ([(0, 1), (2, 2)], None),                       # gapped
    ([(1, 1), (0, 2)], None),                       # descending
    ([(Fraction(1, 2), 1), (Fraction(3, 2), 2)], None),  # non-integer
    ([], None),                                     # empty
    ([(0, 1)], -1),                                 # negative degree
    ([(0, 1), (1, 2)], 2),                          # too few samples
])
def test_lagrange_rejects_bad_samples(samples, degree):
    with pytest.raises(ValueError) as info:
        lagrange_interpolate(samples, degree=degree)
    assert not isinstance(info.value, InterpolationError)


# -- references: the same two algorithms on MultiPoly and Fraction values ------

def _reference_lagrange(samples, degree=None):
    """Newton's series with the binomial basis built one MultiPoly factor at
    a time and the differences taken on the sample values themselves."""
    xs = [x for x, _ in samples]
    if degree is None:
        degree = len(xs) - 1
    diffs = [y if isinstance(y, MultiPoly) else Fraction(y) for _, y in samples]
    basis = MultiPoly.const(1)
    poly = MultiPoly.zero()
    for k in range(degree + 1):
        if k:
            basis = basis * ((u - (xs[0] + k - 1)) * Fraction(1, k))
        if diffs[0] != 0:
            poly = poly + basis * diffs[0]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    for i, d in enumerate(diffs):
        if d != 0:
            raise InterpolationError(f"sample at u={xs[degree + 1 + i]} "
                                     f"is inconsistent with degree bound {degree}")
    return poly


def _reference_laurent(p, order):
    """The Laurent window summed one Fraction term at a time."""
    terms = poly_counts(p, "V", "E")
    low = -max((a for a, _ in terms), default=0)
    out = {}
    for j in range(low, order + 1):
        acc = Fraction(0)
        for (a, b), c in terms.items():
            k = j + a
            if k >= 0:
                acc += c * Fraction((-b) ** k, math.factorial(k))
        if acc:
            out[j] = acc
    return out


def _interpolation_outcome(interpolate, samples, degree):
    try:
        p = interpolate(samples, degree=degree)
    except InterpolationError as exc:
        return "error", str(exc)
    return "value", p, str(p)


_rationals = st.fractions(-40, 40, max_denominator=12)
_xye_polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _rationals, max_size=4).map(
    lambda counts: poly_from_counts(counts, "X", "Y", "E"))


@st.composite
def _sample_values(draw, values):
    """values, each constant one passed as it is, as a Fraction or (when
    integral) as an int."""
    out = []
    for y in values:
        if not y.variables_used():
            c = y.constant_value()
            kinds = ["poly", "fraction"] + (["int"] if c.denominator == 1 else [])
            kind = draw(st.sampled_from(kinds))
            y = {"poly": y, "fraction": c, "int": c.numerator}[kind]
        out.append(y)
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lagrange_matches_the_multipoly_reference(data):
    x0 = data.draw(st.integers(-3, 3))
    value = st.one_of(st.integers(-10 ** 6, 10 ** 6).map(MultiPoly.const),
                      _rationals.map(MultiPoly.const), _xye_polys)
    mode = data.draw(st.sampled_from(["free", "bound", "planted"]))
    if mode == "free":  # no degree bound: any values
        degree = None
        values = data.draw(st.lists(value, min_size=1, max_size=7))
    elif mode == "bound":  # a degree bound and any values: most break it somewhere
        degree = data.draw(st.integers(0, 3))
        values = data.draw(st.lists(value, min_size=degree + 1, max_size=degree + 4))
    else:  # values of a polynomial of degree <= degree, then spare samples, one maybe bad
        degree = data.draw(st.integers(0, 4))
        coeffs = data.draw(st.lists(value, min_size=degree + 1, max_size=degree + 1))
        q = sum((c * u ** k for k, c in enumerate(coeffs)), MultiPoly.zero())
        count = degree + 1 + data.draw(st.integers(0, 3))
        values = [q.subs({"u": x0 + i}) for i in range(count)]
        if count > degree + 1 and data.draw(st.booleans()):
            bad = data.draw(st.integers(degree + 1, count - 1))
            values[bad] = values[bad] + data.draw(value.filter(lambda y: not y.is_zero()))
            with pytest.raises(InterpolationError, match=f"at u={x0 + bad} "):
                lagrange_interpolate(list(enumerate(values, x0)), degree=degree)
        else:
            assert lagrange_interpolate(list(enumerate(values, x0)), degree=degree) == q
    samples = list(enumerate(data.draw(_sample_values(values)), x0))
    assert (_interpolation_outcome(lagrange_interpolate, samples, degree)
            == _interpolation_outcome(_reference_lagrange, samples, degree))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), _rationals, max_size=6),
       st.integers(-2, 4))
@example({}, -2)
@example({}, 3)
@example({(3, 0): Fraction(5, 7)}, -2)  # a bare pole V^3
@example({(2, 0): 1, (1, 0): -3}, 0)
@example({(0, 0): 1, (1, 0): 1}, -1)  # a constant term whose window starts past the order
@example({(1, 0): 1, (1, 1): -1}, 4)  # V - E*V, the unit segment
def test_laplace_laurent_matches_the_fraction_reference(counts, order):
    p = poly_from_counts(counts, "V", "E")
    window = laplace_laurent(p, order)
    assert list(window.items()) == list(_reference_laurent(p, order).items())
    assert all(type(c) is Fraction for c in window.values())


def test_interpolation_and_laurent_make_no_polynomial_arithmetic(monkeypatch):
    """The integer-numerator paths make no MultiPoly temporaries and no
    Fraction per term: none in interpolation on int and polynomial samples,
    one per nonzero coefficient of a Laurent window."""
    int_samples = [(m, 3 * m ** 4 - m + 7) for m in range(-2, 5)]
    poly_samples = [(m, m * m * X - m * Y + 1) for m in range(1, 6)]
    lap = V ** 3 * (1 - E) ** 2 - V * E ** 3
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def refuse(*_):
        raise AssertionError("MultiPoly arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__pow__", "_add", "_scale", "exact_div", "subs"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    interpolated = [lagrange_interpolate(int_samples, degree=4),
                    lagrange_interpolate(poly_samples, degree=2)]
    assert made == []
    window = laplace_laurent(lap, 2)
    assert len(made) == len(window)
    monkeypatch.undo()
    assert interpolated == [3 * u ** 4 - u + 7, u * u * X - u * Y + 1]
    assert window == _reference_laurent(lap, 2)


def test_lagrange_names_the_first_inconsistent_sample_over_all_monomials():
    # the X and Y columns break degree 0 first at u=1 and u=2; a + b puts a's key first
    for a, b in ((X, Y), (Y, X)):
        samples = [(0, a + b), (1, 2 * a + b), (2, 2 * a + 2 * b)]
        with pytest.raises(InterpolationError, match="u=1 "):
            lagrange_interpolate(samples, degree=0)


def test_lagrange_degree_overflow():
    top = X ** (DEGREE_LIMIT - 2)
    with pytest.raises(OverflowError):
        lagrange_interpolate([(0, top), (1, 2 * top), (2, 4 * top)])
    assert lagrange_interpolate([(0, top), (1, 2 * top)]) == (1 + u) * top
    assert lagrange_interpolate([(0, top), (1, top), (2, top)]) == top


def test_poly_from_counts_int_path():
    two = poly_from_counts({0: 2}, "X")
    assert two._den == 1 and two._nums == {0: 2}
    assert two == poly_from_counts({0: Fraction(2)}, "X")
    assert poly_from_counts({(1, 2): 3, (0, 0): -1}, "X", "Y")._den == 1
    assert poly_from_counts({0: True}, "X") == 1  # an int subclass goes the Fraction way
    for zero in (0, Fraction(0)):
        p = poly_from_counts({0: zero, 1: 3}, "X")
        assert p._nums == (3 * X)._nums and p._den == 1
        assert poly_from_counts({2: zero}, "X") == MultiPoly.zero()
    with pytest.raises(TypeError):
        poly_from_counts({0: 1, 1: 2.0}, "X")
    with pytest.raises(TypeError):
        poly_from_counts({0: 2.0, 1: 1}, "X")


def test_poly_from_counts():
    assert poly_from_counts({}, "X") == MultiPoly.zero()
    assert poly_from_counts({0: 2, 3: 0, 1: -5}, "X") == 2 - 5 * X
    assert poly_from_counts({(1, 2): 3, (0, 0): 1}, "X", "Y") == 1 + 3 * X * Y ** 2
    assert poly_from_counts({(2, 1): 4}, "Y", "X") == 4 * X * Y ** 2
    with pytest.raises(ValueError):
        poly_from_counts({(1, 2, 3): 1}, "X", "Y")


@given(st.data())
def test_poly_counts_inverts_poly_from_counts(data):
    names = data.draw(st.lists(st.sampled_from(VARIABLES), min_size=1, unique=True))
    exps = st.integers(0, 4)
    key = exps if len(names) == 1 else st.tuples(*[exps] * len(names))
    count = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=6)
    counts = data.draw(st.dictionaries(key, count, max_size=6))
    p = poly_from_counts(counts, *names)
    assert poly_counts(p, *names) == {k: c for k, c in counts.items() if c}
    assert poly_from_counts(poly_counts(p, *names), *names) == p
    nums, den = poly_numerators(p, *names)
    assert den >= 1 and all(type(c) is int and c for c in nums.values())
    assert poly_from_counts(nums, *names).exact_div(den) == p


def test_poly_counts_keys_follow_the_named_order():
    assert poly_counts(2 - 5 * X, "X") == {0: 2, 1: -5}
    assert poly_counts(1 + 3 * X * Y ** 2, "Y", "X") == {(0, 0): 1, (2, 1): 3}
    assert poly_counts(Fraction(1, 2) * V, "E", "V") == {(0, 1): Fraction(1, 2)}
    assert poly_counts(MultiPoly.zero(), "u") == {}


def test_poly_counts_rejects_an_unnamed_variable():
    with pytest.raises(ValueError, match=r"\['V', 'Y'\]"):
        poly_counts(X + Y * V, "X", "E")


def test_poly_numerators_follow_the_named_order():
    p = Fraction(1, 6) * X * Y ** 2 - Fraction(2, 3) * Y
    assert poly_numerators(p, "X", "Y") == ({(1, 2): 1, (0, 1): -4}, 6)
    assert poly_numerators(p, "Y", "X") == ({(2, 1): 1, (1, 0): -4}, 6)
    assert poly_numerators(2 - 5 * X, "X") == ({0: 2, 1: -5}, 1)


def test_poly_numerators_of_zero():
    assert poly_numerators(MultiPoly.zero(), "E", "V") == ({}, 1)
    assert poly_numerators(MultiPoly.zero(), "u") == ({}, 1)


def test_poly_numerators_rejects_an_unnamed_variable():
    with pytest.raises(ValueError, match=r"\['V', 'Y'\]"):
        poly_numerators(X + Y * V, "X", "E")
    with pytest.raises(ValueError, match=r"\['X'\]"):
        poly_numerators(Fraction(1, 2) * X * V, "E", "V")


def test_poly_from_counts_takes_exact_rationals_only():
    half_x = poly_from_counts({(1, 0): Fraction(1, 2), (0, 3): Fraction(0)}, "X", "Y")
    assert half_x == Fraction(1, 2) * X
    with pytest.raises(TypeError):
        poly_from_counts({1: 0.5}, "X")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_poly_from_counts_packs_keys_as_the_general_pack(data):
    # Each key sets the named slots of a six-exponent tuple, and the terms
    # are those tuples; the first key in order with a negative exponent, or
    # else with a total degree of DEGREE_LIMIT or more, raises instead.
    names = data.draw(st.lists(st.sampled_from(VARIABLES), min_size=1, unique=True))
    exps = (st.integers(0, 3) | st.integers(-2, 2) | st.integers(0, DEGREE_LIMIT + 1)
            | st.sampled_from([DEGREE_LIMIT - 1, DEGREE_LIMIT, DEGREE_LIMIT // 2]))
    key = exps if len(names) == 1 else st.tuples(*[exps] * len(names))
    count = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=6)
    counts = data.draw(st.dictionaries(key, count, max_size=6))
    expected, error = {}, None
    for k, c in counts.items():
        full = [0] * len(VARIABLES)
        for name, e in zip(names, k if len(names) > 1 else (k,), strict=True):
            full[VARIABLES.index(name)] = e
        full = tuple(full)
        if min(full) < 0:
            error = ValueError(f"negative exponent in {full}")
            break
        if sum(full) >= DEGREE_LIMIT:
            error = OverflowError(f"total degree {sum(full)} reaches the limit {DEGREE_LIMIT}")
            break
        if c:
            expected[full] = Fraction(c)
    if error is None:
        assert dict(poly_from_counts(counts, *names).terms) == expected
    else:
        with pytest.raises(type(error)) as raised:
            poly_from_counts(counts, *names)
        assert str(raised.value) == str(error)


def test_poly_from_counts_exponent_errors():
    with pytest.raises(ValueError, match=r"negative exponent in \(0, 2, -1, 0, 0, 0\)"):
        poly_from_counts({(2, -1): 1}, "X", "Y")
    with pytest.raises(OverflowError, match=f"total degree {DEGREE_LIMIT} reaches"):
        poly_from_counts({(DEGREE_LIMIT - 1, 1): 1}, "E", "s")
    assert poly_from_counts({DEGREE_LIMIT - 1: 1}, "u") == u ** (DEGREE_LIMIT - 1)


def test_canonical_text():
    assert str(MultiPoly.zero()) == "0"
    assert str(1 + Fraction(5, 2) * u + Fraction(3, 2) * u ** 2) == "1 + 5/2*u + 3/2*u^2"
    assert str(V - E * V) == "V - E*V"
    assert str(-X + 1) == "1 - X"
    assert str(-X ** 2) == "-X^2"


def test_json_terms_match_the_terms_view_in_graded_order():
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(rng, variables=(u, X, Y, E, V))
        graded = sorted(p.terms, key=lambda exps: (sum(exps), exps))
        assert poly_to_terms(p) == [
            {"coeff": str(p.terms[exps]),
             "monomial": {name: e for name, e in zip(VARIABLES, exps) if e}}
            for exps in graded]


def test_product_reaching_the_degree_limit_overflows():
    top = X ** (DEGREE_LIMIT - 1)
    assert top.degree() == DEGREE_LIMIT - 1
    with pytest.raises(OverflowError):
        top * X
    with pytest.raises(OverflowError):
        (1 + top) * (1 + u * s)
    with pytest.raises(OverflowError):
        MultiPoly({(0, DEGREE_LIMIT - 3, 0, 0, 1, 2): 1})


def test_negative_exponent_is_rejected():
    with pytest.raises(ValueError):
        MultiPoly({(0, -1, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly({(1, 0, 0, 0, 0, -2): 3})


def test_one_polynomial_built_two_ways_has_one_representation():
    a = (Fraction(1, 2) * X + Fraction(1, 3)) * (X - Fraction(2, 3))
    b = MultiPoly({(0, 2, 0, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 0, 0, 0): Fraction(-2, 9)})
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "-2/9 + 1/2*X^2"
    c = (X + 1) * (X - 1) * Fraction(3, 6)
    d = X ** 2 * Fraction(1, 2) - Fraction(1, 2)
    assert c == d and hash(c) == hash(d) and str(c) == str(d) == "-1/2 + 1/2*X^2"
    assert (c + Fraction(1, 2)) * 2 == X ** 2 and hash((c + Fraction(1, 2)) * 2) == hash(X ** 2)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), _rationals, max_size=2),
       _rationals, st.sampled_from(["number", "constant term", "int constant term"]))
@example({}, Fraction(0), "int constant term")
@example({(0, 0): 3}, Fraction(3), "int constant term")
@example({(0, 0): 3}, Fraction(3), "number")
@example({(0, 0): Fraction(1, 2)}, Fraction(1), "constant term")
@example({(0, 0): 1, (1, 0): 1}, Fraction(1), "number")
def test_a_polynomial_equal_to_a_number_hashes_as_it(counts, number, pick):
    # b is an int or a Fraction; so MultiPoly.const(3) and 3 are one set member
    a = poly_from_counts(counts, "X", "Y")
    b = number if pick == "number" else poly_counts(a, "X", "Y").get((0, 0), Fraction(0))
    if pick == "int constant term" and b.denominator == 1:
        b = int(b)
    assert (a == b) == (b == a) == (a.variables_used() == set() and a.constant_value() == b)
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1 and b in {a} and a in {b}


def test_the_number_coercion_takes_exact_rationals_only():
    for value in (0.5, 1.0, "1", None):
        refused = f"expected an exact rational, got {type(value).__name__}"
        with pytest.raises(TypeError, match=refused):
            MultiPoly.const(value)
        with pytest.raises(TypeError, match="expected an exact rational"):
            X.exact_div(value)
        with pytest.raises(TypeError, match="expected an exact rational"):
            poly_from_counts({0: 1, 1: value}, "X")
        with pytest.raises(TypeError):
            X + value
        assert X != value
    for poly in (X, MultiPoly.const(2)):  # a polynomial is no constant or count
        with pytest.raises(TypeError, match="got MultiPoly"):
            MultiPoly.const(poly)
        with pytest.raises(TypeError, match="got MultiPoly"):
            poly_from_counts({0: poly}, "X")
    assert MultiPoly.const(True) == 1 and MultiPoly.const(Fraction(0)) == MultiPoly.zero()
    assert X.exact_div(MultiPoly.const(2)) == X * Fraction(1, 2)


def test_terms_is_a_read_only_view():
    p = Fraction(3, 4) * X ** 2 * Y - 5 * u + 1
    assert len(p.terms) == 3
    assert dict(p.terms) == {(0, 2, 1, 0, 0, 0): Fraction(3, 4),
                             (1, 0, 0, 0, 0, 0): Fraction(-5),
                             (0, 0, 0, 0, 0, 0): Fraction(1)}
    assert p.terms[(1, 0, 0, 0, 0, 0)] == -5
    assert (0, 1, 0, 0, 0, 0) not in p.terms
    with pytest.raises(TypeError):
        p.terms[(0, 1, 0, 0, 0, 0)] = 1


# -- Kronecker packing ---------------------------------------------------------

_COUNT = (st.integers(0, 3) | st.integers(0, 2 ** 70)
          | st.sampled_from([2 ** 8 - 1, 2 ** 8, 2 ** 16 - 1, 2 ** 64 - 1, 2 ** 64]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_COUNT, max_size=7), st.lists(_COUNT, max_size=7))
@example([1, 0, 255], [1, 0, 255])  # above a cut at 1, 510 and 65025 carry
@example([255], [1])
@example([], [3])
def test_kronecker_product_matches_series_mul(a, b):
    # At every cut the bound is the largest entry packed or kept, so the
    # largest kept entry needs the top bit of its width; the entries above
    # the cut may exceed the bound and carry, but only upward.
    for order in range(len(a) + len(b) + 1):
        expected = series_mul(a, b, order)
        packer = Kronecker(max(a + b + expected, default=0))
        product = packer.mul(packer.pack(a), packer.pack(b), order)
        assert packer.unpack(product, order + 1) == expected


def test_kronecker_width_and_contract():
    assert Kronecker(0).bits == Kronecker(255).bits == 8
    assert Kronecker(256).bits == 16 and Kronecker(2 ** 64 - 1).nbytes == 8
    packer = Kronecker(255)
    assert packer.unpack(packer.pack([255, 0, 7]), 4) == [255, 0, 7, 0]
    assert packer.pack([True]) == 1
    for bad in (-1, 256):
        with pytest.raises(OverflowError):
            packer.pack([1, bad])
    for bad in (Fraction(1), 1.0):
        with pytest.raises(TypeError):
            packer.pack([bad])
    with pytest.raises(OverflowError):  # a field past the length is nonzero
        packer.unpack(packer.pack([1, 2, 3]), 2)
    with pytest.raises(ValueError):
        Kronecker(-1)
    # A kept entry above the bound breaks the contract: 16 * 16 = 256 does
    # not fit a byte and carries into the next kept field.
    assert packer.unpack(packer.mul(packer.pack([16, 1]), packer.pack([16]), 1), 2) == [0, 17]
