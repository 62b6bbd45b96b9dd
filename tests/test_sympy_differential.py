"""Differential tests of the exact kernel against sympy on generated inputs.

sympy is an independent implementation of the same exact algebra, so
agreement on hypothesis-generated polynomials checks the kernel without
trusting its author's hand-computed examples.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from arborium.algebra import VARIABLES, ExactDivisionError, MultiPoly, series_expand_rational
from arborium.invariants import m_from_k

SYMBOLS = sympy.symbols(VARIABLES)
SX, SY = SYMBOLS[VARIABLES.index("X")], SYMBOLS[VARIABLES.index("Y")]

coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


def to_sympy(p: MultiPoly):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(sym ** e for sym, e in zip(SYMBOLS, exps)))
                       for exps, c in p.terms.items()))


def from_sympy(expr) -> MultiPoly:
    poly = sympy.Poly(sympy.expand(expr), *SYMBOLS)
    return MultiPoly({exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()})


def polys(names=("u", "X", "Y"), max_exp=3, max_terms=5):
    slots = [VARIABLES.index(name) for name in names]

    def build(terms):
        out = {}
        for pows, c in terms.items():
            exps = [0] * len(VARIABLES)
            for slot, e in zip(slots, pows):
                exps[slot] = e
            out[tuple(exps)] = c
        return MultiPoly(out)

    pows = st.tuples(*(st.integers(0, max_exp) for _ in slots))
    return st.dictionaries(pows, coefficients, max_size=max_terms).map(build)


# K polynomials: each term X^j Y^h has height h at least its support j.
k_polys = st.dictionaries(
    st.integers(0, 6).flatmap(lambda j: st.tuples(st.just(j), st.integers(j, 8))),
    coefficients, max_size=6,
).map(lambda terms: sum((c * MultiPoly.variable("X") ** j * MultiPoly.variable("Y") ** h
                         for (j, h), c in terms.items()), MultiPoly.zero()))


@settings(max_examples=150, deadline=None)
@given(k_polys)
def test_m_from_k_matches_sympy_substitution(k):
    expected = sympy.expand(to_sympy(k).subs({SX: 1 - 1 / SX, SY: SX * SY}, simultaneous=True))
    assert m_from_k(k) == from_sympy(expected)


images = st.one_of(coefficients, st.integers(-4, 4), polys(max_exp=2, max_terms=3))


@settings(max_examples=150, deadline=None)
@given(polys(), st.dictionaries(st.sampled_from(("u", "X", "Y")), images, min_size=1))
def test_subs_matches_sympy(p, mapping):
    sym_mapping = {SYMBOLS[VARIABLES.index(name)]:
                   to_sympy(img) if isinstance(img, MultiPoly) else sympy.Rational(img)
                   for name, img in mapping.items()}
    expected = sympy.expand(to_sympy(p).subs(sym_mapping, simultaneous=True))
    assert p.subs(mapping) == from_sympy(expected)


# -- the ring operations, division and series expansion ---------------------

ALL = ("u", "X", "Y", "E", "V", "s", "v")
small_ints = st.integers(-3, 3)


@settings(max_examples=150, deadline=None)
@given(polys(ALL, max_exp=3, max_terms=6), polys(ALL, max_exp=3, max_terms=6),
       st.one_of(small_ints, coefficients))
def test_ring_operations_match_sympy(p, q, c):
    sp, sq = to_sympy(p), to_sympy(q)
    sc = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
    assert p * q == from_sympy(sp * sq)
    assert p + q == from_sympy(sp + sq)
    assert p - q == from_sympy(sp - sq)
    assert p * c == from_sympy(sp * sc) == c * p
    assert p + c == from_sympy(sp + sc) == c + p
    assert c - p == from_sympy(sc - sp)
    assert -p == from_sympy(-sp)


@settings(max_examples=60, deadline=None)
@given(polys(("u", "X", "Y", "E"), max_exp=2, max_terms=4), st.integers(0, 4))
def test_powers_match_sympy(p, e):
    assert p ** e == from_sympy(to_sympy(p) ** e)


@settings(max_examples=150, deadline=None)
@given(polys(("u", "X", "Y"), max_exp=3, max_terms=5), polys(("u", "X", "Y"), max_exp=2,
                                                             max_terms=4))
def test_exact_div_of_a_product_returns_the_factor(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a
    if b.degree() > 0:  # a*b + 1 leaves the remainder 1 whatever b is
        with pytest.raises(ExactDivisionError):
            (a * b + 1).exact_div(b)


@settings(max_examples=150, deadline=None)
@given(polys(("u", "X", "Y"), max_exp=3, max_terms=5), polys(("u", "X", "Y"), max_exp=2,
                                                             max_terms=3))
def test_exact_div_agrees_with_sympy_division(p, b):
    if b.is_zero():
        return
    quotient, remainder = sympy.div(to_sympy(p), to_sympy(b), *SYMBOLS)
    if remainder == 0:  # one divisor: remainder 0 exactly when b divides p
        assert p.exact_div(b) == from_sympy(quotient)
    else:
        with pytest.raises(ExactDivisionError):
            p.exact_div(b)


nonzero = coefficients.filter(bool)


@settings(max_examples=40, deadline=None)
@given(polys(("u", "X", "s"), max_exp=2, max_terms=4), nonzero,
       polys(("u", "X", "s"), max_exp=2, max_terms=3), st.integers(0, 4))
def test_series_expand_rational_matches_sympy_series(num, d0, tail, order):
    s = MultiPoly.variable("s")
    den = d0 + s * tail  # a constant s^0 coefficient keeps every coefficient polynomial
    ss = SYMBOLS[VARIABLES.index("s")]
    expected = sympy.expand(
        sympy.series(to_sympy(num) / to_sympy(den), ss, 0, order + 1).removeO())
    got = series_expand_rational(num, den, order)
    for m in range(order + 1):
        assert got[m] == from_sympy(expected.coeff(ss, m))
