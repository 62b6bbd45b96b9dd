"""Reference forms that only the tests use: the generators, the integer
binomial, the list fold of K, the Laplace truncation in Fraction arithmetic,
the height census of a dilate by enumeration, closed forms of the fan
family t_n, and the identities that tie the invariants together."""

from collections import Counter
from fractions import Fraction
from functools import reduce
from math import factorial

from arborium.algebra import (
    VARIABLES, MultiPoly, binom_poly, poly_counts, poly_from_counts, series_mul)
from arborium import invariants
from arborium.oracle import enumerate_points


def gens() -> tuple:
    """The six generators (u, X, Y, E, V, s), in canonical order."""
    return tuple(MultiPoly.variable(name) for name in VARIABLES)


def int_binom(a: int, b: int) -> int:
    """Integer binomial via falling factorials.

    Conventions: 0 for b < 0, and 1 for b = 0 even when a is negative
    (so int_binom(-1, 0) = 1); negative a follows the falling factorial.
    """
    if b < 0:
        return 0
    if b == 0:
        return 1
    num = 1
    for i in range(b):
        num *= a - i
    q, r = divmod(num, factorial(b))
    assert r == 0
    return q


_U = MultiPoly.variable("u")
_X = MultiPoly.variable("X")
_Y = MultiPoly.variable("Y")


def k_poly_by_lists(t) -> MultiPoly:
    """K(X, Y) by the list fold that invariants.k_poly packs into ints.

    Every list holds one polynomial in X per height; a vertex's own list is
    the sum of C(r, l) C(h-1, h-l) X^l at height h, and each child's list is
    multiplied in by series_mul, cut at the sub-tree size n.
    """
    def step(labels, n, kids):
        r = len(labels)
        own = [sum((int_binom(r, l) * int_binom(h - 1, h - l) * _X ** l
                    for l in range(min(h, r) + 1)), MultiPoly.zero())
               for h in range(n + 1)]
        return reduce(lambda g, kid: series_mul(g, kid, n), kids, own)

    return sum((c * _Y ** h for h, c in enumerate(t.fold(step))), MultiPoly.zero())


def truncate_laplace_by_fractions(p: MultiPoly, n: int) -> MultiPoly:
    """invariants.truncate_laplace term by term in Fraction arithmetic.

    Each monomial c*V^(k+1)*E^l with l < n is kept and gets the corrections
    -c*(n-l)^(k-j)/(k-j)! * V^(j+1)*E^n for j = 0..k; one with l >= n is
    dropped.  ValueError for a V-degree below 1 or a variable other than E
    and V.
    """
    terms: dict = {}
    for (edeg, vdeg), coeff in poly_counts(p, "E", "V").items():
        if vdeg < 1:
            raise ValueError("every monomial must have V-degree >= 1")
        if edeg >= n:
            continue
        terms[edeg, vdeg] = coeff
        k = vdeg - 1
        for j in range(k + 1):
            terms[n, j + 1] = (terms.get((n, j + 1), 0)
                               - coeff * Fraction((n - edeg) ** (k - j), factorial(k - j)))
    return poly_from_counts(terms, "E", "V")


def height_distribution_oracle(t, m: int) -> MultiPoly:
    """Points of the m-th dilate weighted by X^height, by enumerating them;
    ValueError if m < 0."""
    return poly_from_counts(Counter(enumerate_points(t, m).sum(axis=1).tolist()), "X")


def zeta_tn_closed(n: int) -> MultiPoly:
    """Closed form of Z(u, 1) for the fan arbor t_n."""
    if n < 1:
        raise ValueError("n >= 1 required")
    acc = MultiPoly.zero()
    for k in range(n):
        acc = acc + (int_binom(n - 1, k)
                     * (_U - 1) ** k
                     * binom_poly(_U + (n - k - 1), n - k))
    return acc


def _difference_quotient(a: MultiPoly, b: MultiPoly, m: int) -> MultiPoly:
    """(a^m - b^m)/(a - b) as the sum of a^i b^(m-1-i) for i < m; 0 for m = 0."""
    return sum((a ** i * b ** (m - 1 - i) for i in range(m)), MultiPoly.zero())


def k_tn_closed(n: int) -> MultiPoly:
    """Closed form of K(X, Y) for the fan arbor t_n.

    With a = 1 + XY and b = Y(1 + X), so a - b = 1 - Y, K is a^n plus
    XY^2 (a^(n-1) - b^(n-1)) / (1 - Y), summed as a difference quotient.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    a = 1 + _X * _Y
    b = _Y * (1 + _X)
    return a ** n + _X * _Y ** 2 * _difference_quotient(a, b, n - 1)


def m_tn_closed(n: int) -> MultiPoly:
    """Closed form of the M-triangle for t_n.

    With a = 1 + XY - Y and b = 2XY - Y, so a - b = 1 - XY, M is a^n plus
    (X^2 Y^2 - X Y^2)(a^(n-1) - b^(n-1)) / (1 - XY), summed as a difference
    quotient.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    a = 1 + _X * _Y - _Y
    b = 2 * _X * _Y - _Y
    return a ** n + (_X ** 2 * _Y ** 2 - _X * _Y ** 2) * _difference_quotient(a, b, n - 1)


def ehrhart_tn_alternating(n: int) -> MultiPoly:
    """Inclusion-exclusion form: sum of (-1)^j binom(n-1, j) binom((n-j)(u+1), n)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    acc = MultiPoly.zero()
    for j in range(n):
        sign = -1 if j % 2 else 1
        acc = acc + sign * int_binom(n - 1, j) * binom_poly((n - j) * (_U + 1), n)
    return acc


def identity_failures(t) -> list:
    """The names of the identities that the invariants of t break, of four
    that hold on every arbor and need no poset (Stanley EC1 Prop. 3.12.1(c),
    applied to each interval [0, b] of the point set):

    Z(0, X) = M(0, X), Z(1, X) = 1, Z(2, X) = K(1, X), and K(1, Y) is the
    sum over h of ehrhart_heights(t, 1)[h] * Y^h.

    The invariants are read off the invariants module by attribute, so a
    mutant patched into it is the one checked.
    """
    zeta, k = invariants.zeta_poly(t), invariants.k_poly(t)
    k_at_1 = poly_counts(k.subs({"X": 1}), "Y")

    def zeta_at(m):
        return poly_counts(zeta.subs({"u": m}), "X")

    heights = invariants.ehrhart_heights(t, 1)
    held = {
        "Z(0, X) = M(0, X)":
            zeta_at(0) == poly_counts(invariants.m_triangle(t).subs({"X": 0}), "Y"),
        "Z(1, X) = 1": zeta_at(1) == {0: 1},
        "Z(2, X) = K(1, X)": zeta_at(2) == k_at_1,
        "K(1, Y) = ehrhart heights": k_at_1 == {h: c for h, c in enumerate(heights) if c},
    }
    return [name for name, ok in held.items() if not ok]
