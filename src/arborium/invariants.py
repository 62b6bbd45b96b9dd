"""Recursions and closed forms for the arbor invariants.

Every recursion is one bottom-up Arbor.fold with one rule per vertex: own
factor times children, cut at height n.  The own factor weighs the vertex's r
own coordinates, the children's results are multiplied in, and the vertex's
inequality (coordinates of the sub-tree sum to at most its size n) cuts the
result.  zeta_poly and k_poly keep polynomials by height and share the step
_cut_product; ehrhart_heights keeps counts by height and applies its own
factor 1/(1-x)^r as r prefix sums; laplace's own factor is V^r, cut by
truncate_laplace, which also adds boundary corrections.  m_triangle, ehrhart
and volume are read off k_poly, ehrhart_heights and laplace:

* zeta_poly       height-weighted zeta polynomial Z(u, X)
* k_poly          nonzero-coordinate/height census K(X, Y)
* m_triangle      Moebius triangle M(X, Y) = K(1 - 1/X, X*Y), by m_from_k
* ehrhart_heights lattice points of the u-th dilate, counted by height
* ehrhart         lattice-point counting polynomial, Newton-interpolated in u
* laplace         Laplace transform of the volume function, as a polynomial in E, V
* volume          constant Laurent coefficient of the Laplace transform

plus the closed forms for the fan family t_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb, factorial
from operator import mul

from .algebra import (
    ExactDivisionError,
    MultiPoly,
    binom_poly,
    int_binom,
    lagrange_interpolate,
    laplace_laurent,
    poly_counts,
    poly_from_counts,
    series_mul,
)
from .arbor import Arbor

_U = MultiPoly.variable("u")
_X = MultiPoly.variable("X")
_Y = MultiPoly.variable("Y")
_E = MultiPoly.variable("E")
_V = MultiPoly.variable("V")


# -- the height-graded fold step -----------------------------------------------

def _cut_product(own, kids) -> list:
    """Fold step shared by zeta_poly and k_poly.

    Every list is a series in the height, [c_0, ..., c_cap].  own[h] weighs
    the vertex's own coordinates summing to h; each child's list is
    multiplied in by series_mul, which cuts every height above
    cap = len(own) - 1, the vertex's inequality.
    """
    cap = len(own) - 1
    return reduce(lambda g, kid: series_mul(g, kid, cap), kids, own)


# -- zeta ---------------------------------------------------------------------

def zeta_poly(t: Arbor) -> MultiPoly:
    """Height-weighted zeta polynomial Z(u, X) of the point poset.

    Own factor times children, cut at height n: r own coordinates reach
    height h in binom_poly(r(u-1)+h-1, h) weighted ways; the root's list
    c_h gives Z = sum of c_h X^h.
    """
    return sum((c * _X ** h for h, c in enumerate(t.fold(_zeta_step))), MultiPoly.zero())


def _zeta_step(labels, n, kids) -> list:
    base = len(labels) * (_U - 1) - 1
    return _cut_product([binom_poly(base + h, h) for h in range(n + 1)], kids)


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


# -- K polynomial and M-triangle -------------------------------------------------

def k_poly(t: Arbor) -> MultiPoly:
    """Census K(X, Y) of lattice points by nonzero coordinates and height.

    Own factor times children, cut at height n: r own coordinates reach
    height h with l of them nonzero in C(r, l) C(h-1, h-l) ways, weighted
    X^l; the root's list c_h gives K = sum of c_h Y^h.
    """
    return sum((c * _Y ** h for h, c in enumerate(t.fold(_k_step))), MultiPoly.zero())


def _k_step(labels, n, kids) -> list:
    r = len(labels)
    own = [sum((int_binom(r, l) * int_binom(h - 1, h - l) * _X ** l
                for l in range(min(h, r) + 1)), MultiPoly.zero())
           for h in range(n + 1)]
    return _cut_product(own, kids)


def k_tn_closed(n: int) -> MultiPoly:
    """Closed form of K(X, Y) for the fan arbor t_n; the division by 1 - Y
    must be exact."""
    if n < 1:
        raise ValueError("n >= 1 required")
    bracket = _X * _Y ** 2 * ((1 + _X * _Y) ** (n - 1) - (_Y * (1 + _X)) ** (n - 1))
    return (1 + _X * _Y) ** n + bracket.exact_div(1 - _Y)


def m_triangle(t: Arbor) -> MultiPoly:
    """Moebius triangle M(X, Y) = K(1 - 1/X, X*Y), read off k_poly by m_from_k.

    Contract: every term X^j Y^h of K has h >= j (a point's height is at
    least its number of nonzero coordinates), so no negative power of X is
    left; a term that breaks it raises ExactDivisionError.  It stays apart
    from m_from_k because perfbench/tracing.py times and counts it by name.
    """
    return m_from_k(k_poly(t))


def m_from_k(k: MultiPoly) -> MultiPoly:
    """K(1 - 1/X, X*Y) term by term: c*X^j*Y^h becomes c*(X-1)^j*X^(h-j)*Y^h.

    Expanding (X-1)^j binomially turns the term into the sum over i of
    c*C(j, i)*(-1)^i*X^(h-i)*Y^h.  A term with h < j would need X^(h-j),
    a negative power, and raises ExactDivisionError; a variable other than
    X and Y raises ValueError.
    """
    terms: dict = {}
    for (j, h), c in poly_counts(k, "X", "Y").items():
        if h < j:
            raise ExactDivisionError(f"K term {c}*X^{j}*Y^{h} has height below its support")
        for i in range(j + 1):
            terms[h - i, h] = terms.get((h - i, h), 0) + (-1) ** i * comb(j, i) * c
    return poly_from_counts(terms, "X", "Y")


def m_tn_closed(n: int) -> MultiPoly:
    """Closed form of the M-triangle for t_n.

    With A = 1 + XY - Y and B = 2XY - Y, the result is A^n plus
    (X^2 Y^2 - X Y^2)(A^(n-1) - B^(n-1)) / (1 - XY); combining the two
    fraction terms first keeps everything polynomial.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    a = 1 + _X * _Y - _Y
    b = 2 * _X * _Y - _Y
    numer = (_X ** 2 * _Y ** 2 - _X * _Y ** 2) * (a ** (n - 1) - b ** (n - 1))
    return a ** n + numer.exact_div(1 - _X * _Y)


# -- Ehrhart ---------------------------------------------------------------------

def ehrhart_heights(t: Arbor, u: int) -> list:
    """Lattice points of the u-th dilate by height: entry s counts the points
    whose coordinates sum to s.

    Own factor times children, cut at height u*n: r own coordinates sum to
    s in C(s+r-1, r-1) ways, the coefficients of 1/(1-x)^r.  The children's
    product reaches height u*(n-r) at most, so it is built uncut from [1]
    with no padding zeros multiplied, then padded and summed up r times.
    """
    if u < 0:
        raise ValueError("dilation factor must be >= 0")

    def step(labels, n, kids):
        heights = reduce(lambda g, kid: series_mul(g, kid, len(g) + len(kid) - 2), kids, [1])
        heights += [0] * (u * n + 1 - len(heights))
        for _ in labels:
            heights = list(accumulate(heights))
        return heights

    return t.fold(step)


def ehrhart(t: Arbor) -> MultiPoly:
    """Lattice-point counting polynomial, Newton-interpolated from the totals
    of ehrhart_heights at u = 0..n+1.

    The degree is at most n, so the (n+1)-th forward difference of the n+2
    totals must vanish; that is the over-determination check.
    """
    n = t.size
    samples = [(u, sum(ehrhart_heights(t, u))) for u in range(n + 2)]
    return lagrange_interpolate(samples, degree=n, var="u")


def ehrhart_tn_closed(n: int) -> MultiPoly:
    """Closed form (u+1)^(n-1) * (u(n+1)/2 + 1) for the fan arbor t_n."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return (_U + 1) ** (n - 1) * (_U * Fraction(n + 1, 2) + 1)


# -- Laplace transform --------------------------------------------------------------

def truncate_laplace(p: MultiPoly, n: int) -> MultiPoly:
    """Restrict the density behind a Laplace-transform polynomial to [0, n].

    Acts linearly on monomials V^(k+1) E^l: the image is 0 when l >= n, and
    otherwise subtracts the boundary corrections
    sum_j (n-l)^(k-j)/(k-j)! * V^(j+1) E^n.  Every monomial must carry a
    positive V-degree, and no variable other than E and V may occur.
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


def laplace(t: Arbor) -> MultiPoly:
    """Laplace transform of the volume function, encoded in E = e^-v, V = 1/v.

    Own factor times children, cut at n: truncate_laplace(V^r * (product of
    the children's transforms), n), with n the sub-tree size and r the
    vertex's own labels; V^r needs no cut of its own, as every density lives
    on [0, inf).  A one-label leaf thus gives V - E*V.
    """
    return t.fold(_laplace_step)


def _laplace_step(labels, n, kids) -> MultiPoly:
    return truncate_laplace(reduce(mul, kids, _V ** len(labels)), n)


def laplace_tn_closed(n: int) -> MultiPoly:
    """Closed form V^n (1-E)^(n-1) - V E^n for the fan arbor t_n."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return _V ** n * (1 - _E) ** (n - 1) - _V * _E ** n


def volume(t: Arbor) -> Fraction:
    """Volume of the tree polytope: the constant Laurent coefficient of the
    Laplace transform.  perfbench/tracing.py times and counts it by name."""
    return laurent_volume(laplace_laurent(laplace(t), 0))


def laurent_volume(window: dict) -> Fraction:
    """The volume read off a Laplace transform's Laurent window up to v^0,
    laplace_laurent(laplace(t), 0): its v^0 coefficient.  volume and the
    oracle cross checks share this one reading.  ValueError if the window
    has a negative degree, as the transform is then not entire."""
    if min(window, default=0) < 0:
        raise ValueError("Laplace transform has negative Laurent degree")
    return window.get(0, Fraction(0))


# -- by name -----------------------------------------------------------------------

_INVARIANTS = {"zeta": zeta_poly, "k": k_poly, "m": m_triangle,
               "ehrhart": ehrhart, "laplace": laplace, "volume": volume}

INVARIANT_NAMES = tuple(_INVARIANTS)


def compute_invariants(t: Arbor, names=INVARIANT_NAMES) -> dict:
    """{name: value} of the named invariants of t."""
    values = {}
    for name in names:
        if name not in _INVARIANTS:
            raise ValueError(f"unknown invariant {name!r}")
        values[name] = _INVARIANTS[name](t)
    return values

