"""Recursions for the arbor invariants, and two fan-family closed forms.

Every recursion is one bottom-up Arbor.fold with one rule per vertex: own
factor times children, cut at height n.  The own factor weighs the vertex's r
own coordinates, the children's results are multiplied in by one reduce, and
the vertex's inequality (coordinates of the sub-tree sum to at most its size
n) cuts the result.  _zeta_step keeps polynomials in u by height, cut by
series_mul; _k_step keeps int counts of X^l Y^h as one Kronecker-packed int
(see algebra.Kronecker), so a product is one int product and the cut one
mask; ehrhart_heights keeps counts by height and applies its own factor
1/(1-x)^r as r prefix sums; _laplace_step's own factor is V^r, cut by
truncate_laplace, which also adds boundary corrections on the integer
numerators that algebra.poly_numerators gives, with no Fraction per term.
m_triangle, ehrhart and volume are read off k_poly, ehrhart_heights and
laplace, and compute_invariants runs each fold once per request:

* zeta_poly       height-weighted zeta polynomial Z(u, X)
* k_poly          nonzero-coordinate/height census K(X, Y)
* m_triangle      Moebius triangle M(X, Y) = K(1 - 1/X, X*Y), by m_from_k
* ehrhart_heights lattice points of the u-th dilate, counted by height
* ehrhart         lattice-point counting polynomial, Newton-interpolated in u
* laplace         Laplace transform of the volume function, as a polynomial in E, V
* volume          v^0 Laurent coefficient of the Laplace transform; raises
                  LaurentDegreeError if the transform is not entire

plus the closed forms of Ehrhart and Laplace for the fan family t_n, which
verify reads; the tests keep the other fan closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate
from math import comb
from operator import mul

from .algebra import (
    ExactDivisionError,
    Kronecker,
    MultiPoly,
    binom_poly,
    lagrange_interpolate,
    laplace_laurent,
    poly_counts,
    poly_from_counts,
    poly_numerators,
    series_mul,
)
from .arbor import Arbor

_U = MultiPoly.variable("u")
_X = MultiPoly.variable("X")
_E = MultiPoly.variable("E")
_V = MultiPoly.variable("V")


# -- zeta ---------------------------------------------------------------------

def zeta_poly(t: Arbor) -> MultiPoly:
    """Height-weighted zeta polynomial Z(u, X) of the point poset.

    Own factor times children, cut at height n: r own coordinates reach
    height h in binom_poly(r(u-1)+h-1, h) weighted ways, and each child's
    list of polynomials by height is multiplied in by series_mul, cut at n;
    the root's list c_h gives Z = sum of c_h X^h.
    """
    return sum((c * _X ** h for h, c in enumerate(t.fold(_zeta_step))), MultiPoly.zero())


def _zeta_step(labels, n, kids) -> list:
    base = len(labels) * (_U - 1) - 1
    own = [binom_poly(base + h, h) for h in range(n + 1)]
    return reduce(lambda g, kid: series_mul(g, kid, n), kids, own)


# -- K polynomial and M-triangle -------------------------------------------------

def k_poly(t: Arbor) -> MultiPoly:
    """Census K(X, Y) of lattice points by nonzero coordinates and height.

    Own factor times children, cut at height n: r own coordinates reach
    height h with l of them nonzero in C(r, l) C(h-1, h-l) ways, weighted
    X^l Y^h.  Every list is a Kronecker-packed int whose field h(N+1) + l
    holds the count of X^l Y^h, with N = t.size; as l <= h <= N, the fields
    of heights up to n are exactly those below (n+1)(N+1).  So a child's
    product is one int product, the cut at n is one mask, and the root is
    unpacked once.

    Width: at a vertex of sub-tree size n, a kept field counts vectors of
    at most n non-negative int coordinates with sum h <= n, at most
    C(2n-1, n-1) < C(2N, N), the count bound given to Kronecker.  A term of
    height above n lands at field (n+1)(N+1) or beyond, since l >= 0, and
    its carries only move up, so the cut leaves the kept counts exact.
    """
    size = t.size
    packer = Kronecker(comb(2 * size, size))
    root = t.fold(partial(_k_step, packer, size))
    row = size + 1
    counts = packer.unpack(root, row * row)
    return poly_from_counts({(l, h): counts[h * row + l]
                             for h in range(row) for l in range(h + 1)}, "X", "Y")


def _k_step(packer, size, labels, n, kids) -> int:
    r = len(labels)
    row = size + 1
    own = [0] * ((n + 1) * row)
    own[0] = 1  # h = 0: the origin
    for h in range(1, n + 1):
        for l in range(1, min(h, r) + 1):
            own[h * row + l] = comb(r, l) * comb(h - 1, h - l)
    order = len(own) - 1
    return reduce(lambda g, kid: packer.mul(g, kid, order), kids, packer.pack(own))


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
    return lagrange_interpolate(samples, degree=n)


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

    The sums run on p's integer numerators over its denominator D: with K
    the top V-degree minus 1 and F = K!, every k - j is at most K, so each
    weight F/(k-j)! is an integer and every denominator of the image
    divides D*F.  A kept term c*V^(k+1) E^l gets the numerator c*F and its
    corrections -c*(n-l)^(k-j)*F/(k-j)!; the sum is canonicalised once.
    """
    nums, den = poly_numerators(p, "E", "V")
    if min((vdeg for _, vdeg in nums), default=1) < 1:
        raise ValueError("every monomial must have V-degree >= 1")
    top = max((vdeg for _, vdeg in nums), default=1)
    weights = [1] * top  # weights[i] = F/i!, for i = 0..K
    for i in range(top - 1, 0, -1):
        weights[i - 1] = weights[i] * i
    out: dict = {}
    get = out.get
    for (edeg, vdeg), c in nums.items():
        if edeg >= n:
            continue
        out[edeg, vdeg] = c * weights[0]
        k, dist, power = vdeg - 1, n - edeg, c
        for j in range(k, -1, -1):  # power = c*(n-l)^(k-j)
            key = n, j + 1
            out[key] = get(key, 0) - power * weights[k - j]
            power *= dist
    return poly_from_counts(out, "E", "V").exact_div(den * weights[0])


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


class LaurentDegreeError(ValueError):
    """The Laplace transform has a negative Laurent degree, so it is not
    entire and has no volume to read; degree is that Laurent degree."""

    def __init__(self, degree: int):
        super().__init__(f"Laplace transform has negative Laurent degree {degree}")
        self.degree = degree


def volume(t: Arbor) -> Fraction:
    """Volume of the tree polytope: the v^0 coefficient of the Laplace
    transform's Laurent window up to v^0; LaurentDegreeError if the window
    has a negative degree."""
    return _volume_of(laplace(t))


def _volume_of(transform: MultiPoly) -> Fraction:
    window = laplace_laurent(transform, 0)
    low = min(window, default=0)
    if low < 0:
        raise LaurentDegreeError(low)
    return window.get(0, Fraction(0))


# -- by name -----------------------------------------------------------------------

_INVARIANTS = {"zeta": zeta_poly, "k": k_poly, "m": m_triangle,
               "ehrhart": ehrhart, "laplace": laplace, "volume": volume}

INVARIANT_NAMES = tuple(_INVARIANTS)


def compute_invariants(t: Arbor, names=INVARIANT_NAMES) -> dict:
    """{name: value} of the named invariants of t, in the order named.

    m is read off k by m_from_k, and volume off laplace, so naming both of
    a pair runs its fold once.
    """
    for name in names:
        if name not in _INVARIANTS:
            raise ValueError(f"unknown invariant {name!r}")
    values = {}
    if "k" in names and "m" in names:
        values["k"] = k_poly(t)
        values["m"] = m_from_k(values["k"])
    if "laplace" in names and "volume" in names:
        values["laplace"] = laplace(t)
        values["volume"] = _volume_of(values["laplace"])
    for name in names:
        if name not in values:
            values[name] = _INVARIANTS[name](t)
    return {name: values[name] for name in names}
