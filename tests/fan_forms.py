"""Reference forms that only the tests use: the generators, the list fold
of K, and closed forms of the fan family t_n."""

from functools import reduce

from arborium.algebra import VARIABLES, MultiPoly, binom_poly, int_binom, series_mul


def gens() -> tuple:
    """The six generators (u, X, Y, E, V, s), in canonical order."""
    return tuple(MultiPoly.variable(name) for name in VARIABLES)


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


def k_tn_closed(n: int) -> MultiPoly:
    """Closed form of K(X, Y) for the fan arbor t_n; the division by 1 - Y
    must be exact."""
    if n < 1:
        raise ValueError("n >= 1 required")
    bracket = _X * _Y ** 2 * ((1 + _X * _Y) ** (n - 1) - (_Y * (1 + _X)) ** (n - 1))
    return (1 + _X * _Y) ** n + bracket.exact_div(1 - _Y)


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


def ehrhart_tn_alternating(n: int) -> MultiPoly:
    """Inclusion-exclusion form: sum of (-1)^j binom(n-1, j) binom((n-j)(u+1), n)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    acc = MultiPoly.zero()
    for j in range(n):
        sign = -1 if j % 2 else 1
        acc = acc + sign * int_binom(n - 1, j) * binom_poly((n - j) * (_U + 1), n)
    return acc
