"""Closed forms of the fan family t_n that only the tests use."""

from arborium.algebra import MultiPoly, binom_poly, int_binom

_U = MultiPoly.variable("u")


def ehrhart_tn_alternating(n: int) -> MultiPoly:
    """Inclusion-exclusion form: sum of (-1)^j binom(n-1, j) binom((n-j)(u+1), n)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    acc = MultiPoly.zero()
    for j in range(n):
        sign = -1 if j % 2 else 1
        acc = acc + sign * int_binom(n - 1, j) * binom_poly((n - j) * (_U + 1), n)
    return acc
