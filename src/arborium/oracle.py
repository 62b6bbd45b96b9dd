"""Brute-force ground truth, independent of the recursion machinery.

Lattice points of dilated tree polytopes are enumerated directly from the
defining inequalities; the point poset, multichain counts, and Moebius
tables are computed from first principles.  Everything is exact: Python
integers, plus numpy in bool/int64 roles only, with explicit bounds that
rule out int64 overflow before numpy is trusted.  numpy is imported by the
functions that use it, so importing the package (and the CLI's verify and
compute paths) does not load it.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MultiPoly, lagrange_interpolate
from .arbor import Arbor, constraints


def _budget_tables(t: Arbor, u: int):
    cons = constraints(t)
    budgets = [u * c.bound for c in cons]
    per_label = [
        [ci for ci, c in enumerate(cons) if lab in c.support]
        for lab in range(1, t.size + 1)
    ]
    return budgets, per_label


def enumerate_points(t: Arbor, u: int) -> list:
    """All integer points of the u-th dilate, in lexicographic order."""
    if u < 0:
        raise ValueError("dilation factor must be >= 0")
    n = t.size
    budgets, per_label = _budget_tables(t, u)
    point = [0] * n
    out = []

    def rec(i):
        if i == n:
            out.append(tuple(point))
            return
        cap = min(budgets[ci] for ci in per_label[i])
        for val in range(cap + 1):
            point[i] = val
            for ci in per_label[i]:
                budgets[ci] -= val
            rec(i + 1)
            for ci in per_label[i]:
                budgets[ci] += val
        point[i] = 0

    rec(0)
    return out


def count_points(t: Arbor, u: int) -> int:
    """|u-th dilate ∩ Z^n| without materializing the points."""
    if u < 0:
        raise ValueError("dilation factor must be >= 0")
    n = t.size
    budgets, per_label = _budget_tables(t, u)

    def rec(i):
        cap = min(budgets[ci] for ci in per_label[i])
        if i == n - 1:
            return cap + 1
        total = 0
        for val in range(cap + 1):
            for ci in per_label[i]:
                budgets[ci] -= val
            total += rec(i + 1)
            for ci in per_label[i]:
                budgets[ci] += val
        return total

    return rec(0)


class Poset:
    """Lattice points of the u=1 dilate under coordinatewise order.

    elements are coordinate tuples (lex order), heights are coordinate
    sums, and leq is a boolean matrix with leq[a, b] iff a <= b.
    """

    __slots__ = ("elements", "heights", "leq", "size")

    def __init__(self, elements, heights, leq):
        self.elements = elements
        self.heights = heights
        self.leq = leq
        self.size = len(elements)


def build_poset(t: Arbor) -> Poset:
    import numpy as np

    points = enumerate_points(t, 1)
    n = len(points)
    arr = np.array(points, dtype=np.int64).reshape(n, t.size)
    heights = [int(h) for h in arr.sum(axis=1)]
    leq = np.empty((n, n), dtype=bool)
    chunk = max(1, (1 << 22) // max(1, n * t.size))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        leq[start:stop] = (arr[start:stop, None, :] <= arr[None, :, :]).all(axis=2)
    return Poset(points, heights, leq)


# -- multichain counting -------------------------------------------------------

def multichain_weight_counts(P: Poset, m: int) -> dict:
    """Weighted multichain census for one integer m >= 2.

    Returns {height h: number of multichains e_1 <= ... <= e_{m-1} whose top
    element has height h}.  Counting applies the zeta matrix m-2 times to the
    all-ones vector.  Every count is at most |P|^(m-1), so int64 numpy
    products are exact whenever that bound is below 2^62; otherwise the
    same products run on an object array of Python integers.
    """
    import numpy as np

    if m < 2:
        raise ValueError("multichains need m >= 2")
    dtype = np.int64 if P.size ** (m - 1) < 2 ** 62 else object
    vec = np.ones(P.size, dtype=dtype)
    zmat = P.leq.astype(np.int64).astype(dtype, copy=False)
    for _ in range(m - 2):
        vec = vec @ zmat
    totals = vec.tolist()
    counts: dict = {}
    for b, c in enumerate(totals):
        counts[P.heights[b]] = counts.get(P.heights[b], 0) + c
    return counts


def zeta_oracle(P: Poset) -> MultiPoly:
    """Height-weighted zeta polynomial recovered from raw multichain counts.

    With n the arbor's size, the top height of P, counts weighted
    multichains for m = 2..n+3 and interpolates each X-coefficient as a
    degree-<=n polynomial in u; the spare sample is an interpolation
    consistency check.
    """
    n = max(P.heights)
    X = MultiPoly.variable("X")
    per_m = {m: multichain_weight_counts(P, m) for m in range(2, n + 4)}
    result = MultiPoly.zero()
    for j in range(n + 1):
        samples = [(m, per_m[m].get(j, 0)) for m in range(2, n + 4)]
        result = result + lagrange_interpolate(samples, degree=n, var="u") * X ** j
    return result


# -- Moebius function ----------------------------------------------------------

def mobius_oracle(P: Poset) -> dict:
    """Sparse Moebius table {(a, b): mu(a, b)}; absent comparable pairs are 0.

    For each bottom element a, the defining recursion
    mu(a, b) = -sum_{a <= e < b} mu(a, e) is replayed over the up-set of a
    in height order.  Zeros are never stored, which keeps the inner sums
    proportional to the nonzero support of each row.  m_triangle_oracle
    does not use it; it is the reference that the tests compare the
    triangular solve with.
    """
    import numpy as np

    heights = P.heights
    above = [set(np.nonzero(P.leq[a])[0].tolist()) for a in range(P.size)]
    mu: dict = {}
    for a in range(P.size):
        ups = sorted(above[a], key=lambda i: heights[i])
        row = {a: 1}
        for b in ups[1:]:
            s = 0
            for e, val in row.items():
                if e != b and b in above[e]:
                    s += val
            if s:
                row[b] = -s
        for b, val in row.items():
            mu[(a, b)] = val
    return mu


def m_triangle_oracle(P: Poset) -> MultiPoly:
    """Sum of mu(a, b) * X^ht(a) * Y^ht(b) over comparable pairs, as H^T Z^-1 H.

    Z is the 0/1 zeta matrix P.leq, whose inverse is the Moebius matrix by
    definition; lex order is a linear extension, so Z is upper unitriangular.
    H[b, h] = [ht(b) = h].  Back-substitution solves Z V = H in int64,
    V[a] = H[a] - Z[a, a+1:] @ V[a+1:].  If max|V| * |P| < 2^62 then Z V
    fits int64 and agrees with H modulo 2^64, so it equals H and V is
    exact (and so is H^T V); otherwise OverflowError is raised.
    """
    import numpy as np

    n, hmax = P.size, max(P.heights)
    H = np.eye(hmax + 1, dtype=np.int64)[P.heights]
    V = H.copy()
    for a in range(n - 2, -1, -1):
        V[a] -= P.leq[a, a + 1:] @ V[a + 1:]
    if max(int(V.max()), -int(V.min())) * n >= 2 ** 62:
        raise OverflowError(f"Moebius solve exceeds the int64 bound on |P| = {n}")
    table = (H.T @ V).tolist()  # each entry sums at most |P| entries of V
    X = MultiPoly.variable("X")
    Y = MultiPoly.variable("Y")
    result = MultiPoly.zero()
    for ha, row in enumerate(table):
        for hb, val in enumerate(row):
            if val:
                result = result + Fraction(val) * X ** ha * Y ** hb
    return result


# -- direct statistic sums -------------------------------------------------------

def k_oracle(P: Poset) -> MultiPoly:
    """Sum of X^(nonzero coordinates) * Y^(coordinate sum) over the point poset."""
    X = MultiPoly.variable("X")
    Y = MultiPoly.variable("Y")
    counts: dict = {}
    for point, height in zip(P.elements, P.heights):
        key = (sum(1 for x in point if x), height)
        counts[key] = counts.get(key, 0) + 1
    result = MultiPoly.zero()
    for (nz, ht), c in counts.items():
        result = result + Fraction(c) * X ** nz * Y ** ht
    return result


def height_distribution_oracle(t: Arbor, m: int) -> MultiPoly:
    """Points of the m-th dilate weighted by X^height."""
    if m < 1:
        raise ValueError("dilation factor must be >= 1")
    X = MultiPoly.variable("X")
    counts: dict = {}
    for point in enumerate_points(t, m):
        ht = sum(point)
        counts[ht] = counts.get(ht, 0) + 1
    result = MultiPoly.zero()
    for ht, c in counts.items():
        result = result + Fraction(c) * X ** ht
    return result
