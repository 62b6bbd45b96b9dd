"""Brute-force ground truth, independent of the recursion machinery.

Lattice points of dilated tree polytopes come from one iterative walk over
the defining inequalities, which both the counter and the enumerator read.
It fixes one coordinate per step for a whole block of prefixes at once, in
int64 numpy arrays, depth-first over blocks of at most _BLOCK rows, so the
counter's memory is bounded by the block size, not by the number of
points; nothing here recurses, so deep arbors need no stack.  The order of
the point poset is an AND of bit-packed per-coordinate up-sets, multichain
counts for every m come from one sweep of the zeta matrix, and the Moebius
tables are computed from first principles.  Every census is turned into a
polynomial once, by poly_from_counts; the zeta oracle makes one
interpolation through the censuses at m = 2..n+3.  Everything is exact:
Python integers, numpy bool and int64 arrays under explicit bounds that
rule out int64 overflow, and float64 only for residues modulo primes below
2^53 / |P|, whose sums of |P| terms are exact integers (recombined by the
Chinese remainder theorem).  numpy is imported by the functions that use
it, so importing the package (and the CLI's verify and compute paths) does
not load it.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from operator import mul

from .algebra import MultiPoly, lagrange_interpolate, poly_from_counts
from .arbor import Arbor, constraints


# The most prefixes one step of the lattice walk creates; it bounds the
# walk's memory.
_BLOCK = 4096


def _children(rows, lo, taken):
    """Repeat row i of rows taken[i] times; the copies of row i take the
    values lo[i], lo[i] + 1, ... (lo may be a scalar)."""
    import numpy as np

    ends = taken.cumsum()
    vals = np.arange(ends[-1]) + (lo - ends + taken).repeat(taken)
    return rows.repeat(taken, axis=0), vals


def _prefix_blocks(t: Arbor, u: int):
    """Yield (prefixes, caps) for the feasible choices of the first n-1
    coordinates of a point of the u-th dilate, in lexicographic order, in
    blocks of at most _BLOCK rows.

    The points with prefix row i are prefix + (v,) for v = 0..caps[i].  A
    row holds each constraint's remaining budget, then the coordinates
    chosen so far; a coordinate's cap is the least budget among the
    constraints it enters.  A step pops the top block of prefixes of one
    length and expands at most _BLOCK children from its lex-first rows,
    pushing back the rest under the children (the first row left may keep
    only the upper part of its range, from its start value lo), so the walk
    runs depth-first in lex order over at most n + 1 blocks at a time.
    Budgets, caps and block sums are int64: u * n must stay below
    2^62 / _BLOCK (2^50), else ValueError.
    """
    import numpy as np

    if u < 0:
        raise ValueError("dilation factor must be >= 0")
    n = t.size
    if u * n >= 2 ** 62 // _BLOCK:
        raise ValueError(f"u * n = {u * n} exceeds the int64 bound 2^62 / {_BLOCK} "
                         "of the lattice walk")
    cons = constraints(t)
    m = len(cons)
    cols = [[] for _ in range(n)]  # the constraints that coordinate j enters
    for ci, c in enumerate(cons):
        for lab in c.support:
            cols[lab - 1].append(ci)
    root = np.zeros((1, m + n), dtype=np.int64)
    root[0, :m] = [u * c.bound for c in cons]
    last = n - 1
    stack = [(0, root, 0)]
    while stack:
        j, rows, lo = stack.pop()
        caps = rows[:, cols[j]].min(axis=1)
        if j == last:
            yield rows[:, m:m + last], caps
            continue
        taken = caps + 1 - lo
        ends = taken.cumsum()
        if ends[-1] > _BLOCK:
            taken = np.minimum(ends, _BLOCK) - np.minimum(ends - taken, _BLOCK)
            k = int(np.searchsorted(ends, _BLOCK, side="right"))
            stack.append((j, rows[k:], (lo + taken)[k:]))
        kids, vals = _children(rows, lo, taken)
        kids[:, m + j] = vals
        kids[:, cols[j]] -= vals[:, None]
        stack.append((j + 1, kids, 0))


def enumerate_points(t: Arbor, u: int) -> list:
    """All integer points of the u-th dilate, in lexicographic order.

    ValueError if u < 0 or u * n reaches 2^62 / _BLOCK."""
    import numpy as np

    points = []
    for prefixes, caps in _prefix_blocks(t, u):
        rows, vals = _children(prefixes, 0, caps + 1)
        points.extend(map(tuple, np.column_stack((rows, vals)).tolist()))
    return points


def count_points(t: Arbor, u: int) -> int:
    """|u-th dilate ∩ Z^n| as a Python int, without materializing the points.

    ValueError if u < 0 or u * n reaches 2^62 / _BLOCK."""
    return sum(int(caps.sum()) + len(caps) for _, caps in _prefix_blocks(t, u))


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
    # a <= b iff b lies in the up-set {col_j >= a_j} of every coordinate j.
    # Row v of a coordinate's table is that up-set as packed bits over the
    # points, so a packed row of leq is the AND of one table row per coordinate.
    packed = np.full((n, (n + 7) // 8), 0xFF, dtype=np.uint8)
    for col in arr.T:
        packed &= np.packbits(np.arange(col.max() + 1)[:, None] <= col, axis=1)[col]
    leq = np.unpackbits(packed, axis=1, count=n).view(bool)
    return Poset(points, heights, leq)


# -- multichain counting -------------------------------------------------------

# The largest primes below 2^40, largest first.  Each satisfies
# p * 8192 <= 2^53, so for |P| <= 8192 every float64 sum of |P| residues is
# an exact integer; six of them cover every census up to 2^239.
_PRIMES = (1099511627689, 1099511627609, 1099511627581,
           1099511627573, 1099511627563, 1099511627491)


def _moduli(size: int, top: int) -> tuple:
    """The fewest primes of _PRIMES whose product exceeds size^(top-1)."""
    if size * _PRIMES[0] > 2 ** 53:
        raise ValueError(f"|P| = {size} is too large for exact float64 residues")
    bound, modulus = size ** (top - 1), 1
    for k, p in enumerate(_PRIMES, 1):
        modulus *= p
        if modulus > bound:
            return _PRIMES[:k]
    raise ValueError(f"multichain counts up to {size}^{top - 1} exceed the residue table")


def multichain_weight_counts(P: Poset, top: int) -> dict:
    """Weighted multichain census for every integer m = 2..top.

    Returns {m: {height h: number of multichains e_1 <= ... <= e_{m-1} whose
    top element has height h}}.  One sweep from the all-ones vector applies
    the zeta matrix Z once per step, so census m reads the vector after m-2
    products, binned by height through the 0/1 matrix H[b, h] = [ht(b) = h].

    The sweep runs in float64 modulo k primes p at once, vec = fmod(vec @ Z, p).
    Every entry of vec is below p and Z and H are 0/1, so every partial sum
    of vec @ Z and vec @ H, in whatever order BLAS adds, is an integer below
    |P| * p <= 2^53 and thus exact; the binned sums are congruent to the
    counts modulo p.  Every count of census m is at most |P|^(m-1), and the
    primes are the fewest whose product exceeds |P|^(top-1), so the Chinese
    remainder theorem recovers each count exactly as a Python int.  A poset
    too large for the prime table raises ValueError before any array is built.
    """
    import numpy as np

    if top < 2:
        raise ValueError("multichains need m >= 2")
    primes = _moduli(P.size, top)
    modulus = prod(primes)
    weights = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    column = {h: j for j, h in enumerate(dict.fromkeys(P.heights))}
    hmat = np.eye(len(column))[[column[h] for h in P.heights]]
    zmat = P.leq.astype(np.float64)
    mods = np.array(primes, dtype=np.float64)[:, None]
    vec = np.ones((len(primes), P.size))
    out = {}
    for m in range(2, top + 1):
        if m > 2:
            vec = np.fmod(vec @ zmat, mods)
        binned = (vec @ hmat).astype(np.int64).T.tolist()
        out[m] = {h: sum(map(mul, residues, weights)) % modulus
                  for h, residues in zip(column, binned)}
    return out


def zeta_oracle(P: Poset) -> MultiPoly:
    """Height-weighted zeta polynomial recovered from raw multichain counts.

    With n the arbor's size, the top height of P, one multichain sweep
    counts weighted multichains for m = 2..n+3.  Each census is a polynomial
    in X, and one interpolation through them gives a polynomial of degree
    <= n in u; the spare sample is an interpolation consistency check.
    """
    n = max(P.heights)
    samples = [(m, poly_from_counts(counts, "X"))
               for m, counts in multichain_weight_counts(P, n + 3).items()]
    return lagrange_interpolate(samples, degree=n, var="u")


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
    return poly_from_counts({(ha, hb): val for ha, row in enumerate(table)
                             for hb, val in enumerate(row)}, "X", "Y")


# -- direct statistic sums -------------------------------------------------------

def k_oracle(P: Poset) -> MultiPoly:
    """Sum of X^(nonzero coordinates) * Y^(coordinate sum) over the point poset."""
    counts = Counter((sum(1 for x in point if x), height)
                     for point, height in zip(P.elements, P.heights))
    return poly_from_counts(counts, "X", "Y")


def height_distribution_oracle(t: Arbor, m: int) -> MultiPoly:
    """Points of the m-th dilate weighted by X^height."""
    if m < 1:
        raise ValueError("dilation factor must be >= 1")
    return poly_from_counts(Counter(map(sum, enumerate_points(t, m))), "X")
