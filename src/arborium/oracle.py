"""Brute-force ground truth, independent of the recursion machinery.

Lattice points of dilated tree polytopes come from one iterative walk over
the defining inequalities, which both the counter and the enumerator read.
It fixes one coordinate per step for a whole block of prefixes at once, in
int64 numpy arrays, depth-first over blocks of at most _BLOCK rows, so the
counter's memory is bounded by the block size, not by the number of
points; nothing here recurses, so deep arbors need no stack.  The point
poset lists its points by height, then lex, so each height is one block of
rows; its order is an AND of bit-packed per-coordinate up-sets.  Multichain
counts for every m come from one sweep of the zeta matrix, run one column
panel of _PANEL columns at a time through one reused float64 buffer, not a
float64 copy of the whole matrix.  The M-triangle oracle solves the zeta
matrix against the height bins one height level at a time, from the top
down, in _PANEL x _PANEL tile products; the sparse Moebius table is
computed from first principles.  Every census is turned into a polynomial
once, by poly_from_counts; the zeta oracle makes one interpolation through
the censuses at m = 2..n+3.
Everything is exact: Python integers, numpy bool and int64 arrays under
explicit bounds that rule out int64 overflow, and float64 only where every
partial sum is an integer below 2^53: residues modulo primes below
2^53 / |P| (recombined by the Chinese remainder theorem), and the Moebius
solve while max|V| * |P| < 2^53.  numpy is imported by the functions that
use it, so importing the package (and the CLI's verify and compute paths)
does not load it.
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

# How many columns of the zeta matrix the multichain sweep converts to
# float64 at a time, and the side of the Moebius solve's tiles; it bounds
# the memory of both.
_PANEL = 128


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

    elements are coordinate tuples, heights are coordinate sums, and leq is
    a boolean matrix with leq[a, b] iff a <= b.  The elements are in height
    order: heights are non-decreasing, and points of one height are in lex
    order.  The height order is a linear extension (a <= b implies
    ht(a) <= ht(b)), and two points of equal height are comparable only if
    they are equal.  So leq is upper unitriangular, each height is a
    contiguous block of rows, and the block of leq on the diagonal at each
    height is the identity.  multichain_weight_counts and m_triangle_oracle
    rely on this order.
    """

    __slots__ = ("elements", "heights", "leq", "size")

    def __init__(self, elements, heights, leq):
        self.elements = elements
        self.heights = heights
        self.leq = leq
        self.size = len(elements)


def build_poset(t: Arbor) -> Poset:
    """The point poset of the u=1 dilate, in height order (see Poset).

    The walk yields the points in lex order; a stable argsort of their
    coordinate sums puts them in height order and keeps lex order within
    each height."""
    import numpy as np

    points = enumerate_points(t, 1)
    n = len(points)
    arr = np.array(points, dtype=np.int64).reshape(n, t.size)
    order = np.argsort(arr.sum(axis=1), kind="stable")
    arr = arr[order]
    points = [points[i] for i in order.tolist()]
    heights = arr.sum(axis=1).tolist()
    # a <= b iff b lies in the up-set {col_j >= a_j} of every coordinate j.
    # Row v of a coordinate's table is that up-set as packed bits over the
    # points, so a packed row of leq is the AND of one table row per coordinate.
    packed = np.full((n, (n + 7) // 8), 0xFF, dtype=np.uint8)
    for col in arr.T:
        packed &= np.packbits(np.arange(col.max() + 1)[:, None] <= col, axis=1)[col]
    leq = np.unpackbits(packed, axis=1, count=n).view(bool)
    return Poset(points, heights, leq)


# -- multichain counting -------------------------------------------------------

# The largest primes below 2^40, largest first; six of them cover every
# census up to 2^239.
_PRIMES = (1099511627689, 1099511627609, 1099511627581,
           1099511627573, 1099511627563, 1099511627491)

# Largest |P| the oracles accept: p * MAX_POINTS <= 2^53 for every p above,
# so every float64 sum of |P| residues is an exact integer.  It is 8192.
MAX_POINTS = 2 ** 53 // _PRIMES[0]


def _moduli(size: int, top: int) -> tuple:
    """The fewest primes of _PRIMES whose product exceeds size^(top-1)."""
    if size > MAX_POINTS:
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
    top element has height h}}.  A sweep from the all-ones vector applies
    the zeta matrix Z once per step, so census m reads the vector after m-2
    products, binned by height through the 0/1 matrix H[b, h] = [ht(b) = h].

    The height order is a linear extension, so Z is upper triangular and
    columns [c0, c1) of a step read only columns < c1 of the step before.
    The sweep therefore runs one column panel of _PANEL columns at a time:
    the panel Z[:c1, c0:c1] is copied into one float64 buffer of |P| x _PANEL,
    allocated once per call, and every step is applied to it,
    vecs[i, :, c0:c1] = fmod(vecs[i-1, :, :c1] @ panel, p).  Beyond the
    bool matrix it holds the buffer and the vectors of all steps, about
    8 |P| (_PANEL + k (top - 1)) bytes for k primes (the buffer is 8 MiB at
    MAX_POINTS), and converts each entry of Z once per call.

    The sweep runs in float64 modulo k primes p at once.  Every entry of a
    vector is below p and Z and H are 0/1, so every partial sum of a panel
    product or of vec @ H, in whatever order BLAS adds, is an integer below
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
    mods = np.array(primes, dtype=np.float64)[:, None]
    vecs = np.ones((top - 1, len(primes), P.size))  # vecs[i] is census m = i + 2
    buf = np.empty((P.size, _PANEL))
    for c0 in range(0, P.size, _PANEL):
        c1 = min(c0 + _PANEL, P.size)
        panel = buf[:c1, :c1 - c0]
        np.copyto(panel, P.leq[:c1, c0:c1])
        for i in range(1, top - 1):
            vecs[i, :, c0:c1] = np.fmod(vecs[i - 1, :, :c1] @ panel, mods)
    binned = (vecs @ hmat).astype(np.int64).transpose(0, 2, 1).tolist()
    return {m: {h: sum(map(mul, residues, weights)) % modulus
                for h, residues in zip(column, rows)}
            for m, rows in enumerate(binned, 2)}


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
    level solve with.
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
    definition, and H[b, h] = [ht(b) = h].  Z V = H is solved in float64
    one height level at a time, from the top level down: with rows [lo, hi)
    the level, V[lo:hi] = H[lo:hi] - Z[lo:hi, hi:] @ V[hi:].  In height
    order Z is upper triangular and its diagonal block at each level is the
    identity, so no level needs a solve inside itself.  Each level's product
    runs in _PANEL x _PANEL tiles, V[r0:r1] -= Z[r0:r1, c0:c1] @ V[c0:c1],
    which stay below OpenBLAS's threading threshold and cast one small tile
    of Z to float64 at a time.

    If max|V| * |P| < 2^53 for the final V, every level is exact, by
    induction from the top: the top level is H itself, and the first level
    with an inexact entry would read only rows of the levels above it, whose
    exact entries are entries of the final V, so each partial sum of its
    tile products, and of H minus them, would be an integer of size at most
    |P| * max|V| < 2^53 and exact after all.  H^T V sums at most |P| entries of V, so it is exact too.
    Otherwise OverflowError.
    """
    import numpy as np

    n, hmax = P.size, max(P.heights)
    H = np.eye(hmax + 1)[P.heights]
    V = H.copy()
    ends = np.cumsum(np.bincount(P.heights)).tolist()
    for lo, hi in reversed(list(zip([0] + ends, ends))):
        for r0 in range(lo, hi, _PANEL):
            r1 = min(r0 + _PANEL, hi)
            for c0 in range(hi, n, _PANEL):
                c1 = min(c0 + _PANEL, n)
                V[r0:r1] -= P.leq[r0:r1, c0:c1] @ V[c0:c1]
    if int(np.abs(V).max()) * n >= 2 ** 53:
        raise OverflowError(f"Moebius solve exceeds the float64 bound on |P| = {n}")
    table = (H.T @ V).astype(np.int64).tolist()
    return poly_from_counts({(ha, hb): val for ha, row in enumerate(table)
                             for hb, val in enumerate(row)}, "X", "Y")


# -- direct statistic sums -------------------------------------------------------

def k_oracle(P: Poset) -> MultiPoly:
    """Sum of X^(nonzero coordinates) * Y^(coordinate sum) over the point poset."""
    counts = Counter((len(point) - point.count(0), height)
                     for point, height in zip(P.elements, P.heights))
    return poly_from_counts(counts, "X", "Y")


def height_distribution_oracle(t: Arbor, m: int) -> MultiPoly:
    """Points of the m-th dilate weighted by X^height; ValueError if m < 0."""
    return poly_from_counts(Counter(map(sum, enumerate_points(t, m))), "X")
