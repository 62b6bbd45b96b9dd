"""Brute-force ground truth, independent of the recursion machinery.

Lattice points of dilated tree polytopes come from one iterative walk over
the defining inequalities, which both the counter and the enumerator read.
It fixes one coordinate per step for a whole block of prefixes at once, in
int64 numpy arrays, depth-first over blocks of at most _BLOCK rows, so the
counter's memory is bounded by the block size, not by the number of
points; nothing here recurses, so deep arbors need no stack.  The walk
starts from one root row per dilate, so dilate_counts counts every dilate
a check needs in one walk, paying the walk's fixed numpy cost per
coordinate once rather than once per dilate.  Points have one format: the
walk's rows, one int64 array in lex order.

The points of the u=1 dilate are down-closed in N^n, so the zeta transform
of their poset is n one-axis prefix sums, and its inverse undoes them
(Stanley, EC1 3.8); see Poset.  The multichain censuses and the M-triangle
are read off these sweeps; the sparse Moebius table is computed from first
principles.  Everything is exact: Python ints, and int64 arrays under
stated bounds.
"""

from __future__ import annotations

from collections import Counter
from math import prod

import numpy as np

from .algebra import MultiPoly, lagrange_interpolate, poly_from_counts
from .arbor import Arbor, constraints


# The most prefixes one step of the lattice walk creates; it bounds the
# walk's memory.
_BLOCK = 4096


def _children(rows, lo, taken):
    """Repeat row i of rows taken[i] times; the copies of row i take the
    values lo[i], lo[i] + 1, ... (lo may be a scalar)."""
    ends = taken.cumsum()
    vals = np.arange(ends[-1]) + (lo - ends + taken).repeat(taken)
    return rows.repeat(taken, axis=0), vals


def _prefix_blocks(t: Arbor, dilates):
    """Yield (prefixes, index, caps) for the feasible choices of the first
    n-1 coordinates of a point of the u-th dilate, for every u = dilates[i]
    at once, in lexicographic order of (i, prefix), in blocks of at most
    _BLOCK rows (when n = 1, the one block is the root block below).

    The points with prefix row r are prefix + (v,) for v = 0..caps[r], in
    the dilate dilates[index[r]].  A row holds each constraint's remaining
    budget, then the coordinates chosen so far, then the index i of its
    dilate; the walk starts from the root block, one row per dilate with
    budgets u * b_c, and a child copies its parent's index with the rest of
    the row.  A coordinate's cap is the least budget among the constraints
    it enters.  A step pops the top block of prefixes of one length and
    expands at most _BLOCK children from its lex-first rows, pushing back
    the rest under the children (the first row left may keep only the upper
    part of its range, from its start value lo), so the walk runs
    depth-first in lex order over at most n + 1 blocks at a time, whatever
    the number of dilates.  Budgets, caps and block sums are int64:
    max(dilates) * n must stay below 2^62 / _BLOCK (2^50), else ValueError;
    a negative dilate is a ValueError too.
    """
    if any(u < 0 for u in dilates):
        raise ValueError("dilation factor must be >= 0")
    n = t.size
    top = max(dilates, default=0)
    if top * n >= 2 ** 62 // _BLOCK:
        raise ValueError(f"u * n = {top * n} exceeds the int64 bound 2^62 / {_BLOCK} "
                         "of the lattice walk")
    if not dilates:
        return
    cons = constraints(t)
    m = len(cons)
    cols = [[] for _ in range(n)]  # the constraints that coordinate j enters
    for ci, c in enumerate(cons):
        for lab in c.support:
            cols[lab - 1].append(ci)
    roots = np.zeros((len(dilates), m + n), dtype=np.int64)
    roots[:, :m] = np.outer(dilates, [c.bound for c in cons])
    roots[:, -1] = np.arange(len(dilates))
    last = n - 1
    stack = [(0, roots, 0)]
    while stack:
        j, rows, lo = stack.pop()
        caps = rows[:, cols[j]].min(axis=1)
        if j == last:
            yield rows[:, m:-1], rows[:, -1], caps
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


def enumerate_points(t: Arbor, u: int):
    """All integer points of the u-th dilate: an (N, n) int64 array in lex order.

    ValueError if u < 0 or u * n reaches 2^62 / _BLOCK."""
    return np.concatenate([np.column_stack(_children(prefixes, 0, caps + 1))
                           for prefixes, _, caps in _prefix_blocks(t, (u,))])


def dilate_counts(t: Arbor, dilates) -> list:
    """[|u-th dilate ∩ Z^n| for u in dilates] as Python ints, from one walk
    over every dilate of the sequence, without materializing the points.

    A block's sum per dilate is int64 (below 2^62, by the walk's bound);
    the totals add them up as Python ints.  ValueError if a dilate is
    negative or max(dilates) * n reaches 2^62 / _BLOCK."""
    totals = [0] * len(dilates)
    for _, index, caps in _prefix_blocks(t, dilates):
        sums = np.zeros(len(totals), dtype=np.int64)
        np.add.at(sums, index, caps + 1)
        totals = [a + b for a, b in zip(totals, sums.tolist())]
    return totals


def count_points(t: Arbor, u: int) -> int:
    """|u-th dilate ∩ Z^n| as a Python int: dilate_counts of the one dilate.

    ValueError if u < 0 or u * n reaches 2^62 / _BLOCK."""
    return dilate_counts(t, (u,))[0]


class Poset:
    """A finite down-closed subset of N^n (with each point b, every a >= 0
    with a <= b) under coordinatewise order.  Lowering a coordinate keeps
    every inequality of a dilated arbor polytope, so its points qualify.

    points is the (|P|, n) int64 array of the points in strictly increasing
    lex order (a linear extension of the coordinatewise order), as
    enumerate_points gives them; heights are the row sums, and every height
    up to the top is present.  steps holds, for each coordinate j in turn
    and v = 1, 2, ..., index arrays (idx, nb): idx are the points whose
    coordinate j is v, and nb their neighbours minus e_j.  Running
    vec[idx] += vec[nb] over the steps in order is a prefix sum along each
    coordinate in turn, so it turns vec into vec Z, Z[a, b] = [a <= b]:
    vec[b] becomes the sum of vec over the box [0, b], which lies in the
    set.  Undoing the steps in reverse order gives vec Z^-1.  Memory is
    O(n |P|).

    A point's mixed-radix key is a numeral with the first coordinate most
    significant, so key order is lex order, and one searchsorted over the
    keys finds the neighbours.  ValueError if the keys are not strictly
    increasing (rows out of lex order or repeated); if a neighbour is
    missing, as the points are then not down-closed, the one assumption of
    the prefix sums; or if the keys pass int64, prod(max_j + 1) > 2^63.  An
    arbor's coordinates are at most its size n (the root's inequality), so
    every arbor with n <= 15 fits.
    """

    __slots__ = ("points", "heights", "steps", "size")

    def __init__(self, points):
        self.points = arr = np.asarray(points, dtype=np.int64)
        self.size = len(arr)
        self.heights = arr.sum(axis=1)
        radix = (arr.max(axis=0) + 1).tolist()
        if prod(radix) > 2 ** 63:
            raise ValueError(f"mixed-radix keys over the box {radix} pass 2^63 - 1")
        strides = np.array([prod(radix[j + 1:]) for j in range(len(radix))], dtype=np.int64)
        keys = arr @ strides
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("the points are not in strictly increasing lex order")
        # the nonzero entries (point, j) of arr, grouped by j, then by x_j
        pts, axes = np.nonzero(arr)
        group = axes * (int(arr.max()) + 1) + arr[pts, axes]
        by_group = np.argsort(group, kind="stable")
        pts, axes, group = pts[by_group], axes[by_group], group[by_group]
        below = keys[pts] - strides[axes]
        nb = np.searchsorted(keys, below)
        if (keys[nb] != below).any():
            raise ValueError("the points are not down-closed")
        bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(group)]
        self.steps = [(pts[a:b], nb[a:b]) for a, b in zip(bounds, bounds[1:])]


def build_poset(t: Arbor) -> Poset:
    """The point poset of the u=1 dilate, in lex order (see Poset)."""
    return Poset(enumerate_points(t, 1))


# -- multichain counting -------------------------------------------------------

def multichain_weight_counts(P: Poset, top: int) -> dict:
    """Weighted multichain census for every integer m = 2..top.

    Returns {m: {height h: number of multichains e_1 <= ... <= e_{m-1} whose
    top element has height h}}: the all-ones vector after m-2 zeta sweeps of
    Poset, summed over each height by one reduction over all m.  A count of
    census m is at most |P|^(m-1), a partial sum of a sweep at most the
    count it ends in, and a sum by height at most the census total, also
    |P|^(m-1); so the vectors are int64 while |P|^(top-1) < 2^63, and
    Python ints otherwise.
    """
    if top < 2:
        raise ValueError("multichains need m >= 2")
    vecs = np.ones((top - 1, P.size), dtype=np.int64 if P.size ** (top - 1) < 2 ** 63 else object)
    for vec, last in zip(vecs[1:], vecs):
        vec[:] = last
        for idx, nb in P.steps:
            vec[idx] += vec[nb]
    sums = np.zeros((int(P.heights.max()) + 1, top - 1), dtype=vecs.dtype)
    np.add.at(sums, P.heights, vecs.T)
    return {m: dict(enumerate(row)) for m, row in enumerate(sums.T.tolist(), start=2)}


def zeta_oracle(P: Poset) -> MultiPoly:
    """Height-weighted zeta polynomial recovered from raw multichain counts.

    With n the arbor's size, the top height of P, one multichain sweep
    counts weighted multichains for m = 2..n+3.  Each census is a polynomial
    in X, and one interpolation through them gives a polynomial of degree
    <= n in u; the spare sample is an interpolation consistency check.
    """
    n = int(P.heights.max())
    samples = [(m, poly_from_counts(counts, "X"))
               for m, counts in multichain_weight_counts(P, n + 3).items()]
    return lagrange_interpolate(samples, degree=n, var="u")


# -- Moebius function ----------------------------------------------------------

def mobius_oracle(P: Poset) -> dict:
    """Sparse Moebius table {(a, b): mu(a, b)}; absent comparable pairs are 0.

    For each bottom element a, the defining recursion
    mu(a, b) = -sum_{a <= e < b} mu(a, e) is replayed over the up-set of a
    in index order.  Comparability is read off the coordinates (a <= b iff
    every coordinate of a is at most b's), not off the prefix-sum steps.
    Zeros are never stored, which keeps the inner sums proportional to the
    nonzero support of each row.  m_triangle_oracle does not use it; it is
    a reference that the tests compare the prefix-sum inversion with, and
    perfbench/tracing.py times it and counts its entries by name, so it
    stays in the package until the tracer no longer names it.
    """
    above = [set(np.nonzero((P.points >= p).all(axis=1))[0].tolist()) for p in P.points]
    mu: dict = {}
    for a in range(P.size):
        row = {a: 1}
        for b in sorted(above[a])[1:]:  # index order is a linear extension
            s = sum(val for e, val in row.items() if b in above[e])
            if s:
                row[b] = -s
        mu.update(((a, b), val) for b, val in row.items())
    return mu


def m_triangle_oracle(P: Poset) -> MultiPoly:
    """Sum of mu(a, b) * X^ht(a) * Y^ht(b) over comparable pairs, as W^T H.

    H[b, h] = [ht(b) = h], and W = Z^-T H, so W[b, h] sums mu(a, b) over
    the a of height h: Z^T is the zeta sweep of Poset on columns, and W is H
    with the sweep undone, W[idx] -= W[nb] over the steps in reverse.

    Exact in int64: undoing one coordinate's steps makes each entry a
    difference of two earlier ones, so |W| <= 2^n; and W[b] only ever sums
    signed rows of H at distinct points below b, so |W| <= |P|.  An entry of
    W^T H sums |P| entries of W: at most |P|^2 < 2^63 for |P| < 3 * 10^9.
    """
    H = np.eye(int(P.heights.max()) + 1, dtype=np.int64)[P.heights]
    W = H.copy()
    for idx, nb in reversed(P.steps):
        W[idx] -= W[nb]
    table = (W.T @ H).tolist()
    return poly_from_counts({(ha, hb): val for ha, row in enumerate(table)
                             for hb, val in enumerate(row)}, "X", "Y")


# -- direct statistic sums -------------------------------------------------------

def k_oracle(P: Poset) -> MultiPoly:
    """Sum of X^(nonzero coordinates) * Y^(coordinate sum) over the point poset."""
    counts = Counter(zip(np.count_nonzero(P.points, axis=1).tolist(), P.heights.tolist()))
    return poly_from_counts(counts, "X", "Y")


def height_distribution_oracle(t: Arbor, m: int) -> MultiPoly:
    """Points of the m-th dilate weighted by X^height; ValueError if m < 0."""
    return poly_from_counts(Counter(enumerate_points(t, m).sum(axis=1).tolist()), "X")
