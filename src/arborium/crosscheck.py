"""Recursion-versus-oracle cross checks.

Every recursion-computed invariant of an arbor is replayed against its
brute-force counterpart, together with the linking identities between
invariants.  For posets too large for the full zeta oracle (one
interpolation through the multichain censuses at m = 2..n+3) the zeta
comparison falls back to comparing Z(m, X) with the censuses at m = 2, 3, 4,
read off two sweeps of the multichain census.  The volume check reads
invariants.volume, the same function that compute prints.

The oracles hold O(n |P|) memory: the point poset (its |P| x n int64
points and their prefix-sum steps), the census vectors (one per m, at
most n + 2), or the M-triangle sweep's two |P| x (top height + 1) int64
matrices.  cross_check first calls check_point_limit, which raises
PointLimitError above MAX_POINTS: at once if 2^n > MAX_POINTS, as every 0/1
vector is a point, else once the Ehrhart recursion at u = 1 counts |P|.
The Ehrhart counts of every checked dilate come from one lattice walk,
oracle.dilate_counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ExactDivisionError, InterpolationError, MultiPoly, poly_from_counts
from .arbor import Arbor, ArborError, random_corpus, serialize_arbor
from . import invariants, oracle

# Largest |P| that cross_check accepts, a time budget.  t_13 has exactly
# this many points; t_14, with 69632, is refused.
MAX_POINTS = 2 ** 15

# Above this poset size, skip full zeta interpolation and the Ehrhart and
# volume checks and use spot multichain evaluations instead.  The skipped
# checks are no longer costly: on the figure arbor (|P| = 3464) counting
# takes 0.006 / 0.05-0.06 / 0.26-0.27 s at u = 2 / 3 / 4 alone and
# 0.31-0.32 s for u = 0..4 in one dilate_counts walk, and the full zeta
# oracle, build included, 0.008-0.009 s (best of 3 in each of four
# processes, shared 2-CPU VM, numpy 2.4).  The limit stays until
# perfbench/pinned.json re-pins the figure arbor's output.
_SPOT_LIMIT = 1500


@dataclass
class CheckOutcome:
    arbor: str
    name: str
    passed: bool
    detail: str = ""


def _outcome(text, name, lhs, rhs) -> CheckOutcome:
    ok = lhs == rhs
    detail = "" if ok else f"lhs = {lhs}; rhs = {rhs}"
    return CheckOutcome(text, name, ok, detail)


class PointLimitError(ArborError):
    """An arbor with more than MAX_POINTS points, refused before any oracle
    runs; oracle-check reports it as a usage error."""


def check_point_limit(t: Arbor) -> None:
    """Raise PointLimitError if the arbor has more than MAX_POINTS points; the
    size alone decides first (2^n points are 0/1 vectors), so a deep or wide
    arbor is refused without counting or enumerating a point."""
    if 2 ** t.size > MAX_POINTS:
        raise PointLimitError(f"arbor of size {t.size} has at least 2^{t.size} points; "
                              f"oracle checks stop at {MAX_POINTS}")
    points = sum(invariants.ehrhart_heights(t, 1))
    if points > MAX_POINTS:
        raise PointLimitError(f"arbor has {points} points; oracle checks stop at {MAX_POINTS}")


def cross_check(t: Arbor) -> list:
    """All recursion/oracle agreements and cross identities for one arbor.

    Raises PointLimitError from check_point_limit first.  An interpolation
    that breaks its degree bound, or a K term that m_from_k cannot map, is a
    failed check (a defect), and the checks that need its polynomial are
    left out."""
    check_point_limit(t)
    text = serialize_arbor(t)
    out = []
    P = oracle.build_poset(t)
    n_points = P.size

    z = invariants.zeta_poly(t)
    if n_points <= _SPOT_LIMIT:
        try:
            out.append(_outcome(text, "zeta vs multichain oracle", z, oracle.zeta_oracle(P)))
        except InterpolationError as exc:
            out.append(CheckOutcome(text, "zeta vs multichain oracle", False, str(exc)))
    else:
        for m, counts in oracle.multichain_weight_counts(P, 4).items():
            out.append(_outcome(text, f"zeta spot m={m}", z.subs({"u": m}),
                                poly_from_counts(counts, "X")))

    k = invariants.k_poly(t)
    out.append(_outcome(text, "k vs point census", k, oracle.k_oracle(P)))

    try:
        m_tri = invariants.m_from_k(k)
    except ExactDivisionError as exc:
        out.append(CheckOutcome(text, "m vs moebius oracle", False, str(exc)))
    else:
        out.append(_outcome(text, "m vs moebius oracle", m_tri, oracle.m_triangle_oracle(P)))
        out.append(_outcome(text, "m at X=1", m_tri.subs({"X": 1}), MultiPoly.const(1)))

    try:
        volume = invariants.volume(t)
        out.append(CheckOutcome(text, "laplace entire", True))
    except invariants.LaurentDegreeError as exc:
        volume = f"none: {exc}"
        out.append(CheckOutcome(text, "laplace entire", False, f"min degree {exc.degree}"))

    size_identities = [
        ("zeta at u=2, X=1", z.subs({"u": 2, "X": 1}).constant_value()),
        ("k at X=Y=1", k.subs({"X": 1, "Y": 1}).constant_value()),
    ]
    try:
        e = invariants.ehrhart(t) if n_points <= _SPOT_LIMIT else None
    except InterpolationError as exc:
        e = None
        out.append(CheckOutcome(text, "ehrhart degree bound", False, str(exc)))
    if e is not None:
        dilates = range(min(4, t.size + 1) + 1)
        for u, count in zip(dilates, oracle.dilate_counts(t, dilates)):
            out.append(_outcome(text, f"ehrhart count u={u}",
                                e.subs({"u": u}).constant_value(), count))
        out.append(_outcome(text, "volume vs ehrhart leading", volume,
                            e.coefficient("u", t.size).constant_value()))
        size_identities.append(("ehrhart at u=1", e.subs({"u": 1}).constant_value()))
    for name, value in size_identities:
        out.append(_outcome(text, f"{name} = |P|", value, n_points))
    return out


def corpus_check(seed: int, per_size: int = 4) -> list:
    """Cross checks over the deterministic random corpus of sizes 1..6."""
    out = []
    for t in random_corpus(seed, per_size=per_size):
        out.extend(cross_check(t))
    return out
