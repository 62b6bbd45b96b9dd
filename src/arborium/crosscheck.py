"""Recursion-versus-oracle cross checks.

Every recursion-computed invariant of an arbor is replayed against its
brute-force counterpart, together with the linking identities between
invariants.  For posets too large for full multichain interpolation the
zeta comparison falls back to spot evaluations at small integer arguments,
which keeps the check honest without the interpolation sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MultiPoly
from .arbor import Arbor, random_corpus, serialize_arbor
from . import invariants, oracle

# Above this poset size, skip full zeta interpolation and the Ehrhart and
# volume checks, whose count_points oracle at u <= 4 is costly; use spot
# multichain evaluations instead.
_SPOT_LIMIT = 1500

_Y = MultiPoly.variable("Y")


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


def cross_check(t: Arbor) -> list:
    """All recursion/oracle agreements and cross identities for one arbor."""
    text = serialize_arbor(t)
    out = []
    P = oracle.build_poset(t)
    n_points = P.size

    z = invariants.zeta_poly(t)
    if n_points <= _SPOT_LIMIT:
        out.append(_outcome(text, "zeta vs multichain oracle", z, oracle.zeta_oracle(t)))
    else:
        x = MultiPoly.variable("X")
        for m in (2, 3, 4):
            counts = oracle.multichain_weight_counts(P, m)
            direct = MultiPoly.zero()
            for h, c in counts.items():
                direct = direct + c * x ** h
            out.append(_outcome(text, f"zeta spot m={m}", z.subs({"u": m}), direct))

    k = invariants.k_poly(t)
    out.append(_outcome(text, "k vs point census", k, oracle.k_oracle(t)))

    m_tri = invariants.m_from_k(k)
    out.append(_outcome(text, "m vs moebius oracle", m_tri, oracle.m_triangle_oracle(P)))
    out.append(_outcome(text, "m at X=1", m_tri.subs({"X": 1}), MultiPoly.const(1)))

    lap_series = invariants.laplace_series(t, 0)
    out.append(CheckOutcome(text, "laplace entire", lap_series.min_degree >= 0,
                            "" if lap_series.min_degree >= 0
                            else f"min degree {lap_series.min_degree}"))

    size_identities = [
        ("zeta at u=2, X=1", z.subs({"u": 2, "X": 1}).constant_value()),
        ("k at X=Y=1", k.subs({"X": 1, "Y": 1}).constant_value()),
    ]
    if n_points <= _SPOT_LIMIT:
        e = invariants.ehrhart(t)
        for u in range(min(4, t.size + 1) + 1):
            out.append(_outcome(text, f"ehrhart count u={u}",
                                e.subs({"u": u}).constant_value(),
                                oracle.count_points(t, u)))
        out.append(_outcome(text, "volume vs ehrhart leading",
                            invariants.volume(t),
                            e.coeffs_in("u").get(t.size, MultiPoly.zero()).constant_value()))
        size_identities.append(("ehrhart at u=1", e.subs({"u": 1}).constant_value()))
    for name, value in size_identities:
        out.append(_outcome(text, f"{name} = |P|", value, n_points))
    return out


def corpus_check(seed: int, sizes=range(1, 7), per_size: int = 4) -> list:
    """Cross checks over the deterministic random corpus."""
    out = []
    for t in random_corpus(seed, sizes, per_size):
        out.extend(cross_check(t))
    return out
