"""Planted defects: a mutant of a recursion must fail an oracle check.

Each row monkeypatches one mutant into ``invariants`` and runs
``cross_check`` over the default corpus (seed 20260809, sizes 1-6, four
arbors per size) plus the figure arbor.  The brute-force check of the
mutated invariant must FAIL, and no exception may escape: a defect in a
recursion is a failed check, never a crash.  A mutant that passed it would
mean that oracle is not independent of the recursion it checks.

Three of the mutants must also break a cross-invariant identity on every
fan t_14..t_24, past crosscheck.MAX_POINTS, where no oracle reaches.
"""

from functools import reduce
from math import comb

import pytest

from arborium import invariants
from arborium.algebra import (
    Kronecker, binom_poly, poly_counts, poly_from_counts, poly_numerators, series_mul)
from arborium.arbor import make_tn, parse_arbor
from arborium.crosscheck import PointLimitError, check_point_limit, corpus_check, cross_check
from fan_forms import gens, identity_failures, int_binom

u, X, Y, E, V, s = gens()

FIGURE = "{1,2}({3}({6,7},{8}),{4,5})"


def zeta_step_base_off_by_one(labels, n, kids):
    # binom_poly(r(u-1)+h, h) in place of binom_poly(r(u-1)+h-1, h)
    base = len(labels) * (u - 1)
    own = [binom_poly(base + h, h) for h in range(n + 1)]
    return reduce(lambda g, kid: series_mul(g, kid, n), kids, own)


def k_step_without_the_support_binomial(packer, size, labels, n, kids):
    # drops C(r, l), the choice of which l own coordinates are nonzero
    r = len(labels)
    row = size + 1
    own = [0] * ((n + 1) * row)
    own[0] = 1
    for h in range(1, n + 1):
        for l in range(1, min(h, r) + 1):
            own[h * row + l] = comb(h - 1, h - l)
    order = len(own) - 1
    return reduce(lambda g, kid: packer.mul(g, kid, order), kids, packer.pack(own))


def kronecker_one_byte_fields(bound):
    # one-byte fields whatever the count bound: a kept count of 256 or more
    # carries into the next kept field (the figure arbor's K has a 388)
    return Kronecker(255)


def m_from_k_sign_flip(k):
    # K(1 + 1/X, X*Y): (X+1)^j in place of (X-1)^j
    terms: dict = {}
    for (j, h), c in poly_counts(k, "X", "Y").items():
        for i in range(j + 1):
            terms[h - i, h] = terms.get((h - i, h), 0) + int_binom(j, i) * c
    return poly_from_counts(terms, "X", "Y")


def k_poly_with_an_x2y_term(t, k_poly=invariants.k_poly):
    # X^2 Y: two nonzero coordinates at height 1, which m_from_k cannot map
    return k_poly(t) + X ** 2 * Y


def truncate_laplace_weight_one_factorial_down(p, n):
    # weight F/(k-j+1)! in place of F/(k-j)! on the correction to V^(j+1) E^n,
    # with F = (K+1)! so that every weight stays an integer
    nums, den = poly_numerators(p, "E", "V")
    top = max((vdeg for _, vdeg in nums), default=1)
    weights = [1] * (top + 1)  # weights[i] = F/i!, for i = 0..K+1
    for i in range(top, 0, -1):
        weights[i - 1] = weights[i] * i
    out: dict = {}
    for (edeg, vdeg), c in nums.items():
        if edeg >= n:
            continue
        out[edeg, vdeg] = c * weights[0]
        k, dist, power = vdeg - 1, n - edeg, c
        for j in range(k, -1, -1):
            out[n, j + 1] = out.get((n, j + 1), 0) - power * weights[k - j + 1]
            power *= dist
    return poly_from_counts(out, "E", "V").exact_div(den * weights[0])


def volume_doubled(t, volume=invariants.volume):
    # twice the v^0 Laurent coefficient of the Laplace transform
    return 2 * volume(t)


# (recursion, mutant, the oracle check that must be among the failures)
PLANTED = [
    ("_zeta_step", zeta_step_base_off_by_one, "zeta vs multichain oracle"),
    ("_k_step", k_step_without_the_support_binomial, "k vs point census"),
    ("Kronecker", kronecker_one_byte_fields, "k vs point census"),
    ("m_from_k", m_from_k_sign_flip, "m vs moebius oracle"),
    ("k_poly", k_poly_with_an_x2y_term, "m vs moebius oracle"),
    ("truncate_laplace", truncate_laplace_weight_one_factorial_down, "laplace entire"),
    ("volume", volume_doubled, "volume vs ehrhart leading"),
]


@pytest.mark.parametrize("name,mutant,oracle_check", PLANTED,
                         ids=[row[1].__name__ for row in PLANTED])
def test_planted_defect_fails_an_oracle_check(monkeypatch, name, mutant, oracle_check):
    monkeypatch.setattr(invariants, name, mutant)
    outcomes = corpus_check(20260809) + cross_check(parse_arbor(FIGURE))
    failed = {o.name for o in outcomes if not o.passed}
    assert oracle_check in failed, (name, sorted(failed))


IDENTITY_PLANTED = [
    ("_zeta_step", zeta_step_base_off_by_one),
    ("Kronecker", kronecker_one_byte_fields),
    ("m_from_k", m_from_k_sign_flip),
]


@pytest.mark.parametrize("name,mutant", IDENTITY_PLANTED,
                         ids=[row[1].__name__ for row in IDENTITY_PLANTED])
def test_planted_defect_breaks_an_identity_past_the_oracles(monkeypatch, name, mutant):
    fans = [make_tn(n) for n in range(14, 25)]
    for t in fans:
        with pytest.raises(PointLimitError):  # cross_check refuses it
            check_point_limit(t)
    assert [t.size for t in fans if identity_failures(t)] == []
    monkeypatch.setattr(invariants, name, mutant)
    assert [t.size for t in fans if not identity_failures(t)] == []
