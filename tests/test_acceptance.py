"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(visible with `pytest -s` or on failure).  All comparisons are exact
rational arithmetic, tolerance zero.
"""

import random
import time
from fractions import Fraction

from arborium.algebra import MultiPoly, laplace_laurent
from arborium.arbor import (
    Arbor,
    constraints,
    make_tn,
    parse_arbor,
    random_corpus,
    serialize_arbor,
)
from arborium.crosscheck import corpus_check, cross_check
from arborium import invariants, oracle, verify
from fan_forms import ehrhart_tn_alternating, gens

u, X, Y, E, V, s = gens()

FIGURE_ARBOR = "{1,2}({3}({6,7},{8}),{4,5})"
CORPUS_SEED = 20260809


def _criterion(num: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {label}: {status}")
    assert not failures, f"criterion {num} ({label}): {failures[:5]}"


def test_criterion_1_zeta_series():
    failures = []
    report = verify.verify_zeta(10)
    failures += [f"n={c.n} {c.check}" for c in report.per_order if not c.passed]
    kinds = {c.check for c in report.per_order}
    if kinds != {"series", "log_derivative"}:
        failures.append(f"missing checks: {kinds}")
    _criterion(1, "zeta generating series, order 10 + log-derivative residual",
               failures)


def test_criterion_2_m_triangle_series_and_moebius():
    failures = []
    report = verify.verify_m_triangle(10)
    failures += [f"series n={c.n}" for c in report.per_order if not c.passed]
    sizes = {}
    for n in range(1, 7):
        P = oracle.build_poset(make_tn(n))
        sizes[n] = P.size
        if invariants.m_triangle(make_tn(n)) != oracle.m_triangle_oracle(P):
            failures.append(f"moebius brute force n={n}")
    if sizes[6] != 144:
        failures.append(f"|P(t_6)| = {sizes[6]}, expected 144")
    _criterion(2, "M-triangle series, order 10 + Moebius brute force n<=6",
               failures)


def test_criterion_3_ehrhart():
    failures = []
    for n in range(1, 7):
        e = invariants.ehrhart_tn_closed(n)
        for m in range(5):
            expected = (m + 1) ** (n - 1) * (Fraction(m * n + m, 2) + 1)
            if e.subs({"u": m}).constant_value() != expected:
                failures.append(f"closed form value n={n} m={m}")
            if oracle.count_points(make_tn(n), m) != expected:
                failures.append(f"enumeration n={n} m={m}")
    # leaves 2..6 in [0,4], total <= 24: sum of (25 - S) over 5^5 leaf vectors = 5^5 * 15
    largest = oracle.count_points(make_tn(6), 4)
    if largest != 46875:
        failures.append(f"largest count {largest} != 46875")
    spot = invariants.ehrhart_tn_closed(2)
    if (spot.subs({"u": 1}).constant_value(), spot.subs({"u": 2}).constant_value()) != (5, 12):
        failures.append("spot values E(1)=5, E(2)=12")
    for n in range(1, 11):
        if ehrhart_tn_alternating(n) != invariants.ehrhart_tn_closed(n):
            failures.append(f"alternating sum n={n}")
    report = verify.verify_ehrhart(10)
    failures += [f"series n={c.n}" for c in report.per_order if not c.passed]
    _criterion(3, "Ehrhart enumeration n<=6 m<=4, alternating form, series order 10",
               failures)


def test_criterion_4_laplace():
    failures = []
    report = verify.verify_laplace(10)
    failures += [f"{c.check} n={c.n}" for c in report.per_order if not c.passed]
    for n in range(1, 11):
        series = laplace_laurent(invariants.laplace(make_tn(n)), 2)
        if min(series, default=0) < 0:
            failures.append(f"negative v-power n={n}")
        if series.get(0, Fraction(0)) != Fraction(n + 1, 2):
            failures.append(f"volume n={n}")
        lead = invariants.ehrhart_tn_closed(n).coefficient("u", n).constant_value()
        if series.get(0, Fraction(0)) != lead:
            failures.append(f"volume vs Ehrhart leading n={n}")
    _criterion(4, "Laplace recursion closed form + series order 10 + Laurent checks",
               failures)


def test_criterion_5_property_suite():
    failures = []
    corpus = random_corpus(CORPUS_SEED)
    if len(corpus) < 20 or any(t.size > 6 for t in corpus):
        failures.append("corpus must hold >= 20 arbors of size <= 6")
    for outcome in corpus_check(CORPUS_SEED):
        if not outcome.passed:
            failures.append(f"{outcome.arbor}: {outcome.name}")

    rng = random.Random("acceptance-permutation")
    for t in corpus:
        if t.size < 2:
            continue
        shuffled = {}
        for vid, kids in t.children.items():
            kids = list(kids)
            rng.shuffle(kids)
            shuffled[vid] = kids
        t2 = Arbor(t.root, {vid: set(ls) for vid, ls in t.vertices.items()}, shuffled)
        for name, fn in (("zeta", invariants.zeta_poly), ("k", invariants.k_poly),
                         ("m", invariants.m_triangle), ("laplace", invariants.laplace)):
            if fn(t2) != fn(t):
                failures.append(f"child permutation changed {name} on {serialize_arbor(t)}")

    rng = random.Random("acceptance-idempotence")
    for _ in range(100):
        poly = MultiPoly.zero()
        for _ in range(rng.randint(1, 5)):
            poly = poly + (Fraction(rng.randint(-9, 9))
                           * V ** rng.randint(1, 4) * E ** rng.randint(0, 5))
        n = rng.randint(1, 5)
        once = invariants.truncate_laplace(poly, n)
        if invariants.truncate_laplace(once, n) != once:
            failures.append(f"idempotence failed on {poly} at n={n}")
    _criterion(5, "seeded corpus recursion/oracle agreement + invariance properties",
               failures)


def test_criterion_6_figure_arbor_end_to_end():
    failures = []
    start = time.monotonic()
    t = parse_arbor(FIGURE_ARBOR)
    displayed = {
        (frozenset({8}), 1),
        (frozenset({6, 7}), 2),
        (frozenset({3, 6, 7, 8}), 4),
        (frozenset({4, 5}), 2),
        (frozenset(range(1, 9)), 8),
    }
    got = {(c.support, c.bound) for c in constraints(t)}
    if got != displayed:
        failures.append(f"constraints differ: {got ^ displayed}")
    for outcome in cross_check(t):
        if not outcome.passed:
            failures.append(outcome.name)
    elapsed = time.monotonic() - start
    if elapsed > 60:
        failures.append(f"end-to-end took {elapsed:.1f}s")
    _criterion(6, "figure arbor: displayed inequalities + recursion/oracle agreement",
               failures)
