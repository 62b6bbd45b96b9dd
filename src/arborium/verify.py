"""Generating-series verification.

Each verifier expands a closed rational (or symbolic-power) expression as a
truncated series in s, the coefficient list [c_0, ..., c_order], and
compares entry n, with exact arithmetic, against the recursion-computed
invariant of the fan arbor t_n.  Results are collected in a Report that
renders as text (render_text) or as a dict for JSON (to_dict).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    MultiPoly,
    series_expand_rational,
    series_mul,
    series_pow_symbolic,
)
from .arbor import make_tn
from . import invariants

DEFAULT_ORDER = 10

_U = MultiPoly.variable("u")
_X = MultiPoly.variable("X")
_Y = MultiPoly.variable("Y")
_E = MultiPoly.variable("E")
_V = MultiPoly.variable("V")
_S = MultiPoly.variable("s")


@dataclass
class CheckResult:
    n: int
    check: str
    passed: bool
    lhs: str
    rhs: str
    diff: str | None = None


@dataclass
class Report:
    theorem: str
    order: int
    per_order: list = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.per_order)

    def add(self, n: int, check: str, lhs: MultiPoly, rhs: MultiPoly):
        passed = lhs == rhs
        diff = None if passed else str(lhs - rhs)
        self.per_order.append(
            CheckResult(n, check, passed, str(lhs), str(rhs), diff))

    def to_dict(self) -> dict:
        per_order = []
        for c in self.per_order:
            item = {"n": c.n, "check": c.check, "passed": c.passed,
                    "lhs": c.lhs, "rhs": c.rhs}
            if c.diff is not None:
                item["diff"] = c.diff
            per_order.append(item)
        return {"theorem": self.theorem, "order": self.order,
                "per_order": per_order, "overall": self.overall}

    def render_text(self) -> str:
        lines = [f"theorem {self.theorem}: order {self.order}: "
                 f"{'PASS' if self.overall else 'FAIL'}"]
        for c in self.per_order:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"  n={c.n:<2d} {c.check:<14s} {mark}")
            if not c.passed:
                lines.append(f"    lhs: {c.lhs}")
                lines.append(f"    rhs: {c.rhs}")
        return "\n".join(lines)


def _series_report(theorem: str, order: int, rhs_at, lhs_at, lhs_0=1):
    """The "series" checks of one theorem: lhs_0 at n = 0, then lhs_at(n) for
    n = 1..order, each against entry n of rhs_at(order).

    Returns the report, {n: lhs_at(n)} and the right-hand side list.
    """
    if order < 1:
        raise ValueError("order >= 1 required")
    report = Report(theorem, order)
    rhs = rhs_at(order)
    report.add(0, "series", MultiPoly.const(lhs_0), rhs[0])
    lhs = {n: lhs_at(n) for n in range(1, order + 1)}
    for n, value in lhs.items():
        report.add(n, "series", value, rhs[n])
    return report, lhs, rhs


# -- theorem right-hand sides -------------------------------------------------

def zeta_rhs(order: int) -> list:
    """((1 - s*u + s)/(1 - s*u))**u, truncated."""
    return series_pow_symbolic(1 - _U, _U, order)


def m_triangle_rhs(order: int) -> list:
    num = (_X * _Y * _S - _Y * _S - 1) * (_X * _Y * _S - 1)
    den = (2 * _X * _Y * _S - _Y * _S - 1) * (_X * _Y * _S - _Y * _S + _S - 1)
    return series_expand_rational(num, den, order)


def ehrhart_rhs(order: int) -> list:
    """(1/2) (1 - s/(us+s-1) - (s-1)/(us+s-1)^2), over the common denominator."""
    core = _U * _S + _S - 1
    num = core ** 2 - _S * core - (_S - 1)
    den = 2 * core ** 2
    return series_expand_rational(num, den, order)


def laplace_rhs(order: int) -> list:
    """V*(s/(EVs - Vs + 1) + Es/(Es - 1)), over the common denominator.

    The series starts at s^1; the verifier asserts the s^0 coefficient is 0
    rather than assuming it.
    """
    d1 = _E * _V * _S - _V * _S + 1
    d2 = _E * _S - 1
    num = _V * (_S * d2 + _E * _S * d1)
    den = d1 * d2
    return series_expand_rational(num, den, order)


# -- verifiers ------------------------------------------------------------------

def verify_zeta(order: int = DEFAULT_ORDER) -> Report:
    """Series of Z(u, 1) over the fan family versus the closed power form,
    plus the log-derivative identity G'(1-us)(1+s-us) = u*G that encodes the
    equivalent exp-integral form."""
    # entry n of the series does not depend on the truncation order
    report, _, g = _series_report(
        "zeta", order, lambda k: zeta_rhs(k + 1),
        lambda n: invariants.zeta_poly(make_tn(n)).subs({"X": 1}))

    derivative = [(m + 1) * g[m + 1] for m in range(order + 1)]
    quad = ((1 - _U * _S) * (1 + _S - _U * _S)).coeffs_in("s")
    quad = [quad.get(m, MultiPoly.zero()) for m in range(max(quad) + 1)]
    product = series_mul(derivative, quad, order)
    for n in range(order + 1):
        report.add(n, "log_derivative", product[n] - _U * g[n], MultiPoly.zero())
    return report


def verify_m_triangle(order: int = DEFAULT_ORDER) -> Report:
    return _series_report("m_triangle", order, m_triangle_rhs,
                          lambda n: invariants.m_triangle(make_tn(n)))[0]


def verify_ehrhart(order: int = DEFAULT_ORDER) -> Report:
    """Closed-form counting polynomials versus the rational series; the
    closed form itself is certified against enumeration by acceptance
    criterion 3 and test_invariants.test_ehrhart_fan_closed_values."""
    return _series_report("ehrhart", order, ehrhart_rhs, invariants.ehrhart_tn_closed)[0]


def verify_laplace(order: int = DEFAULT_ORDER) -> Report:
    """Truncation-recursion transforms versus the rational series, and
    against the closed form V^n (1-E)^(n-1) - V E^n."""
    report, lhs, _ = _series_report("laplace", order, laplace_rhs,
                                    lambda n: invariants.laplace(make_tn(n)), lhs_0=0)
    for n, poly in lhs.items():
        report.add(n, "closed_form", poly, invariants.laplace_tn_closed(n))
    return report


VERIFIERS = {
    "zeta": verify_zeta,
    "m_triangle": verify_m_triangle,
    "ehrhart": verify_ehrhart,
    "laplace": verify_laplace,
}

THEOREMS = tuple(VERIFIERS)
