"""Series verification reports, including the negative harness."""

import json

import pytest

from arborium.algebra import MultiPoly, gens
from arborium import invariants, verify

u, X, Y, E, V, s, v = gens()


@pytest.mark.parametrize("name", verify.THEOREMS)
def test_verifiers_pass_low_order(name):
    report = verify.VERIFIERS[name](4)
    assert report.overall
    assert report.order == 4
    assert all(c.passed for c in report.per_order)


@pytest.mark.parametrize("name", verify.THEOREMS)
def test_order_must_be_positive(name):
    with pytest.raises(ValueError):
        verify.VERIFIERS[name](0)


def test_zeta_report_has_log_derivative_checks():
    report = verify.verify_zeta(3)
    kinds = {c.check for c in report.per_order}
    assert kinds == {"series", "log_derivative"}


def test_m_triangle_rhs_at_x_one_is_geometric():
    rhs = verify.m_triangle_rhs(6)
    for n in range(7):
        assert rhs[n].subs({"X": 1}) == 1


def test_laplace_rhs_starts_at_s():
    assert verify.laplace_rhs(3)[0].is_zero()


def test_laplace_report_includes_closed_form():
    report = verify.verify_laplace(3)
    kinds = {c.check for c in report.per_order}
    assert kinds == {"series", "closed_form"}


@pytest.mark.parametrize("name,target", [
    ("zeta", "zeta_poly"),
    ("m_triangle", "m_triangle"),
    ("ehrhart", "ehrhart_tn_closed"),
    ("laplace", "laplace"),
])
def test_perturbed_lhs_fails(name, target, monkeypatch):
    real = getattr(invariants, target)

    def perturbed(arg):
        return real(arg) + X * Y + 1

    monkeypatch.setattr(invariants, target, perturbed)
    report = verify.VERIFIERS[name](3)
    assert not report.overall
    failing = [c for c in report.per_order if not c.passed]
    assert failing and all(c.diff for c in failing)


def test_report_json_shape():
    report = verify.verify_ehrhart(2)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["theorem"] == "ehrhart"
    assert data["order"] == 2
    assert data["overall"] is True
    assert {entry["n"] for entry in data["per_order"]} == {0, 1, 2}
    for entry in data["per_order"]:
        assert set(entry) >= {"n", "check", "passed", "lhs", "rhs"}


def test_report_text_rendering():
    text = verify.verify_m_triangle(2).render_text()
    assert text.startswith("theorem m_triangle: order 2: PASS")
    assert "n=1" in text


def test_verify_all_runs_everything():
    reports = [verifier(2) for verifier in verify.VERIFIERS.values()]
    assert [r.theorem for r in reports] == list(verify.THEOREMS)
    assert all(r.overall for r in reports)
