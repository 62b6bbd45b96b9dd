"""Command-line interface: golden outputs, exit codes, JSON round-trips."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arborium import invariants
from arborium.algebra import gens, poly_from_terms
from arborium.arbor import ArborError, make_tn, parse_arbor
from arborium.cli import MAX_COMPUTE_SIZE, MAX_ORDER, MAX_PER_SIZE, MAX_TN, build_parser, main
from arborium.crosscheck import cross_check
from arborium.invariants import ehrhart, laplace, m_triangle

u, X, Y, E, V, s, v = gens()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_ehrhart_golden(capsys):
    code, out, _ = run(capsys, "compute", "--tn", "2", "--invariant", "ehrhart")
    assert code == 0
    assert out.strip() == "1 + 5/2*u + 3/2*u^2"


def test_compute_laplace_golden(capsys):
    code, out, _ = run(capsys, "compute", "--arbor", "{1}", "--invariant", "laplace")
    assert code == 0
    assert out.strip() == "V - E*V"


def test_compute_volume_golden(capsys):
    code, out, _ = run(capsys, "compute", "--tn", "3", "--invariant", "volume")
    assert code == 0
    assert out.strip() == "2"


def test_compute_multiple_invariants(capsys):
    code, out, _ = run(capsys, "compute", "--tn", "2", "--invariant", "ehrhart,volume")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["ehrhart"] == "1 + 5/2*u + 3/2*u^2"
    assert lines["volume"] == "3/2"


def test_compute_repeated_invariant_counts_once(capsys):
    _, single, _ = run(capsys, "compute", "--arbor", "{1}", "--invariant", "zeta")
    for argv in (("--invariant", "zeta", "--invariant", "zeta"), ("--invariant", "zeta,zeta")):
        code, out, _ = run(capsys, "compute", "--arbor", "{1}", *argv)
        assert (code, out) == (0, single)
    code, out, _ = run(capsys, "compute", "--tn", "2", "--invariant", "volume,ehrhart,volume")
    assert code == 0
    assert [line.split(": ")[0] for line in out.splitlines()] == ["volume", "ehrhart"]
    code, out, _ = run(capsys, "compute", "--tn", "2", "--invariant", "volume",
                       "--invariant", "volume,ehrhart", "--format", "json")
    assert code == 0
    assert list(json.loads(out)["invariants"]) == ["volume", "ehrhart"]


def test_compute_json_roundtrip(capsys):
    code, out, _ = run(capsys, "compute", "--tn", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["arbor"] == "{1}({2},{3})"
    assert payload["size"] == 3
    inv = payload["invariants"]
    t3 = make_tn(3)
    assert poly_from_terms(inv["ehrhart"]["terms"]) == ehrhart(t3)
    assert poly_from_terms(inv["laplace"]["terms"]) == laplace(t3)
    assert poly_from_terms(inv["m"]["terms"]) == m_triangle(t3)
    assert Fraction(inv["volume"]["value"]) == Fraction(2)


@pytest.mark.parametrize("argv,digest", [
    (("compute", "--arbor", "{1,2}({3}({6,7},{8}),{4,5})",
      "--invariant", "zeta,k,m,laplace,volume", "--format", "json"),
     "ad8d31b665f37472688410e2bd4d211200873028059af2d6275acc5926ee8d70"),
    (("compute", "--tn", "6", "--format", "json"),
     "bf9437536764702218d65b340e926f5af1d7032af3115340b54c712cf1ccb751"),
    (("compute", "--tn", "6"),
     "40ca4ee7d46edb71be3bf0773c98effb7603c1dc8dccbbb555bce3266e9931ea"),
], ids=["figure-json", "t6-json", "t6-text"])
def test_compute_output_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compute_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "compute", "--arbor", "{1}({2},{2})",
                         "--invariant", "volume")
    assert code == 2
    assert "duplicate label 2" in err


def test_compute_unknown_invariant(capsys):
    code, _, err = run(capsys, "compute", "--tn", "2", "--invariant", "banana")
    assert code == 2
    assert "banana" in err
    for value in (",", "", " , "):
        code, out, err = run(capsys, "compute", "--arbor", "{1}({2})", "--invariant", value)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "names no invariant" in err


def test_compute_requires_arbor_or_tn(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute"])
    assert exc.value.code == 2


def test_verify_single_theorem(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "laplace", "--order", "1")
    assert code == 0
    assert "theorem laplace: order 1: PASS" in out


def test_verify_order_zero_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "zeta", "--order", "0")
    assert code == 2
    assert "order" in err


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "ehrhart",
                       "--order", "2", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["theorem"] == "ehrhart"
    assert reports[0]["overall"] is True


def test_verify_env_var_order(capsys, monkeypatch):
    monkeypatch.setenv("ARBORIUM_ORDER", "2")
    code, out, _ = run(capsys, "verify", "--theorem", "m_triangle",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["order"] == 2


def test_verify_bad_env_order_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ARBORIUM_ORDER", "abc")
    code, out, err = run(capsys, "verify", "--theorem", "zeta")
    assert code == 2
    assert out == ""
    assert "ARBORIUM_ORDER must be an integer, got 'abc'" in err


@pytest.mark.parametrize("per_size", ["0", "-1"])
def test_oracle_check_per_size_below_one_is_usage_error(capsys, per_size):
    code, out, err = run(capsys, "oracle-check", "--per-size", per_size)
    assert code == 2
    assert out == ""
    assert "--per-size must be >= 1" in err


def test_oracle_check_single_arbor(capsys):
    code, out, _ = run(capsys, "oracle-check", "--arbor", "{1}({2})")
    assert code == 0
    assert out.startswith("pass")


DEEP_PATH = "".join("{%d}(" % i for i in range(1, 1200)) + "{1200}" + ")" * 1199


@pytest.mark.parametrize("text", [
    DEEP_PATH,                                      # 2^1200 points at least
    "{1}(" + ",".join("{%d}" % i for i in range(2, 13)) + ")",  # t_12: 15360 points
    "{" + ",".join(str(i) for i in range(1, 13)) + "}",         # 2,704,156 points
], ids=["path-1200", "t12", "one-vertex-12"])
def test_oracle_check_too_many_points_is_usage_error(capsys, text):
    code, out, err = run(capsys, "oracle-check", "--arbor", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "oracle checks stop at 8192" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    DEEP_PATH,
    "{" + ",".join(str(i) for i in range(1, 15)) + "}",
], ids=["path-1200", "one-vertex-14"])
def test_cross_check_size_guard_comes_before_the_point_count(monkeypatch, text):
    # 2^size > 8192 refuses these arbors at once; counting the points of the
    # 1200-deep path with the Ehrhart fold would take over a minute.
    def fail(t, u):
        raise AssertionError("ehrhart_heights ran before the 2^size guard")

    monkeypatch.setattr(invariants, "ehrhart_heights", fail)
    with pytest.raises(ArborError):
        cross_check(parse_arbor(text))


def path_text(n):
    return "".join("{%d}(" % i for i in range(1, n)) + "{%d}" % n + ")" * (n - 1)


@pytest.mark.parametrize("argv", [
    ("verify", "--order", str(MAX_ORDER + 1)),
    ("compute", "--tn", str(MAX_COMPUTE_SIZE + 1)),
    ("compute", "--arbor", path_text(MAX_COMPUTE_SIZE + 1), "--invariant", "ehrhart"),
    ("compute", "--arbor", DEEP_PATH),
    ("tn", str(MAX_TN + 1)),
    ("oracle-check", "--per-size", str(MAX_PER_SIZE + 1)),
], ids=["verify-order", "compute-tn", "compute-path", "compute-path-1200", "tn", "per-size"])
def test_size_limits_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds the" in err
    assert "Traceback" not in err


def test_env_order_limit_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ARBORIUM_ORDER", str(MAX_ORDER + 1))
    code, out, err = run(capsys, "verify", "--theorem", "zeta")
    assert code == 2
    assert out == ""
    assert err == f"error: series order {MAX_ORDER + 1} exceeds the limit {MAX_ORDER}\n"


def test_oracle_check_corpus_small(capsys):
    code, out, _ = run(capsys, "oracle-check", "--seed", "3", "--per-size", "1")
    assert code == 0
    assert "corpus: seed=3" in out
    assert "FAIL" not in out


def test_oracle_check_corpus_json_parses(capsys):
    code, out, err = run(capsys, "oracle-check", "--seed", "3", "--per-size", "1",
                         "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert entries and all(e["passed"] for e in entries)
    assert "corpus: seed=3" in err


def test_oracle_check_json(capsys):
    code, out, _ = run(capsys, "oracle-check", "--arbor", "{1}", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert all(e["passed"] for e in entries)


def test_tn_command(capsys):
    code, out, _ = run(capsys, "tn", "5")
    assert code == 0
    assert out.strip() == "{1}({2},{3},{4},{5})"
    code, _, err = run(capsys, "tn", "0")
    assert code == 2


def run_fresh(*args):
    """(exit code, stdout, stderr) of a new Python process with src/ on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_successive_main_calls_match_fresh_processes(capsys, monkeypatch):
    # main() shares one parser across calls; an option given in one call must
    # not leak into the next, so each output equals that of a new process
    monkeypatch.delenv("ARBORIUM_ORDER", raising=False)
    calls = [
        ("verify", "--theorem", "zeta", "--order", "4"),
        ("verify", "--order", "4"),
        ("compute", "--tn", "3", "--invariant", "volume"),
        ("compute", "--tn", "3"),
    ]
    for argv in calls:
        assert run(capsys, *argv) == run_fresh("-m", "arborium.cli", *argv), argv
    assert build_parser() is build_parser()


def test_cli_import_does_not_load_numpy():
    # numpy is loaded by the oracle functions only; verify and compute never need it.
    probe = "import sys, arborium.cli; print('numpy' in sys.modules)"
    code, out, err = run_fresh("-c", probe)
    assert code == 0, err
    assert out.strip() == "False"
