"""Command-line interface: golden outputs, exit codes, JSON round-trips."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arborium import invariants, oracle, verify
from arborium.algebra import poly_to_terms
from arborium.arbor import ArborError, make_tn, parse_arbor
from arborium.cli import MAX_COMPUTE_SIZE, MAX_ORDER, MAX_PER_SIZE, MAX_TN, build_parser, main
from arborium.crosscheck import PointLimitError, cross_check
from arborium.invariants import ehrhart, laplace, m_triangle
from fan_forms import gens

u, X, Y, E, V, s = gens()


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
    assert inv["ehrhart"]["terms"] == poly_to_terms(ehrhart(t3))
    assert inv["laplace"]["terms"] == poly_to_terms(laplace(t3))
    assert inv["m"]["terms"] == poly_to_terms(m_triangle(t3))
    assert Fraction(inv["volume"]["value"]) == Fraction(2)


def path_text(n):
    return "".join("{%d}(" % i for i in range(1, n)) + "{%d}" % n + ")" * (n - 1)


@pytest.mark.parametrize("argv,digest", [
    (("compute", "--arbor", "{1,2}({3}({6,7},{8}),{4,5})",
      "--invariant", "zeta,k,m,laplace,volume", "--format", "json"),
     "ad8d31b665f37472688410e2bd4d211200873028059af2d6275acc5926ee8d70"),
    (("compute", "--tn", "6", "--format", "json"),
     "bf9437536764702218d65b340e926f5af1d7032af3115340b54c712cf1ccb751"),
    (("compute", "--tn", "6"),
     "40ca4ee7d46edb71be3bf0773c98effb7603c1dc8dccbbb555bce3266e9931ea"),
    (("compute", "--arbor", path_text(30), "--invariant", "ehrhart"),
     "0c6fa63bcec816f918b16cb69d625949e2430421e822dcca6fa3e9f41a54af1b"),
    (("compute", "--tn", "30", "--invariant", "ehrhart"),
     "3e250b5d39b38251cd1b4884e8b3c62186ea0a072aebfc3cd19db7306a3d0e10"),
    # compute --tn 10 --format json, and compute --arbor <figure arbor> --format json: every
    # invariant, so ehrhart's interpolation and volume's Laurent window are pinned too
    (("compute", "--tn", "10", "--format", "json"),
     "9234ff5dd6ac7e672361726d019e2b9bccc87453f1b5ea857f84709b5e28e2d2"),
    (("compute", "--arbor", "{1,2}({3}({6,7},{8}),{4,5})", "--format", "json"),
     "7049256f6419ab27d8f0d7f7e04c566e141d35d66f76f928fd07b2b481d4728f"),
], ids=["figure-json", "t6-json", "t6-text", "path30-ehrhart", "t30-ehrhart", "t10-json",
        "figure-all-json"])
def test_compute_output_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compute_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "compute", "--arbor", "{1}({2},{2})",
                         "--invariant", "volume")
    assert (code, out, err) == (2, "", "error: duplicate label 2 (at position 9)\n")
    for command in ("compute", "oracle-check"):
        assert run(capsys, command, "--arbor", "{1}(") == (
            2, "", "error: expected '{' (at position 4)\n")


@pytest.mark.parametrize("command", ["compute", "oracle-check"])
def test_empty_arbor_text_is_a_parse_error(capsys, command):
    # an empty --arbor is input to parse, not an absent option: compute must
    # not fall through to --tn, nor oracle-check to the default corpus
    assert run(capsys, command, "--arbor", "") == (2, "", "error: expected '{' (at position 0)\n")


def test_compute_unknown_invariant(capsys):
    code, _, err = run(capsys, "compute", "--tn", "2", "--invariant", "banana")
    assert code == 2
    assert err == "error: unknown invariant(s): banana\n"
    assert run(capsys, "compute", "--tn", "2", "--invariant", "banana,zeta,kiwi") == (
        2, "", "error: unknown invariant(s): banana, kiwi\n")
    for value in (",", "", " , "):
        code, out, err = run(capsys, "compute", "--arbor", "{1}({2})", "--invariant", value)
        assert (code, out) == (2, "")
        assert err == f"error: --invariant {value!r} names no invariant\n"


def test_compute_requires_arbor_or_tn(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute"])
    assert exc.value.code == 2


def test_verify_single_theorem(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "laplace", "--order", "1")
    assert code == 0
    assert "theorem laplace: order 1: PASS" in out


def test_verify_repeated_theorem_runs_once(capsys):
    _, single, _ = run(capsys, "verify", "--theorem", "zeta", "--order", "1")
    code, out, _ = run(capsys, "verify", "--theorem", "zeta", "--theorem", "zeta", "--order", "1")
    assert (code, out) == (0, single)
    code, out, _ = run(capsys, "verify", "--theorem", "laplace", "--theorem", "zeta",
                       "--theorem", "laplace", "--order", "1", "--format", "json")
    assert code == 0
    assert [r["theorem"] for r in json.loads(out)] == ["laplace", "zeta"]


def test_verify_order_zero_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "zeta", "--order", "0")
    assert code == 2
    assert err == "error: --order must be >= 1\n"


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
    # "1" * 5000 is past int()'s 4300-digit limit
    for raw in ("abc", "1.0", "", "1__0", "1" * 5000):
        monkeypatch.setenv("ARBORIUM_ORDER", raw)
        code, out, err = run(capsys, "verify", "--theorem", "zeta")
        assert (code, out) == (2, "")
        assert err == f"error: ARBORIUM_ORDER must be an integer, got {raw!r}\n"


@pytest.mark.parametrize("per_size", ["0", "-1"])
def test_oracle_check_per_size_below_one_is_usage_error(capsys, per_size):
    code, out, err = run(capsys, "oracle-check", "--per-size", per_size)
    assert code == 2
    assert out == ""
    assert err == "error: --per-size must be >= 1\n"


def test_oracle_check_single_arbor(capsys):
    code, out, _ = run(capsys, "oracle-check", "--arbor", "{1}({2})")
    assert code == 0
    assert out.startswith("pass")


def tn_text(n):
    return "{1}(" + ",".join("{%d}" % i for i in range(2, n + 1)) + ")"


DEEP_PATH = "".join("{%d}(" % i for i in range(1, 1200)) + "{1200}" + ")" * 1199


@pytest.mark.parametrize("text,points", [
    (DEEP_PATH, "of size 1200 has at least 2^1200 points"),
    (tn_text(14), "has 69632 points"),
    ("{" + ",".join(str(i) for i in range(1, 13)) + "}", "has 2704156 points"),
], ids=["path-1200", "t14", "one-vertex-12"])
def test_oracle_check_too_many_points_is_usage_error(capsys, text, points):
    code, out, err = run(capsys, "oracle-check", "--arbor", text)
    assert code == 2
    assert out == ""
    assert err == f"error: arbor {points}; oracle checks stop at 32768\n"


def test_oracle_check_runs_past_the_dense_limit(capsys):
    # t_12 (15360 points) is within the point budget and passes every check
    code, out, err = run(capsys, "oracle-check", "--arbor", tn_text(12), "--format", "json")
    assert (code, err) == (0, "")
    checks = json.loads(out)
    assert len(checks) == 9 and all(c["passed"] for c in checks)


def test_oracle_check_reads_the_point_limit_once(capsys, monkeypatch):
    # the u = 1 fold runs once for the point limit, inside cross_check, and
    # once among the Ehrhart samples u = 0..n+1; over the limit, only once
    heights, calls = invariants.ehrhart_heights, []

    def counted(t, u):
        calls.append(u)
        return heights(t, u)

    monkeypatch.setattr(invariants, "ehrhart_heights", counted)
    code, out, err = run(capsys, "oracle-check", "--arbor", "{1,2}({3},{4})")
    assert (code, err) == (0, "") and out.startswith("pass")
    assert calls.count(1) == 2
    calls.clear()
    code, out, err = run(capsys, "oracle-check", "--arbor", tn_text(14))
    assert (code, out) == (2, "")
    assert err == "error: arbor has 69632 points; oracle checks stop at 32768\n"
    assert calls == [1]
    with pytest.raises(PointLimitError):
        cross_check(make_tn(14))


def test_oracle_check_counts_every_dilate_in_one_walk(capsys, monkeypatch):
    calls = {"dilate_counts": 0, "count_points": 0}
    for name in calls:
        def counted(*args, fn=getattr(oracle, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(oracle, name, counted)
    code, out, _ = run(capsys, "oracle-check", "--arbor", "{1,2}({3},{4})", "--format", "json")
    assert code == 0
    assert [c["check"] for c in json.loads(out) if c["check"].startswith("ehrhart count")] == [
        f"ehrhart count u={dil}" for dil in range(5)]
    assert calls == {"dilate_counts": 1, "count_points": 0}


def test_m_from_k_defect_is_a_failed_check(capsys, monkeypatch):
    # a K term X^2 Y has height below its support, so m_from_k raises
    # ExactDivisionError: the M check fails with it (exit 1), and "m at X=1",
    # which needs M, is left out
    k_poly = invariants.k_poly
    monkeypatch.setattr(invariants, "k_poly", lambda t: k_poly(t) + X ** 2 * Y)
    code, out, err = run(capsys, "oracle-check", "--arbor", "{1}({2})")
    assert code == 1
    assert "error" not in err and "Traceback" not in err
    assert "m vs moebius oracle: K term 1*X^2*Y^1 has height below its support" in out
    names = [o.name for o in cross_check(parse_arbor("{1}({2})"))]
    assert "m vs moebius oracle" in names and "m at X=1" not in names


@pytest.mark.parametrize("text", [
    DEEP_PATH,
    "{" + ",".join(str(i) for i in range(1, 17)) + "}",
], ids=["path-1200", "one-vertex-16"])
def test_cross_check_size_guard_comes_before_the_point_count(monkeypatch, text):
    # 2^size > 32768 refuses these arbors at once; counting the points of the
    # 1200-deep path with the Ehrhart fold would take over a minute.
    def fail(t, u):
        raise AssertionError("ehrhart_heights ran before the 2^size guard")

    monkeypatch.setattr(invariants, "ehrhart_heights", fail)
    with pytest.raises(ArborError):
        cross_check(parse_arbor(text))


@pytest.mark.parametrize("argv,message", [
    (("verify", "--order", str(MAX_ORDER + 1)),
     f"series order {MAX_ORDER + 1} exceeds the limit {MAX_ORDER}"),
    (("compute", "--tn", str(MAX_COMPUTE_SIZE + 1)),
     f"arbor size {MAX_COMPUTE_SIZE + 1} exceeds the compute limit {MAX_COMPUTE_SIZE}"),
    (("compute", "--arbor", path_text(MAX_COMPUTE_SIZE + 1), "--invariant", "ehrhart"),
     f"arbor size {MAX_COMPUTE_SIZE + 1} exceeds the compute limit {MAX_COMPUTE_SIZE}"),
    (("compute", "--arbor", DEEP_PATH),
     f"arbor size 1200 exceeds the compute limit {MAX_COMPUTE_SIZE}"),
    (("tn", str(MAX_TN + 1)), f"n = {MAX_TN + 1} exceeds the limit {MAX_TN}"),
    (("oracle-check", "--per-size", str(MAX_PER_SIZE + 1)),
     f"--per-size {MAX_PER_SIZE + 1} exceeds the limit {MAX_PER_SIZE}"),
], ids=["verify-order", "compute-tn", "compute-path", "compute-path-1200", "tn", "per-size"])
def test_size_limits_are_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_env_order_limit_is_usage_error(capsys, monkeypatch):
    # ARBORIUM_ORDER is read as int() reads it: spaces, a sign and digit underscores
    for raw in (str(MAX_ORDER + 1), " +" + "_".join(str(MAX_ORDER + 1)) + "\n"):
        monkeypatch.setenv("ARBORIUM_ORDER", raw)
        code, out, err = run(capsys, "verify", "--theorem", "zeta")
        assert code == 2
        assert out == ""
        assert err == f"error: series order {MAX_ORDER + 1} exceeds the limit {MAX_ORDER}\n"
    monkeypatch.setenv("ARBORIUM_ORDER", " -3 ")
    assert run(capsys, "verify") == (2, "", "error: --order must be >= 1\n")


def test_env_order_digit_limit_is_int_s_own(capsys, monkeypatch):
    # int() counts digits only, not spaces or the sign, against its limit
    raw = " +1" + "0" * 4299
    monkeypatch.setenv("ARBORIUM_ORDER", raw)
    assert run(capsys, "verify") == (
        2, "", f"error: series order {int(raw)} exceeds the limit {MAX_ORDER}\n")
    # and the limit is whatever sys.set_int_max_str_digits made it
    raw = "1" * 1000
    monkeypatch.setenv("ARBORIUM_ORDER", raw)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        result = run(capsys, "verify")
    finally:
        sys.set_int_max_str_digits(limit)
    assert result == (2, "", f"error: ARBORIUM_ORDER must be an integer, got {raw!r}\n")


def test_a_defect_during_work_is_not_a_usage_error(capsys, monkeypatch):
    # exit 2 is for bad input only; an exception raised by a recursion while
    # the checks run propagates, whatever ValueError subclass it is
    def boom(t):
        raise ValueError("boom")

    monkeypatch.setattr(invariants, "k_poly", boom)
    with pytest.raises(ValueError, match="boom"):
        main(["oracle-check", "--arbor", "{1}"])
    assert "error: boom" not in capsys.readouterr().err


def test_an_arbor_error_during_work_is_not_a_usage_error(capsys, monkeypatch):
    # only reading input turns an ArborError into exit 2; verify builds its
    # own arbors, so one raised there is a defect and propagates
    def broken(n):
        raise ArborError("t_n requires n >= 1")

    monkeypatch.setattr(verify, "make_tn", broken)
    with pytest.raises(ArborError, match="requires"):
        main(["verify", "--theorem", "zeta", "--order", "2"])
    assert capsys.readouterr().err == ""


def test_only_the_point_limit_is_a_usage_error_of_cross_check(capsys, monkeypatch):
    # oracle-check turns a PointLimitError from cross_check into exit 2; any
    # other ArborError raised while the checks run is a defect
    def broken(t):
        raise ArborError("planted")

    monkeypatch.setattr(invariants, "k_poly", broken)
    with pytest.raises(ArborError, match="planted"):
        main(["oracle-check", "--arbor", "{1}({2})"])
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("argv", [("--arbor", "{1}"), ("--seed", "3", "--per-size", "1")],
                         ids=["arbor", "corpus"])
def test_laplace_defect_is_a_failed_check(capsys, monkeypatch, argv):
    # 2V - EV expands to 1/v + 1 - ...: not entire, so there is no volume to
    # read.  A recursion defect fails the check (exit 1); it is not a usage
    # error (exit 2).
    monkeypatch.setattr(invariants, "laplace", lambda t: 2 * V - E * V)
    code, out, err = run(capsys, "oracle-check", *argv)
    assert code == 1
    assert "error" not in err and "Traceback" not in err
    assert ("volume vs ehrhart leading: lhs = none: Laplace transform has negative "
            "Laurent degree -1; rhs = ") in out
    assert "laplace entire: min degree -1" in out


@pytest.mark.parametrize("argv", [("--arbor", "{1}({2})"), ("--seed", "3", "--per-size", "1")],
                         ids=["arbor", "corpus"])
def test_ehrhart_defect_is_a_failed_check(capsys, monkeypatch, argv):
    # u^7 added to every count breaks the degree bound n <= 6 of the Ehrhart
    # interpolation: the defect fails one check (exit 1), and the checks that
    # need the Ehrhart polynomial are left out
    heights = invariants.ehrhart_heights

    def broken(t, u):
        first, *rest = heights(t, u)
        return [first + u ** 7, *rest]

    monkeypatch.setattr(invariants, "ehrhart_heights", broken)
    code, out, err = run(capsys, "oracle-check", *argv)
    assert code == 1
    assert "error" not in err and "Traceback" not in err
    assert "ehrhart degree bound: sample at u=" in out
    names = [o.name for o in cross_check(parse_arbor("{1}({2})")) if "ehrhart" in o.name]
    assert names == ["ehrhart degree bound"]


@pytest.mark.parametrize("argv", [("--arbor", "{1}({2})"), ("--seed", "3", "--per-size", "1")],
                         ids=["arbor", "corpus"])
def test_zeta_oracle_defect_is_a_failed_check(capsys, monkeypatch, argv):
    # m^7 added to every census breaks the zeta oracle's degree bound n <= 6
    counts = oracle.multichain_weight_counts

    def broken(P, top):
        return {m: {**c, 0: c.get(0, 0) + m ** 7} for m, c in counts(P, top).items()}

    monkeypatch.setattr(oracle, "multichain_weight_counts", broken)
    code, out, err = run(capsys, "oracle-check", *argv)
    assert code == 1
    assert "error" not in err and "Traceback" not in err
    assert "zeta vs multichain oracle: sample at u=" in out


def test_tn_command(capsys):
    code, out, _ = run(capsys, "tn", "5")
    assert code == 0
    assert out.strip() == "{1}({2},{3},{4},{5})"
    for argv in (("tn", "0"), ("tn", "-4"), ("compute", "--tn", "0")):
        assert run(capsys, *argv) == (2, "", "error: t_n requires n >= 1\n")


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
