"""Command-line front end.

Commands:
    compute       invariants of one arbor (--arbor TEXT or --tn N)
    verify        expand the generating series and compare against recursions
    oracle-check  recursion-vs-brute-force comparisons on a seeded corpus
    tn            print the canonical text of the fan arbor t_n

Exit codes: 0 success, 1 verification or oracle disagreement, 2 usage or
parse errors.  The environment variable ARBORIUM_ORDER overrides the
default series order.  Every size input has an upper limit below.  Bad
input raises UsageError before any work starts (an ArborError from reading
an arbor is turned into one, and so is the PointLimitError that cross_check
raises before any oracle runs), and main alone turns it into "error: ..."
and exit 2.  Any other exception raised during the work, an ArborError
included, is a defect and propagates, so it cannot pass for a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import MultiPoly, poly_to_terms
from .arbor import ArborError, make_tn, parse_arbor, serialize_arbor
from .invariants import INVARIANT_NAMES, compute_invariants
from .verify import DEFAULT_ORDER, THEOREMS, VERIFIERS

# Input limits.  Each is set so that the largest accepted input ends within
# about 10 s; the times are single runs on a shared 2-CPU VM with CPython 3.11,
# and a range spans three to five such runs.
MAX_ORDER = 52          # verify --order / ARBORIUM_ORDER: all four theorems, 4.4-6.0 s
MAX_COMPUTE_SIZE = 30   # compute --tn / --arbor size: every invariant, 1.0 s at most
                        # (16 random arbors 0.4-1.0 s, t_30 0.5-0.9 s, 30-deep path 0.3-0.5 s)
MAX_TN = 800_000        # tn N: 3.5-3.7 s and 577 MB peak RSS; building t_N takes
                        # 2.6-3.5 s of it (validating 1.3-2.1 s), writing its text 0.8-1.3 s
MAX_PER_SIZE = 40       # oracle-check --per-size: 1.2-1.4 s on the default seed


class UsageError(Exception):
    """Bad command-line input, found before any work starts; main prints it
    as "error: ..." and exits 2."""


def _read(reader, *args):
    """reader(*args) on command-line input; an ArborError becomes a UsageError."""
    try:
        return reader(*args)
    except ArborError as exc:
        raise UsageError(str(exc)) from None


def _default_order() -> int:
    raw = os.environ.get("ARBORIUM_ORDER")
    if raw is None:
        return DEFAULT_ORDER
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"ARBORIUM_ORDER must be an integer, got {raw!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves no state in the parser, and building it takes about 15
    times as long as one parse, which a process making many main() calls
    would otherwise pay on every call."""
    parser = argparse.ArgumentParser(
        prog="arborium",
        description="Exact poset and polytope invariants of arbors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute invariants of one arbor")
    group = p_compute.add_mutually_exclusive_group(required=True)
    group.add_argument("--arbor", help="arbor text, e.g. '{1}({2},{3})'")
    group.add_argument("--tn", type=int, metavar="N", help="use the fan arbor t_N")
    p_compute.add_argument(
        "--invariant", action="append", metavar="NAME",
        help=f"one of {', '.join(INVARIANT_NAMES)} (repeatable or comma separated; "
             "default: all)")
    p_compute.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="verify the generating series")
    p_verify.add_argument("--theorem", action="append", choices=THEOREMS,
                          help="series to check (repeatable; default: all)")
    p_verify.add_argument("--order", type=int, default=None,
                          help=f"series truncation order (default {DEFAULT_ORDER}, "
                               "or ARBORIUM_ORDER)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_oracle = sub.add_parser("oracle-check",
                              help="compare recursions against brute force")
    p_oracle.add_argument("--arbor", help="check a single arbor instead of the corpus")
    p_oracle.add_argument("--seed", type=int, default=20260809,
                          help="corpus seed (default 20260809)")
    p_oracle.add_argument("--per-size", type=int, default=4,
                          help="corpus arbors per size 1..6 (default 4)")
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")

    p_tn = sub.add_parser("tn", help="print the canonical text of t_N")
    p_tn.add_argument("n", type=int)

    return parser


def _invariant_names(raw) -> list:
    if not raw:
        return list(INVARIANT_NAMES)
    names = []
    for chunk in raw:
        named = [x.strip() for x in chunk.split(",") if x.strip()]
        if not named:
            raise UsageError(f"--invariant {chunk!r} names no invariant")
        names.extend(named)
    bad = [x for x in names if x not in INVARIANT_NAMES]
    if bad:
        raise UsageError(f"unknown invariant(s): {', '.join(bad)}")
    return list(dict.fromkeys(names))  # a repeated name counts once, at its first place


def _value_json(value) -> dict:
    text = str(value)
    if isinstance(value, MultiPoly):
        return {"text": text, "terms": poly_to_terms(value)}
    return {"text": text, "value": text}


def _compute_arbor(args):
    """The arbor named by --arbor or --tn, refused above MAX_COMPUTE_SIZE before
    t_N is built."""
    if args.arbor is not None:
        t = _read(parse_arbor, args.arbor)
        size = t.size
    else:
        t, size = None, args.tn
    if size > MAX_COMPUTE_SIZE:
        raise UsageError(f"arbor size {size} exceeds the compute limit {MAX_COMPUTE_SIZE}")
    return t if t is not None else _read(make_tn, size)


def cmd_compute(args) -> int:
    t = _compute_arbor(args)
    names = _invariant_names(args.invariant)
    values = compute_invariants(t, names)
    if args.format == "json":
        print(json.dumps({"arbor": serialize_arbor(t), "size": t.size, "invariants": {
            name: _value_json(value) for name, value in values.items()}}, indent=2))
    elif len(names) == 1:
        print(values[names[0]])
    else:
        for name, value in values.items():
            print(f"{name}: {value}")
    return 0


def cmd_verify(args) -> int:
    order = args.order if args.order is not None else _default_order()
    if order < 1:
        raise UsageError("--order must be >= 1")
    if order > MAX_ORDER:
        raise UsageError(f"series order {order} exceeds the limit {MAX_ORDER}")
    # a repeated theorem runs once, at its first place
    reports = [VERIFIERS[name](order) for name in dict.fromkeys(args.theorem or THEOREMS)]
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.render_text())
    return 0 if all(r.overall for r in reports) else 1


def cmd_oracle_check(args) -> int:
    # crosscheck loads numpy through oracle; verify and compute never need it
    from .crosscheck import PointLimitError, corpus_check, cross_check

    if args.per_size < 1:
        raise UsageError("--per-size must be >= 1")
    if args.per_size > MAX_PER_SIZE:
        raise UsageError(f"--per-size {args.per_size} exceeds the limit {MAX_PER_SIZE}")
    if args.arbor is not None:
        t = _read(parse_arbor, args.arbor)
        try:
            outcomes = cross_check(t)
        except PointLimitError as exc:
            raise UsageError(str(exc)) from None
    else:
        # In JSON mode the header goes to stderr, so stdout stays one JSON document.
        print(f"corpus: seed={args.seed} per_size={args.per_size} sizes 1..6",
              file=sys.stderr if args.format == "json" else sys.stdout)
        outcomes = corpus_check(args.seed, per_size=args.per_size)
    if args.format == "json":
        print(json.dumps([
            {"arbor": o.arbor, "check": o.name, "passed": o.passed,
             **({"detail": o.detail} if o.detail else {})}
            for o in outcomes], indent=2))
    else:
        by_arbor: dict = {}
        for o in outcomes:
            by_arbor.setdefault(o.arbor, []).append(o)
        for text, checks in by_arbor.items():
            ok = all(c.passed for c in checks)
            print(f"{'pass' if ok else 'FAIL'}  {text}")
            for c in checks:
                if not c.passed:
                    print(f"      {c.name}: {c.detail}")
    return 0 if all(o.passed for o in outcomes) else 1


def cmd_tn(args) -> int:
    if args.n > MAX_TN:
        raise UsageError(f"n = {args.n} exceeds the limit {MAX_TN}")
    print(serialize_arbor(_read(make_tn, args.n)))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"compute": cmd_compute, "verify": cmd_verify,
                "oracle-check": cmd_oracle_check, "tn": cmd_tn}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
