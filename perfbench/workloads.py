"""Workload inputs and output checks for the arborium benchmark.

A workload is a fixed list of CLI operations (argument vectors for
``arborium.cli.main``) made from the workload seed.  The program only ever
sees the generated arbor text.  Every operation's standard output is checked
by code that does not go through the path being timed: structure and
pass/fail flags are read from the JSON output, and the whole output is
compared with a digest pinned from the seed commit (``pinned.json``).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

from arborium.arbor import random_corpus, serialize_arbor

DEFAULT_SEED = 20260809
# Seed kept out of all tuning; a later claim must also hold on it.
HELD_OUT_SEED = 20261017

FIGURE_ARBOR = "{1,2}({3}({6,7},{8}),{4,5})"

SERIES_THEOREMS = ("zeta", "m_triangle", "ehrhart", "laplace")
SERIES_ORDERS = (10, 12, 14, 16)

# Sizes 1..5 only: a size-6 arbor's Ehrhart sweep costs 0.4-4 s depending on
# its shape, so four of them made one seed's pass up to twice another's.
# Sixteen arbors per listed size; sizes 3 and 5 are listed twice, so that
# op_p50_ms falls inside the 32 size-3 arbors and op_p90_ms inside the 32
# size-5 arbors rather than on a boundary between sizes.  A size-5 arbor
# costs 70-125 ms depending on its shape, and 32 draws make the mix of
# shapes, and so those percentiles, steadier from seed to seed than 16.
CORPUS_SIZES = (1, 2, 3, 3, 4, 5, 5)
CORPUS_PER_SIZE = 16

PINNED_FILE = Path(__file__).with_name("pinned.json")


@dataclass(frozen=True)
class Op:
    """One CLI call; ``key`` names it in the pinned digest table."""

    argv: tuple
    key: str


def corpus_arbors(seed: int) -> list:
    arbors = [serialize_arbor(t) for t in random_corpus(seed, CORPUS_SIZES, CORPUS_PER_SIZE)]
    return arbors + [FIGURE_ARBOR]


def build(workload: str, seed: int) -> list:
    """The operations of one pass of a workload."""
    if workload == "series":
        return [Op(("verify", "--theorem", theorem, "--order", str(order), "--format", "json"),
                   f"{theorem}@{order}")
                for order in SERIES_ORDERS for theorem in SERIES_THEOREMS]
    if workload == "corpus":
        return [Op(("oracle-check", "--arbor", text, "--format", "json"), text)
                for text in corpus_arbors(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def load_pinned() -> dict:
    return json.loads(PINNED_FILE.read_text())


# -- output checks -------------------------------------------------------------

class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def arbor_size(text: str) -> int:
    return max(int(x) for x in re.findall(r"\d+", text))


def full_path_checks(size: int) -> set:
    """Check names the seed commit emits for an arbor on the full-interpolation
    path.  Every arbor of size <= 6 takes it: its point count is at most
    C(12, 6) = 924, below the spot-path limit of 1500."""
    names = {"zeta vs multichain oracle", "k vs point census", "m vs moebius oracle",
             "m at X=1", "laplace entire", "volume vs ehrhart leading",
             "zeta at u=2, X=1 = |P|", "k at X=Y=1 = |P|", "ehrhart at u=1 = |P|"}
    return names | {f"ehrhart count u={u}" for u in range(min(4, size + 1) + 1)}


# The figure arbor has 3464 points, so the seed commit takes the spot path.
FIGURE_CHECKS = {"zeta spot m=2", "zeta spot m=3", "zeta spot m=4", "k vs point census",
                 "m vs moebius oracle", "m at X=1", "laplace entire",
                 "zeta at u=2, X=1 = |P|", "k at X=Y=1 = |P|"}


class Checker:
    """Checks one operation's exit code and standard output.

    ``pinned`` maps each workload to {op key: digest}; ``series_checks`` pins
    the seed commit's number of checks per report.  Operations with no
    pinned digest (seeds outside the pinned range) still get every structural
    check.
    """

    def __init__(self, workload: str, pinned: dict):
        self.workload = workload
        self.digests = pinned[workload]
        self.series_checks = pinned["series_checks"]
        self.unpinned = 0

    def check(self, op: Op, code, stdout: str):
        """Raise CheckFailed unless the output is right."""
        _require(code == 0, f"exit code {code!r}")
        getattr(self, "_check_" + self.workload)(op, json.loads(stdout))
        want = self.digests.get(op.key)
        if want is None:
            self.unpinned += 1
            return
        _require(digest(stdout) == want, "stdout differs from the seed commit's")

    def _check_series(self, op, data):
        theorem, order = op.argv[2], int(op.argv[4])
        _require(len(data) == 1, "expected one report")
        report = data[0]
        _require(report["theorem"] == theorem and report["order"] == order,
                 "report is for another theorem or order")
        _require(report["overall"] is True, "report failed")
        _require(all(c["passed"] is True for c in report["per_order"]), "a check failed")
        want = self.series_checks.get(op.key)
        _require(want is not None, "no pinned check count")
        _require(len(report["per_order"]) == want,
                 f"{len(report['per_order'])} checks, seed commit had {want}")

    def _check_corpus(self, op, data):
        text = op.key
        _require(data and all(o["arbor"] == text for o in data), "outcomes for another arbor")
        failed = [o["check"] for o in data if o["passed"] is not True]
        _require(not failed, f"failed checks {failed}")
        want = FIGURE_CHECKS if text == FIGURE_ARBOR else full_path_checks(arbor_size(text))
        missing = want - {o["check"] for o in data}
        _require(not missing, f"checks dropped: {sorted(missing)}")
