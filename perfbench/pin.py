"""Pin the seed commit's outputs: digests of every operation's stdout.

    python3 perfbench/pin.py > perfbench/pinned.json

Run it only at a commit whose outputs are the reference.  Covers the
seed-independent operations, and the seeded ones for seeds 0..63, the
default seed and the held-out seed.  Every output must pass the structural
checks before it is pinned.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arborium.cli import main  # noqa: E402
import workloads  # noqa: E402

SEEDS = list(range(64)) + [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED]


def output(op):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(op.argv))
    return code, buf.getvalue()


def pin():
    table = {"seeds": SEEDS, "series": {}, "series_checks": {}, "corpus": {}}
    for workload in ("series", "corpus"):
        checker = workloads.Checker(workload, table)  # sees the table as it fills
        for seed in SEEDS if workload != "series" else [0]:
            for op in workloads.build(workload, seed):
                if op.key in table[workload]:
                    continue
                code, out = output(op)
                if workload == "series":
                    table["series_checks"][op.key] = len(json.loads(out)[0]["per_order"])
                checker.check(op, code, out)
                table[workload][op.key] = workloads.digest(out)
            print(f"pinned {workload} seed {seed}", file=sys.stderr, flush=True)
    return table


if __name__ == "__main__":
    print(json.dumps(pin(), indent=0, sort_keys=True))
