"""Steadiness check and self-test of the benchmark.

    python3 perfbench/steady.py [--seeds 10] [--workload NAME ...] [--skip-trace]

Spread: runs each workload untraced once per seed (1..N) and reports, per
end-to-end metric, the distance between the first and third quartiles as
a share of the median, against the metric's bound in BENCHMARK.json.  The
runs alternate between workloads (seed 1 of each, then seed 2 of each, in
alternating order), so that a spell of host contention lasting a few runs
falls on several workloads rather than on consecutive seeds of one.

Self-test (unless --skip-trace): runs each workload traced twice with the
default seed and requires that both runs are correct (which includes traced
output being byte-identical to untraced output), that every count metric
repeats exactly, and that every per-layer metric is non-zero on at least
one workload.

Prints a table, then one JSON summary line; exits 1 if any requirement fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - start
    shown = ", ".join(f"{name} {m['value']:.5g}" for name, m in list(result["metrics"].items())[:5])
    print(f"  {workload} seed {seed} trace {trace}: {result['elapsed_s']:.1f} s, "
          f"correct {result['correct']}, {shown}", flush=True)
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--skip-trace", action="store_true")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    problems = []
    summary = {"run_seconds": seconds, "spread": {}, "trace": {}}

    chosen = args.workload or names
    runs_of = {workload: [] for workload in chosen}
    for seed in range(1, args.seeds + 1):
        for workload in (chosen if seed % 2 else chosen[::-1]):
            runs_of[workload].append(run(workload, seed, seconds, 0))

    for workload in chosen:
        runs = runs_of[workload]
        problems += [f"{workload}: incorrect run" for r in runs if not r["correct"]]
        rows = summary["spread"][workload] = {
            "elapsed_s": [r["elapsed_s"] for r in runs]}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            rows[name] = {"median": statistics.median(values), "spread": spread(values),
                          "bound": bound, "values": values}
            status = "ok" if rows[name]["spread"] < bound / 3 else (
                "WIDE" if rows[name]["spread"] <= bound else "OVER")
            print(f"{workload:<8s} {name:<12s} median {rows[name]['median']:>10.5g} "
                  f"spread {rows[name]['spread']:6.3f}  bound {bound:.2f}  {status}", flush=True)
            if status == "OVER":
                problems.append(f"{workload}: {name} spread over its bound")

    if not args.skip_trace:
        counts = [m["name"] for m in bench["per_layer"] if m["unit"] not in ("s", "ratio")]
        seen_nonzero = set()
        for workload in chosen:
            first, second = (run(workload, 20260809, seconds, 1)  # the default seed
                             for _ in range(2))
            found = [f"{workload}: traced run incorrect" for r in (first, second)
                     if not r["correct"]]
            for name in counts:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if a != b:
                    found.append(f"{workload}: {name} differs between runs ({a} vs {b})")
            problems += found
            seen_nonzero |= {n for n, m in first["metrics"].items() if m["value"]}
            overhead = first["metrics"]["trace.overhead"]["value"]
            summary["trace"][workload] = {n: m["value"] for n, m in first["metrics"].items()}
            print(f"{workload:<8s} traced twice: {'counts repeat' if not found else 'FAILED'}, "
                  f"overhead x{overhead:.3f}", flush=True)
        never = [m["name"] for m in bench["per_layer"] if m["name"] not in seen_nonzero]
        if never and not args.workload:
            problems.append(f"per-layer metrics zero on every workload: {never}")

    for problem in problems:
        print(f"FAIL {problem}")
    summary["problems"] = problems
    print(json.dumps(summary))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
