"""arborium benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload series --seed 20260809 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, and the run fails (non-zero exit, no result) when that
is missing.  The operations of a workload are ``arborium.cli.main(argv)`` calls
made in this process with standard output captured, one after another.

``--trace 0`` measures the end-to-end metrics: a warm-up pass, then passes
for ``--seconds`` seconds (at least three).  Timings use each operation's
fastest latency over the passes: other tenants of the host slow all code by
up to 1.65x in episodes of 10-30 s, and the best of several passes is far
steadier than their median (see README.md).  Set-up time is probed in
fresh processes between the passes, so its median spans the whole run.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.PER_LAYER`` plus the tracing overhead.  Every operation's output
is checked (see ``workloads.Checker``); a traced operation must print
exactly what the untraced one printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same metrics as a table, with error rate and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROBES_PER_GAP = 2        # fresh-process set-ups timed after the warm-up and each pass
MIN_PASSES = 3            # measured passes per untraced run, whatever --seconds says
MIN_TRACED_PASSES = 2     # of each kind in a traced run, so counts can be compared
OP_TIME_LIMIT_S = 60.0    # an operation running longer fails as timed out
RUN_DEADLINE_S = 160.0    # no operation starts after this; runs must end within 180 s


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("series", "corpus"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 20260809)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the checkout's arborium, never an installed copy."""
    if not (SRC / "arborium" / "cli.py").is_file():
        sys.exit(f"error: no arborium sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import arborium.cli
    if Path(arborium.cli.__file__).resolve().parent != SRC / "arborium":
        sys.exit(f"error: imported arborium from {arborium.cli.__file__}")
    return arborium.cli


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# -- set-up time -----------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its being ready to run."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


# -- operations --------------------------------------------------------------------

class OpTimeout(BaseException):
    """Raised by the interval timer inside a late operation; not an Exception,
    so the program cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(cli, op, limit: float):
    """(latency s, exit code, stdout, error or None) of one main(argv) call."""
    out, err = io.StringIO(), io.StringIO()
    latency, code, error = 0.0, None, None
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            finally:
                latency = time.perf_counter() - start
    except SystemExit as exc:
        code = exc.code
    except OpTimeout:
        error = f"timed out after {limit:.0f} s"
    except Exception as exc:  # the operation failed; count it and go on
        error = f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return latency, code, out.getvalue(), error


def run_pass(cli, ops, deadline: float):
    """(wall seconds, per-op results) of one closed-loop pass."""
    results = []
    start = time.perf_counter()
    for op in ops:
        limit = min(OP_TIME_LIMIT_S, deadline - time.monotonic())
        if limit <= 0:
            results.append((0.0, None, "", "not started: run deadline reached"))
        else:
            results.append(run_op(cli, op, limit))
    return time.perf_counter() - start, results


class Judge:
    """Counts attempted and failed operations.

    The first output of each operation gets the full check; a later run of
    the same operation must print the same bytes with the same exit code.
    """

    def __init__(self, checker):
        self.checker = checker
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.run_failed = False

    def judge(self, ops, results, traced=False):
        from workloads import CheckFailed, digest
        for op, (_, code, stdout, error) in zip(ops, results):
            self.attempted += 1
            if error is None:
                ref = self.reference.get(op.key)
                if ref is None:
                    try:
                        self.checker.check(op, code, stdout)
                        verdict = None
                    except CheckFailed as exc:
                        verdict = str(exc)
                    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                        verdict = f"unreadable output: {exc!r}"
                    ref = self.reference[op.key] = (code, digest(stdout), verdict)
                if (code, digest(stdout)) != ref[:2]:
                    error = ("traced output differs from untraced" if traced
                             else "output differs from an earlier run")
                else:
                    error = ref[2]
            if error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{' '.join(op.argv)[:120]}: {error}")

    def fail_run(self, message):
        """A failure of the run itself rather than of one operation."""
        self.run_failed = True
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.run_failed


# -- statistics --------------------------------------------------------------------

def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def keep_going(passes: int, minimum: int, measured: float, seconds: float,
               deadline: float, last_pass: float) -> bool:
    """Whether to run another pass, given ``measured`` seconds of passes so far."""
    if time.monotonic() + 1.5 * last_pass > deadline:
        return False
    return passes < minimum or measured < seconds


def best_latencies(passes) -> list:
    """Each operation's fastest latency over the passes."""
    return [min(r[0] for r in op_results) for op_results in zip(*passes)]


def measure_untraced(cli, ops, judge, seconds, deadline, probe) -> dict:
    """End-to-end metrics; ``probe()`` times one fresh-process set-up."""
    wall, results = run_pass(cli, ops, deadline)  # warm-up, checked but not timed
    judge.judge(ops, results)
    setup = [probe() for _ in range(PROBES_PER_GAP)]
    walls, passes = [], []
    while keep_going(len(walls), MIN_PASSES, sum(walls), seconds, deadline, wall):
        wall, results = run_pass(cli, ops, deadline)
        judge.judge(ops, results)
        walls.append(wall)
        passes.append(results)
        setup += [probe() for _ in range(PROBES_PER_GAP)]
    if len(walls) < 2:
        judge.fail_run("fewer than two measured passes before the deadline")
        return {}
    best = best_latencies(passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(best),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1000 * statistics.median(best),
        "op_p90_ms": 1000 * percentile(best, 90),
        "passes": len(walls),
        "setup_probes": len(setup),
        "pass_median_s": statistics.median(walls),
        "pooled_p90_ms": 1000 * percentile([r[0] for p in passes for r in p], 90),
    }


def measure_traced(cli, ops, judge, seconds, deadline) -> dict:
    from tracing import PER_LAYER, Tracer
    tracer = Tracer()
    wall, results = run_pass(cli, ops, deadline)  # warm-up, untraced
    judge.judge(ops, results)
    plain, traced, snapshots = [], [], []
    measured = 0.0
    while keep_going(min(len(plain), len(traced)), MIN_TRACED_PASSES, measured, seconds,
                     deadline, 2 * wall):
        wall, results = run_pass(cli, ops, deadline)
        measured += wall
        judge.judge(ops, results)
        plain.append(results)
        tracer.install()
        try:
            tracer.reset()
            wall, results = run_pass(cli, ops, deadline)
            snap = tracer.snapshot()
        finally:
            tracer.uninstall()
        measured += wall
        snap["cli.output_bytes"] = sum(len(r[2].encode()) for r in results)
        judge.judge(ops, results, traced=True)
        traced.append(results)
        snapshots.append(snap)
    if len(traced) < MIN_TRACED_PASSES:
        judge.fail_run("fewer than two traced passes before the deadline")
        return {}
    metrics = {"trace.overhead": sum(best_latencies(traced)) / sum(best_latencies(plain))}
    for name, unit, *_ in PER_LAYER:
        if name in metrics:
            continue
        values = [s[name] for s in snapshots]
        if unit == "s":
            metrics[name] = min(values)
        else:
            if len(set(values)) != 1:
                judge.fail_run(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
    metrics["passes"] = len(traced)
    return metrics


# -- main ------------------------------------------------------------------------------

def main(argv=None) -> int:
    t0 = time.monotonic()
    deadline = t0 + RUN_DEADLINE_S
    args = parse_args(argv)
    cli = load_program()
    specs = load_metric_specs()
    import workloads
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    if not args.trace:
        probe_setup(args.workload, seed)  # fills the bytecode caches; not counted

    ops = workloads.build(args.workload, seed)
    checker = workloads.Checker(args.workload, workloads.load_pinned())
    judge = Judge(checker)
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.trace:
        measured = measure_traced(cli, ops, judge, args.seconds, deadline)
        wanted = specs["per_layer"]
    else:
        measured = measure_untraced(cli, ops, judge, args.seconds, deadline,
                                    lambda: probe_setup(args.workload, seed))
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = specs["end_to_end"]

    metrics = {}
    print(f"workload {args.workload}  seed {seed}  ops/pass {len(ops)}  "
          f"passes {measured.get('passes', 0)}  trace {args.trace}")
    for spec in wanted:
        value = measured.get(spec["name"])
        if value is None:
            judge.fail_run(f"metric {spec['name']} was not measured")
            continue
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<32s} {value:>14.6g} {spec['unit']}")
    if "setup_probes" in measured:
        print(f"  latencies are each operation's best of {measured['passes']} passes "
              f"({len(ops)} samples); median pass took {measured['pass_median_s']:.4g} s; "
              f"p90 pooled over all {measured['passes'] * len(ops)} latencies "
              f"{measured['pooled_p90_ms']:.4g} ms; setup_s is the median of "
              f"{measured['setup_probes']} probes")
    print(f"  {'error_rate':<32s} {judge.failed / max(1, judge.attempted):>14.6g} "
          f"failed/attempted ({judge.failed}/{judge.attempted})")
    if checker.unpinned:
        print(f"  note: {checker.unpinned} operations of seed {seed} have no pinned digest; "
              "they got the structural checks only")
    for error in judge.errors:
        print(f"  FAIL {error}")
    print(json.dumps({"correct": judge.correct, "attempted": judge.attempted,
                      "failed": judge.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
