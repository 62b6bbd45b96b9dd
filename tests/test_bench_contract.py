"""The benchmark's contract: every function and method the per-layer
metrics of perfbench/tracing.py name must still exist and be wrappable, and
every operation of both workloads at the default seed, and of `corpus` at
the held-out seed, must print exactly the output pinned in
perfbench/pinned.json.

A rename or an output drift would otherwise surface only in a benchmark
run.  These tests only read perfbench/.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HARNESS_METRICS = {"cli.output_bytes", "trace.overhead"}


def test_tracer_installs_and_snapshots(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    from arborium import algebra

    tracer = tracing.Tracer()
    tracer.install()  # raises CoverageError on an unwrapped binding
    try:
        tracer.reset()
        algebra.lagrange_interpolate([(0, 1), (1, 2)])
        snap = tracer.snapshot()  # raises CoverageError on a metric's missing function
    finally:
        tracer.uninstall()

    names = {name for name, *_ in tracing.PER_LAYER}
    assert set(snap) == names - HARNESS_METRICS
    assert snap["algebra.lagrange_calls"] == 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, *_ in tracing.PER_LAYER]
    assert not hasattr(algebra.lagrange_interpolate, "__wrapped__")  # uninstalled


@pytest.mark.parametrize("workload,seed", [("series", "DEFAULT_SEED"), ("corpus", "DEFAULT_SEED"),
                                           ("corpus", "HELD_OUT_SEED")],
                         ids=["series", "corpus", "corpus-held-out"])
def test_workload_outputs_match_pinned_digests(monkeypatch, capsys, workload, seed):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    from arborium import cli

    pinned = workloads.load_pinned()[workload]
    drifted = []
    for op in workloads.build(workload, getattr(workloads, seed)):
        code = cli.main(list(op.argv))
        if code != 0 or workloads.digest(capsys.readouterr().out) != pinned[op.key]:
            drifted.append(op.key)
    assert not drifted, f"output differs from perfbench/pinned.json: {drifted}"
