"""The benchmark's tracing contract: every function and method the per-layer
metrics of perfbench/tracing.py name must still exist and be wrappable.

A rename that breaks the contract would otherwise surface only in a traced
benchmark run.  This test only reads perfbench/.
"""

import json
from pathlib import Path

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
