"""Every name the benchmark's tracer wraps still exists.

``bench/tracing.py`` skips a name that no longer resolves and reports its
metrics as absent, so a refactor that deletes or renames one passes every
other test and only shows in a traced benchmark run. This test installs the
tracer as a traced run does, reads which names it found absent, and removes
it again; it reads ``bench/`` and changes nothing there.
"""

import importlib.util
import json
from pathlib import Path

import dpsco.empirics
import dpsco.geometry

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = dpsco.geometry.project, dict(dpsco.empirics.ALGORITHMS)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (dpsco.geometry.project, dict(dpsco.empirics.ALGORITHMS)) == before
    assert tracer.absent == []
    metrics, absent = tracer.totals()
    assert absent == []
    # the per-layer metrics the benchmark declares, beside the trace.* ones
    # that bench/run.py adds from its own timings
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - {"trace.wall_s", "trace.overhead_frac", "trace.coverage"} <= set(metrics)
