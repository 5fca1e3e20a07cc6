"""Self-test of the benchmark: seeded inputs, span nesting, per-layer names.

Run with `python3 -m pytest perfbench/selftest.py`. The file is named
outside the test_*.py pattern, so the repository's test run does not collect
it. The per-layer test shrinks each workload's sizes (same operation mix,
same code path) so it stays quick.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import run  # noqa: E402
from spans import Tracer, check_nesting, self_times  # noqa: E402

SMALL = dict(n=60, sub=60, mc_rows=80, draws=8, dmr_reps=1, grid=2, budget=3,
             exp_reps=2, gp=(30, 10), cli_rows=60, reps={})


def input_arrays(inp):
    return [inp.X, inp.y, inp.Xp, inp.yp, inp.X_test, inp.y_test, inp.X_dmr, inp.counts.counts,
            inp.X_mc, inp.y_mc, inp.X_gp, inp.y_gp, inp.X_gp_test, inp.gp_labels.counts]


@pytest.fixture
def shrunk(monkeypatch):
    for name, spec in bench.SPECS.items():
        monkeypatch.setitem(bench.SPECS, name, dict(spec, **SMALL))


def run_rounds(workload, seed, workdir, traced=True):
    os.makedirs(workdir, exist_ok=True)
    inp = bench.Inputs(workload, seed, ROOT, str(workdir))
    inp.write_csv()
    wl = bench.Workload(inp, bench.Recorder(), {})
    wl.round(warmup=True)
    wl.verify_reference()
    tracer = Tracer() if traced else None
    wl.rec = bench.Recorder()
    wl.round(tracer)
    return inp, wl, tracer


def test_same_seed_same_inputs_and_counts(shrunk, tmp_path):
    a, wa, _ = run_rounds("small_n", 5, tmp_path / "a", traced=False)
    b, wb, _ = run_rounds("small_n", 5, tmp_path / "b", traced=False)
    for x, y in zip(input_arrays(a), input_arrays(b)):
        assert np.array_equal(x, y)
    assert wa.rec.outcomes == wb.rec.outcomes
    assert wa.rec.attempted == wb.rec.attempted
    assert {k: len(v) for k, v in wa.rec.samples.items()} == {k: len(v) for k, v in wb.rec.samples.items()}


def test_different_seeds_different_inputs(tmp_path):
    a = bench.Inputs("small_n", 5, ROOT, str(tmp_path))
    b = bench.Inputs("small_n", 6, ROOT, str(tmp_path))
    for x, y in zip(input_arrays(a), input_arrays(b)):
        assert not np.array_equal(x, y)


@pytest.mark.parametrize("workload", sorted(bench.SPECS))
def test_traced_round_emits_every_layer_metric(shrunk, tmp_path, workload):
    inp, wl, tracer = run_rounds(workload, 3, tmp_path)
    assert not wl.rec.check_failures
    assert check_nesting(tracer.spans) == []
    assert all(t >= 0 for t in self_times(tracer.spans).values())
    names = set(run.layer_metrics(tracer.spans, wl.rec, inp, 0.01))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    overhead = {f"trace_overhead.{m}" for m in run.TIMED}
    assert names | overhead | {"fit_p99_ms", *run.UNGATED} == {m["name"] for m in declared["per_layer"]}
    gated = set(run.TIMED) - set(run.UNGATED)
    assert gated | {"setup_s", "peak_rss_mb", "success_rate"} == {m["name"] for m in declared["end_to_end"]}
