"""Tests of the benchmark itself: its output checks, tracing and contract.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return worker.load_api()


@pytest.fixture
def ctx(tmp_path):
    return types.SimpleNamespace(out_dir=str(tmp_path))


def fuzz_inputs():
    return WORKLOADS["engine-fuzz"].inputs(DEFAULT_SEED)


def test_matching_expectation_passes_and_a_wrong_one_fails(api, ctx):
    wl = WORKLOADS["engine-fuzz"]
    inputs = fuzz_inputs()
    worker.run_warmup(wl, api, ctx)
    good = worker.measure(wl, api, inputs, 2.0, None, ctx)["loop"]
    assert good.attempted > len(inputs) and good.failed == 0
    expected = [good.digests[i] for i in range(len(inputs))]

    assert worker.measure(wl, api, inputs, 2.0, expected, ctx)["loop"].failed == 0
    expected[3] = "0" * 16
    bad = worker.measure(wl, api, inputs, 2.0, expected, ctx)["loop"]
    assert bad.failed >= 1 and bad.failed / bad.attempted > 0
    assert "input 3" in bad.errors[0]


def test_checks_reject_wrong_outputs(api, ctx):
    fuzz = WORKLOADS["engine-fuzz"]
    batch = fuzz_inputs()[0]
    results = fuzz.run(api, batch, ctx)
    assert len(results) == fuzz.batch
    assert fuzz.check(api, batch, results)[1] is None
    sparse, oracle = results[5]
    results[5] = (sparse, tuple((-r, x, z) for r, x, z in oracle))
    assert "case 5" in fuzz.check(api, batch, results)[1]

    pf = WORKLOADS["pathfind"]
    key = pf.inputs(DEFAULT_SEED)[0]
    lat, state, sustained = pf.run(api, key, ctx)
    assert pf.check(api, key, (lat, state, sustained))[1] is None
    assert pf.check(api, key, (lat, state, sustained - 1))[1] is not None
    path = state.paths[0]
    state.paths[0] = path[:5] + path[6:]  # skip a node: a hop that is no edge
    assert pf.check(api, key, (lat, state, sustained))[1] is not None


def test_default_seed_matches_recorded_outputs(api, ctx):
    for name in ("loss-sweep", "mux-yield", "engine-fuzz"):
        wl = WORKLOADS[name]
        expected = worker.load_expected(name, DEFAULT_SEED)
        assert expected is not None and len(expected) == wl.pool
        loop = worker.Loop(wl, api, wl.inputs(DEFAULT_SEED), expected, ctx)
        for idx in range(3):
            loop.op(idx)
        assert loop.failed == 0, loop.errors


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(api, ctx, name):
    wl = WORKLOADS[name]
    loop = worker.Loop(wl, api, wl.inputs(5), None, ctx, spans.Tracer())
    loop.op(0, traced=False)
    untraced = loop.digests[0]
    loop.op(0, traced=True)
    assert loop.attempted == 2 and loop.failed == 0, loop.errors
    assert loop.digests[0] == untraced
    assert len(loop.tracer.start) >= 2  # the op span and at least one layer


@pytest.mark.parametrize("name", ["mux-yield", "engine-fuzz"])
def test_span_self_times_sum_to_wall_time(api, ctx, name):
    wl = WORKLOADS[name]
    tracer = spans.Tracer()
    loop = worker.Loop(wl, api, wl.inputs(1), None, ctx, tracer)
    wall_ns = sum(loop.op(i, traced=True) for i in range(4))
    assert loop.failed == 0, loop.errors

    self_ns = tracer.span_self_ns()
    assert len(self_ns) > 4 and min(self_ns) >= 0
    roots = [s for s, p in enumerate(tracer.parent) if p < 0]
    assert [tracer.names[tracer.name_id[s]] for s in roots] == [spans.ROOT] * 4
    unspanned = wall_ns - tracer.root_ns()
    assert unspanned >= 0
    assert sum(self_ns) + unspanned == wall_ns
    calls, by_name = tracer.self_times()
    assert sum(by_name.values()) == sum(self_ns)
    assert calls[spans.ROOT] == 4


def test_tracer_restores_every_target(api):
    def current(where, attr):
        return spans.resolve(api.ballistic, where).__dict__[attr]

    tracer = spans.Tracer()
    before = {(w, a): current(w, a) for _n, w, a in spans.TARGETS}
    tracer.install(api.ballistic)
    assert all(current(w, a) is not f for (w, a), f in before.items())
    tracer.uninstall()
    assert all(current(w, a) is f for (w, a), f in before.items())


def test_metrics_match_benchmark_json(api, ctx):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wl = WORKLOADS["engine-fuzz"]
    plain = worker.measure(wl, api, fuzz_inputs(), 0.1, None, ctx)["metrics"]
    assert set(plain) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
    traced = worker.measure_traced(wl, api, fuzz_inputs(), 0.1, None, ctx)["metrics"]
    assert set(traced) == {m["name"] for m in spec["per_layer"]}
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_warmup_builds_the_cz_table_in_a_fresh_process():
    code = (
        "import sys, types; sys.path.insert(0, 'perfbench'); import worker\n"
        "from workloads import WORKLOADS\n"
        "api = worker.load_api()\n"
        "assert api.graphstate._CZ_TABLES is None\n"
        "worker.run_warmup(WORKLOADS['engine-fuzz'], api, types.SimpleNamespace(out_dir=None))\n"
        "print(api.graphstate._CZ_TABLES is not None)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_tail_leaves_ten_samples_beyond():
    assert worker.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_host_speed_scaling():
    nominal = hostspeed.NOMINAL_S
    # A host at half the nominal speed halves every op's time.
    assert hostspeed.op_factors([2 * nominal] * 5, 4) == [0.5] * 4
    # One disturbed kernel sample moves no op.
    refs = [nominal, nominal, 5 * nominal, nominal, nominal, nominal]
    assert hostspeed.op_factors(refs, 5) == [1.0] * 5
    assert hostspeed.kernel() == hostspeed.kernel()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__")
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loss-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
