"""Experiment harness: config handling, runs, figures, exit codes."""

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ballistic import cli
from ballistic.cli import (
    CONFIG_VERSION,
    MAX_MUX_BINS,
    MAX_SQUARE_SIDE,
    MAX_TELEPORT_DRAWS,
    MAX_THREADS,
    MAX_WAFER_CELLS,
    SCENARIOS,
    config_hash,
    emit_figure_data,
    main,
    read_results,
    run_experiment,
    validate_config,
)
from ballistic.errors import CapacityError, SpecError
from ballistic.rng import trial_rng

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIGURE_GOLDEN = json.loads((GOLDEN / "figures.json").read_text())
SCENARIO_GOLDEN = json.loads((GOLDEN / "scenarios.json").read_text())


def good_config(**over):
    cfg = {
        "version": CONFIG_VERSION,
        "scenario": "wafer-span",
        "seed": 7,
        "trials": 3,
        "params": {"nx": 4, "ny": 2, "nz": 6},
    }
    cfg.update(over)
    return cfg


def test_validate_config_fills_defaults():
    cfg = validate_config(good_config())
    assert cfg["params"]["fusion_kind"] == "BoostedTypeII"
    assert cfg["params"]["nx"] == 4
    assert cfg["threads"] == 1


def test_validate_config_accepts_range_ends():
    assert validate_config(good_config(seed=0))["seed"] == 0
    assert validate_config(good_config(seed=2**64 - 1))["seed"] == 2**64 - 1
    assert validate_config(good_config(threads=MAX_THREADS))["threads"] == MAX_THREADS
    # each size cap is inclusive
    at_cap = [
        ("threshold-scan", {"n": MAX_SQUARE_SIDE}),
        ("wafer-span", {"nx": MAX_WAFER_CELLS // 4, "ny": 2, "nz": 2}),
        ("loss-sweep", {"nx": 1, "ny": 1, "nz": MAX_WAFER_CELLS}),
        ("mux-yield", {"bins": MAX_MUX_BINS}),
        ("crazy-teleport",
         {"batch": MAX_TELEPORT_DRAWS // 2, "columns": 2, "column_size": 1}),
    ]
    for scenario, params in at_cap:
        cfg = validate_config(good_config(scenario=scenario, params=params))
        assert cfg["params"] == dict(SCENARIOS[scenario]["defaults"], **params)


def test_validate_config_rejections():
    with pytest.raises(SpecError):
        validate_config([])
    for version in (99, True, 1.0):
        with pytest.raises(SpecError, match="unsupported config version"):
            validate_config(good_config(version=version))
    with pytest.raises(SpecError):
        validate_config(good_config(scenario="nope"))
    with pytest.raises(SpecError):
        validate_config(good_config(params={"bogus": 1}))
    with pytest.raises(SpecError):
        validate_config(good_config(trials=0))
    # list-valued parameters must stay lists
    with pytest.raises(SpecError):
        validate_config(
            {
                "version": CONFIG_VERSION,
                "scenario": "mux-yield",
                "params": {"s_values": 3},
            }
        )


def run_exit_and_output(tmp_path, scenario, overrides, *flags):
    """Exit code of `ballistic run` on a one-trial config, and whether its
    output directory exists afterwards."""
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg_path.write_text(json.dumps({
        "version": CONFIG_VERSION,
        "scenario": scenario,
        "trials": 1,
        "out": str(out),
        **overrides,
    }))
    return main(["run", str(cfg_path), *flags]), out.exists()


@pytest.mark.parametrize(
    "params",
    [
        {"s_values": [-1]},
        {"s_values": [2.5]},
        {"s_values": [21]},
        {"s_values": [True]},
        {"bins": 0},
        {"bins": 2.5},
        {"bins": "2000"},
        {"p": 1.5},
        {"p": -0.1},
        {"p": "0.2"},
        {"p": True},
    ],
)
def test_bad_mux_yield_params_exit_2_before_output(tmp_path, params):
    assert run_exit_and_output(tmp_path, "mux-yield", {"params": params}) == (2, False)


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        ("wafer-span", {"params": {"nx": "abc"}}),
        ("wafer-span", {"params": {"nx": 4.0}}),
        ("wafer-span", {"trials": "x"}),
        ("wafer-span", {"seed": 1.5}),
        ("wafer-span", {"threads": 0}),
        ("wafer-span", {"params": {"photon_loss": 1.5}}),
        ("wafer-span", {"params": {"filter_enabled": 1}}),
        ("wafer-span", {"params": {"fusion_kind": "nope"}}),
        ("loss-sweep", {"params": {"loss_values": [0.01, 1.5]}}),
        ("loss-sweep", {"params": {"loss_values": []}}),
        ("crazy-teleport", {"params": {"column_size": 0}}),
        ("crazy-teleport", {"params": {"batch": 0}}),
        ("threshold-scan", {"params": {"n": 1}}),
        ("wafer-span", {"trails": 5}),
        ("loss-sweep", {"params": {"photon_loss": 0.5}}),
        ("threshold-scan", {"params": {"p_values": [0.5, 1.5]}}),
        ("threshold-scan", {"params": {"p_values": [-0.1]}}),
        # validation fails before any pool exists, so no process starts
        ("wafer-span", {"threads": 10**6}),
        ("wafer-span", {"seed": -1}),
        ("wafer-span", {"seed": 2**64}),
        ("mux-yield", {"params": {"s_values": [1, 1]}}),
        # one past a size cap, and sizes that would exhaust memory mid-run
        ("wafer-span", {"params": {"nx": MAX_WAFER_CELLS + 1, "ny": 1, "nz": 1}}),
        ("wafer-span", {"params": {"nx": 100000, "ny": 100000, "nz": 100000}}),
        ("loss-sweep", {"params": {"nx": 2048, "ny": 2048, "nz": 2}}),
        ("mux-yield", {"params": {"bins": MAX_MUX_BINS + 1}}),
        ("mux-yield", {"params": {"bins": 10**12}}),
        ("threshold-scan", {"params": {"n": MAX_SQUARE_SIDE + 1}}),
        ("threshold-scan", {"params": {"n": 10**6}}),
        # the default 50 columns of 3
        ("crazy-teleport", {"params": {"batch": MAX_TELEPORT_DRAWS // 150 + 1}}),
        ("crazy-teleport", {"params": {"batch": 10**9}}),
        # success_prob alone sets the outcomes, so only the default kind runs
        ("wafer-span", {"params": {"fusion_kind": "TypeII"}}),
        ("wafer-span", {"params": {"fusion_kind": "TypeI"}}),
        ("loss-sweep", {"params": {"fusion_kind": "TypeII"}}),
        # a disabled filter would ignore its fidelity
        ("wafer-span", {"params": {"filter_fidelity": 0.5}}),
        ("loss-sweep", {"params": {"filter_fidelity": 0.5}}),
        # True and 1.0 compare equal to 1 but are not the int config version
        ("wafer-span", {"version": True}),
        ("wafer-span", {"version": 1.0}),
    ],
)
def test_bad_config_exit_2_before_output(tmp_path, scenario, overrides):
    assert run_exit_and_output(tmp_path, scenario, overrides) == (2, False)


def test_size_cap_message_names_the_cap(tmp_path, capsys):
    code, out_exists = run_exit_and_output(
        tmp_path, "threshold-scan", {"params": {"n": 10**6}}
    )
    assert (code, out_exists) == (2, False)
    assert capsys.readouterr().err == (
        f"config error: threshold-scan n must be <= {MAX_SQUARE_SIDE}, "
        "got 1000000\n"
    )


def test_fusion_kind_message_says_vary_success_prob(tmp_path, capsys):
    code, out_exists = run_exit_and_output(
        tmp_path, "wafer-span", {"params": {"fusion_kind": "TypeII"}}
    )
    assert (code, out_exists) == (2, False)
    assert capsys.readouterr().err == (
        "config error: fusion_kind must stay 'BoostedTypeII', got 'TypeII'; "
        "vary success_prob instead\n"
    )


def test_threshold_scan_check_builds_no_lattice():
    # n is range-checked as a number, without allocating the n * n lattice
    cfg = good_config(scenario="threshold-scan", params={"n": 1024})
    tracemalloc.start()
    try:
        validate_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_bad_run_flag_exit_2_before_output(tmp_path):
    assert run_exit_and_output(tmp_path, "wafer-span", {}, "--trials", "0") == (2, False)
    assert run_exit_and_output(tmp_path, "wafer-span", {}, "--threads", "0") == (2, False)


def test_other_package_error_exits_4_without_traceback(
    tmp_path, monkeypatch, capsys
):
    def trial(params, rng):
        raise CapacityError("lattice too large")

    monkeypatch.setitem(SCENARIOS["wafer-span"], "trial", trial)
    code, out_exists = run_exit_and_output(
        tmp_path, "wafer-span", {"threads": 1}
    )
    err = capsys.readouterr().err
    assert code == 4
    assert err == "error: CapacityError: lattice too large\n"
    assert "Traceback" not in err
    assert not out_exists


def test_config_hash_ignores_execution_details():
    a = validate_config(good_config())
    b = validate_config(good_config(threads=8, out="elsewhere"))
    assert config_hash(a) == config_hash(b)
    c = validate_config(good_config(seed=8))
    assert config_hash(a) != config_hash(c)


def test_run_outputs_are_reproducible(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        cfg = validate_config(good_config(out=str(tmp_path / sub)))
        paths = run_experiment(cfg)
        assert os.path.exists(paths["summary"])
        assert os.path.exists(paths["meta"])
        with open(paths["results"], "rb") as f:
            blobs.append(f.read())
    assert blobs[0] == blobs[1]
    header, *records = read_results(str(tmp_path / "a" / "results.jsonl"))
    assert header["config"]["scenario"] == "wafer-span"
    assert [r["trial"] for r in records] == [0, 1, 2]
    assert all(set(r["metrics"]) == {"span", "span_punched", "largest_fraction"}
               for r in records)


def test_lattice_runs_leave_scipy_sparse_unloaded(tmp_path):
    """Two default trials each of loss-sweep and wafer-span, in one fresh
    process at one thread, label their lattices without loading scipy.sparse."""
    code = (
        "import sys\n"
        "from ballistic import cli\n"
        "for scenario in ('loss-sweep', 'wafer-span'):\n"
        "    cli.run_experiment(cli.validate_config({'version': cli.CONFIG_VERSION,"
        " 'scenario': scenario, 'trials': 2, 'threads': 1,"
        " 'out': sys.argv[1] + '/' + scenario}))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        cwd=pathlib.Path(cli.__file__).parents[1],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
    assert (tmp_path / "wafer-span" / "results.jsonl").exists()


def test_short_pool_run_reaches_every_worker(tmp_path, monkeypatch):
    """A 4-trial run at two workers runs its trials in two processes.

    Each trial waits for a trial in another worker to reach the barrier, so
    a run whose trials all go to one worker times out there.  The workers
    are forked, so they see the patched registry and share the barrier."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched trial reaches forked workers only")
    barrier = multiprocessing.Barrier(2, timeout=10)

    def trial(params, rng):
        barrier.wait()
        return {"pid": os.getpid()}

    monkeypatch.setitem(SCENARIOS["wafer-span"], "trial", trial)
    cfg = validate_config(good_config(trials=4, threads=2, out=str(tmp_path)))
    _, *records = read_results(run_experiment(cfg)["results"])
    assert len({r["metrics"]["pid"] for r in records}) == 2


def test_failed_write_leaves_old_outputs(tmp_path, monkeypatch):
    """A run that fails while writing leaves a reused output directory's
    files as they were, and no temporary file."""
    out = tmp_path / "out"
    run_experiment(validate_config(good_config(out=str(out))))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"results.jsonl", "summary.csv", "run_meta.json"}

    def fail(fileobj, rows):
        fileobj.write("metric,mean\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_summary", fail)
    with pytest.raises(SpecError, match="disk full"):
        run_experiment(validate_config(good_config(seed=8, out=str(out))))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_figure_write_leaves_old_figure(tmp_path, monkeypatch):
    """A figure whose SVG cannot be written leaves the CSV and SVG of an
    earlier figure in the same directory as they were, and no temporary
    file."""
    out = tmp_path / "fig"
    results = []
    for seed in (3, 4):
        cfg = good_config(
            scenario="mux-yield", seed=seed, trials=2, out=str(tmp_path / f"run{seed}"),
            params={"bins": 200, "s_values": [0, 1, 2]},
        )
        results.append(run_experiment(validate_config(cfg))["results"])
    emit_figure_data(results[0], "fig4-yields", str(out))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"fig4-yields.csv", "fig4-yields.svg"}

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "svg_line_chart", fail)
    with pytest.raises(SpecError, match="cannot write figure files.*disk full"):
        emit_figure_data(results[1], "fig4-yields", str(out))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_cli_run_and_figure_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "version": CONFIG_VERSION,
        "scenario": "mux-yield",
        "trials": 4,
        "params": {"bins": 200, "s_values": [0, 1, 2]},
    }))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--seed", "3", "--out", str(out)]) == 0
    assert main(["figure", str(out / "results.jsonl"), "fig4-yields"]) == 0
    assert (out / "fig4-yields.csv").exists()
    assert (out / "fig4-yields.svg").exists()
    header = (out / "fig4-yields.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "S"
    # the mux-law view reads the same results file
    assert main(["figure", str(out / "results.jsonl"), "mux-law"]) == 0


def test_cli_error_exit_codes(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    for scenario in ("nope", ["wafer-span"], {}):
        unknown.write_text(json.dumps(good_config(scenario=scenario)))
        assert main(["run", str(unknown)]) == 2


def test_bad_output_path_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    """An empty `out`, or an output path naming or below a file, is a
    config error for `run` and `figure` alike, reported in one line; `run`
    reports an `out` that is a file before any trial runs."""
    assert run_exit_and_output(tmp_path, "wafer-span", {"out": ""}) == (2, False)
    assert capsys.readouterr().err == (
        "config error: out must name a directory, got an empty string\n"
    )
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg_path = tmp_path / "mux.json"
    cfg_path.write_text(json.dumps({
        "version": CONFIG_VERSION,
        "scenario": "mux-yield",
        "trials": 1,
        "params": {"bins": 200, "s_values": [0, 1]},
        "out": str(tmp_path / "run"),
    }))
    assert main(["run", str(cfg_path)]) == 0
    results = str(tmp_path / "run" / "results.jsonl")
    capsys.readouterr()
    # below a file, `out` does not exist yet and fails only when written
    assert main(["run", str(cfg_path), "--out", str(blocker / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write outputs") and err.count("\n") == 1

    def no_trial(params, rng):
        raise AssertionError("a trial ran")

    monkeypatch.setitem(SCENARIOS["mux-yield"], "trial", no_trial)
    assert main(["run", str(cfg_path), "--out", str(blocker)]) == 2
    assert main(["figure", results, "fig4-yields", "--out", str(blocker)]) == 2
    assert main(["figure", results, "fig4-yields", "--out", str(blocker / "fig")]) == 2
    errs = capsys.readouterr().err.splitlines()
    assert len(errs) == 3
    assert errs[0] == errs[1] == (
        f"config error: out {str(blocker)!r} exists and is not a directory"
    )
    assert errs[2].startswith("config error: cannot write figure files")
    assert blocker.read_text() == ""


def test_cli_unknown_figure_id(tmp_path):
    cfg = validate_config(good_config(out=str(tmp_path)))
    run_experiment(cfg)
    results = str(tmp_path / "results.jsonl")
    assert main(["figure", results, "not-a-figure"]) == 2


def test_read_results_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(SpecError, match="is empty"):
        list(read_results(str(empty)))
    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"trial": 0}\n')
    with pytest.raises(SpecError, match="no config header"):
        list(read_results(str(headerless)))
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text('{"config": {}}\n\n{"metrics": \n')
    with pytest.raises(SpecError, match=r"garbled\.jsonl line 3 is not JSON"):
        list(read_results(str(garbled)))
    metricless = tmp_path / "metricless.jsonl"
    metricless.write_text('{"config": {}}\n{"trial": 0}\n')
    with pytest.raises(SpecError, match="without metrics"):
        list(read_results(str(metricless)))
    recordless = tmp_path / "recordless.jsonl"
    recordless.write_text('{"config": {}}\n\n')
    with pytest.raises(SpecError, match="contains no trial records"):
        list(read_results(str(recordless)))
    binary = tmp_path / "binary.jsonl"
    binary.write_bytes(b'{"config": {}}\n\xff\xfe\n')
    with pytest.raises(SpecError, match=r"cannot read results .*binary\.jsonl"):
        list(read_results(str(binary)))


def test_read_results_streams(tmp_path):
    """The reader yields each line's record before it reads the next, so
    the records ahead of a malformed line come out before its error."""
    path = tmp_path / "results.jsonl"
    path.write_text('{"config": {}}\n{"metrics": {"a": 1}}\n{not json\n')
    records = read_results(str(path))
    assert next(records) == {"config": {}}
    assert next(records) == {"metrics": {"a": 1}}
    with pytest.raises(SpecError, match="line 3 is not JSON"):
        next(records)


def test_figure_values_are_summary_means(tmp_path):
    """A figure's values are the `mean` column of its run's summary.csv."""
    cfg = validate_config(good_config(
        scenario="mux-yield", trials=5, out=str(tmp_path),
        params={"bins": 64, "s_values": [0, 2, 3]},
    ))
    paths = run_experiment(cfg)
    with open(paths["summary"]) as f:
        means = {row["metric"]: row["mean"] for row in csv.DictReader(f)}
    figure = emit_figure_data(paths["results"], "fig4-yields", str(tmp_path))
    with open(figure["csv"]) as f:
        rows = list(csv.DictReader(f))
    assert [row["S"] for row in rows] == ["0", "2", "3"]
    for row in rows:
        for col in ("standard", "sliding", "matching"):
            assert row[col] == means[f"{col}_yield_S{row['S']}"]


def test_figure_on_malformed_results_exits_2_without_traceback(tmp_path, capsys):
    cfg = validate_config(good_config(
        scenario="mux-yield", trials=2, out=str(tmp_path),
        params={"bins": 200, "s_values": [0, 1]},
    ))
    results = pathlib.Path(run_experiment(cfg)["results"])
    header, *records = results.read_text().splitlines()
    trimmed = []
    for line in records:
        rec = json.loads(line)
        del rec["metrics"]["block_success_S1"]
        trimmed.append(json.dumps(rec))
    results.write_text("\n".join([header, *trimmed]) + "\n")
    assert main(["figure", str(results), "fig4-yields"]) == 0
    assert main(["figure", str(results), "mux-law"]) == 2
    err = capsys.readouterr().err
    assert "'block_success_S1'" in err and "Traceback" not in err
    # a metric one record lacks is left out, whichever record holds it
    results.write_text("\n".join([header, records[0], trimmed[1]]) + "\n")
    assert main(["figure", str(results), "mux-law"]) == 2
    err = capsys.readouterr().err
    assert "has no 'block_success_S1'" in err and "Traceback" not in err
    # and a value that is not a number is rejected even so
    rec = json.loads(records[0])
    rec["metrics"]["block_success_S1"] = "high"
    results.write_text("\n".join([header, json.dumps(rec), trimmed[1]]) + "\n")
    assert main(["figure", str(results), "fig4-yields"]) == 2
    err = capsys.readouterr().err
    assert "non-numeric 'block_success_S1'" in err and "Traceback" not in err
    results.write_text(header + "\n{not json\n")
    assert main(["figure", str(results), "mux-law"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "Traceback" not in err
    no_s = json.loads(header)
    no_s["config"]["params"]["s_values"] = []
    results.write_text("\n".join([json.dumps(no_s), *trimmed]) + "\n")
    assert main(["figure", str(results), "fig4-yields"]) == 2
    assert capsys.readouterr().err == (
        "config error: parameter 's_values' must be a non-empty list, got []\n"
    )
    # true passes == 1, but is no config version
    bool_version = json.loads(header)
    bool_version["config"]["version"] = True
    results.write_text("\n".join([json.dumps(bool_version), *trimmed]) + "\n")
    assert main(["figure", str(results), "fig4-yields"]) == 2
    assert capsys.readouterr().err == (
        "config error: unsupported config version True (expected 1)\n"
    )
    rec = json.loads(trimmed[0])
    rec["metrics"]["standard_yield_S0"] = "high"
    results.write_text("\n".join([header, json.dumps(rec), *trimmed[1:]]) + "\n")
    assert main(["figure", str(results), "fig4-yields"]) == 2
    err = capsys.readouterr().err
    assert "non-numeric 'standard_yield_S0'" in err and "Traceback" not in err
    assert err.count("\n") == 1
    # a threshold-scan header whose p_values are not a list of numbers
    scan = tmp_path / "scan.jsonl"
    for p_values, want in (
        (["a"], "parameter 'p_values' element must be float, got 'a'"),
        (0.5, "parameter 'p_values' must be a non-empty list, got 0.5"),
    ):
        scan.write_text(
            json.dumps({"config": {
                "version": CONFIG_VERSION, "scenario": "threshold-scan",
                "seed": 0, "trials": 1, "params": {"n": 8, "p_values": p_values},
            }})
            + '\n{"trial": 0, "metrics": {"cross_0": 1.0}}\n'
        )
        assert main(["figure", str(scan), "threshold-scan"]) == 2
        assert capsys.readouterr().err == f"config error: {want}\n"


def test_figure_on_metric_too_large_for_a_float_exits_2(tmp_path, capsys):
    cfg = validate_config(good_config(
        scenario="mux-yield", trials=2, out=str(tmp_path),
        params={"bins": 200, "s_values": [0, 1]},
    ))
    results = pathlib.Path(run_experiment(cfg)["results"])
    header, first, *rest = results.read_text().splitlines()
    rec = json.loads(first)
    rec["metrics"]["collisions_S1"] = 10**400
    results.write_text("\n".join([header, json.dumps(rec), *rest]) + "\n")
    assert main(["figure", str(results), "fig4-yields"]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: results file {results} has a 'collisions_S1' too large for a float\n"
    )


def test_emit_figure_requires_matching_scenario(tmp_path):
    cfg = validate_config(good_config(out=str(tmp_path)))
    run_experiment(cfg)
    with pytest.raises(SpecError):
        emit_figure_data(str(tmp_path / "results.jsonl"), "fig4-yields", str(tmp_path))


def figure_digests(out_dir, figure_id, config):
    """sha256 of the CSV and SVG that `figure_id` makes from a seeded run."""
    cfg = validate_config(dict(config, version=CONFIG_VERSION, out=str(out_dir)))
    results = run_experiment(cfg)["results"]
    paths = emit_figure_data(results, figure_id, str(out_dir))
    return {
        kind: hashlib.sha256(pathlib.Path(paths[kind]).read_bytes()).hexdigest()
        for kind in ("csv", "svg")
    }


@pytest.mark.parametrize("figure_id", sorted(FIGURE_GOLDEN))
def test_figure_golden(tmp_path, figure_id):
    golden = FIGURE_GOLDEN[figure_id]
    got = figure_digests(tmp_path, figure_id, golden["config"])
    assert got == {"csv": golden["csv"], "svg": golden["svg"]}


def scenario_digest(out_dir, config):
    """sha256 of a seeded run's results.jsonl followed by its summary.csv."""
    cfg = validate_config(dict(config, version=CONFIG_VERSION, out=str(out_dir)))
    paths = run_experiment(cfg)
    digest = hashlib.sha256()
    for key in ("results", "summary"):
        digest.update(pathlib.Path(paths[key]).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(SCENARIO_GOLDEN))
def test_scenario_golden(tmp_path, case):
    """The determinism-covered outputs of each scenario at its defaults and
    at the edge parameters where a draw's outcome is fixed (p 0 or 1) or a
    tie coin decides it (z_flip > 0) stay byte-identical."""
    golden = SCENARIO_GOLDEN[case]
    assert scenario_digest(tmp_path, golden["config"]) == golden["sha256"]


def per_column_summary(columns: dict) -> str:
    """summary.csv as numpy reduces each metric's column on its own."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["metric", "mean", "std", "stderr", "count"])
    for key, vals in sorted(columns.items()):
        mean = vals.mean()
        std = vals.std(ddof=1) if len(vals) > 1 else 0.0
        stderr = std / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
        writer.writerow(
            [key, f"{mean:.10g}", f"{std:.10g}", f"{stderr:.10g}", len(vals)]
        )
    return out.getvalue()


def test_summary_matches_per_column_reference():
    """The summary reduces all columns in one (metrics x trials) array, and
    its bytes equal the per-column reductions': with no metric, one trial,
    and up to 35 columns of 2 to 10^5 trials holding yields, 0/1 flags,
    counts, constants and values from 1e-100 to 1e100 off zero."""
    rng = np.random.default_rng(38)
    kinds = [
        lambda n: rng.random(n),
        lambda n: (rng.random(n) < rng.random()).astype(float),
        lambda n: rng.integers(0, 1000, n).astype(float),
        lambda n: np.full(n, rng.normal()),
        lambda n: rng.normal(*10.0 ** rng.integers(-100, 101, 2), n),
    ]
    cases = [{}]
    for n in (1, 2, 3, 10, 257, 4096, 10**5):
        for _ in range(3):
            picks = rng.integers(0, len(kinds), int(rng.integers(1, 36)))
            cases.append({f"m{j:02d}": kinds[k](n) for j, k in enumerate(picks)})
    for columns in cases:
        out = io.StringIO()
        cli._write_summary(out, columns)
        assert out.getvalue() == per_column_summary(columns)


def test_cli_verify_single_fast_criterion(capsys):
    assert main(["verify", "--criteria", "13"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] 13" in out


@pytest.mark.parametrize("criteria", ["abc", "99", "0", "1,99", "3,", "-1"])
def test_cli_verify_rejects_unknown_criteria(capsys, criteria):
    assert main(["verify", "--criteria", criteria]) == 2
    err = capsys.readouterr().err
    assert "from 1 to 17" in err


# -- the run contract over the scenario registry -----------------------------

# Small parameters at which each default key can show: loss-sweep's lattice
# spans in some trials and not in others, so its 0/1 metrics are not pinned.
WALK_BASE = {
    "mux-yield": {"bins": 200, "s_values": [0, 1, 2]},
    "wafer-span": {"nx": 4, "ny": 2, "nz": 6},
    "crazy-teleport": {"columns": 6, "column_size": 2, "loss_values": [0.1, 0.3],
                       "batch": 50},
    "loss-sweep": {"nx": 4, "ny": 2, "nz": 6, "loss_values": [0.03, 0.06]},
    "threshold-scan": {"n": 12, "p_values": [0.4, 0.6]},
}


def perturbed(value):
    """Another value of the default's type: a flag flipped, an int one up, a
    probability halfway to the far end of [0, 1], another fusion kind, or a
    list with its last element perturbed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value > 0.5 else (value + 1) / 2
    if isinstance(value, str):
        return "TypeII" if value != "TypeII" else "BoostedTypeII"
    return value[:-1] + [perturbed(value[-1])]


def trial_metrics(scenario, params, trials=6, seed=5):
    cfg = validate_config({"version": CONFIG_VERSION, "scenario": scenario,
                           "seed": seed, "trials": trials, "params": params})
    return [cli._run_trial(scenario, cfg["params"], seed, t) for t in range(trials)]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_parameter_changes_metrics_or_is_rejected(scenario):
    """No model parameter is silently ignored: perturbing any one default
    key either moves some trial's metrics or fails validation."""
    base = dict(SCENARIOS[scenario]["defaults"], **WALK_BASE.get(scenario, {}))
    before = trial_metrics(scenario, base)
    for key, value in base.items():
        try:
            after = trial_metrics(scenario, dict(base, **{key: perturbed(value)}))
        except SpecError:
            continue
        assert after != before, f"{scenario} ignores {key}"


def _wafer_params(r):
    params = {"nx": r.randint(1, 4), "ny": r.randint(1, 3), "nz": r.randint(1, 6),
              "success_prob": r.random(), "filter_enabled": r.random() < 0.5}
    if params["filter_enabled"]:
        params["filter_fidelity"] = r.random()
    return params


# A random small valid parameter set of each scenario, drawn from `r`.
RANDOM_PARAMS = {
    "mux-yield": lambda r: {"p": r.choice([0.0, 1.0, r.random()]),
                            "bins": r.randint(1, 300),
                            "s_values": r.sample(range(6), r.randint(1, 3))},
    "wafer-span": lambda r: dict(_wafer_params(r), photon_loss=r.uniform(0, 0.3)),
    "crazy-teleport": lambda r: {
        "columns": r.randint(1, 6), "column_size": r.randint(1, 4),
        "loss_values": [r.uniform(0, 0.5) for _ in range(r.randint(1, 3))],
        "z_flip": r.choice([0.0, r.uniform(0, 0.3)]), "batch": r.randint(1, 50)},
    "loss-sweep": lambda r: dict(
        _wafer_params(r),
        loss_values=[r.uniform(0, 0.3) for _ in range(r.randint(1, 3))]),
    "threshold-scan": lambda r: {
        "n": r.randint(2, 12), "p_values": [r.random() for _ in range(r.randint(1, 3))]},
}


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_contract_on_random_configs(tmp_path, scenario, case):
    """results.jsonl and summary.csv are byte-identical at 1, 2 and 3
    workers; trial i's record is the same in a run of i + 1 trials; and it
    is the scenario's trial on the stream keyed by (seed, i)."""
    r = random.Random(f"{scenario}/{case}")
    # several pool chunks per worker, so the workers of a run share it
    trials = r.randint(9, 24)
    config = {"scenario": scenario, "seed": r.randrange(2**64), "trials": trials,
              "params": RANDOM_PARAMS[scenario](r)}
    digests = {
        scenario_digest(tmp_path / str(threads), dict(config, threads=threads))
        for threads in (1, 2, 3)
    }
    assert len(digests) == 1
    i = r.randrange(trials)
    _, *records = read_results(str(tmp_path / "1" / "results.jsonl"))
    scenario_digest(tmp_path / "prefix", dict(config, trials=i + 1))
    _, *prefix = read_results(str(tmp_path / "prefix" / "results.jsonl"))

    def drop_hash(rec):
        return {k: v for k, v in rec.items() if k != "config_hash"}

    assert [drop_hash(rec) for rec in prefix] == [drop_hash(rec) for rec in records[:i + 1]]
    params = validate_config(dict(config, version=CONFIG_VERSION))["params"]
    metrics = SCENARIOS[scenario]["trial"](params, trial_rng(config["seed"], i))
    assert records[i]["metrics"] == metrics
