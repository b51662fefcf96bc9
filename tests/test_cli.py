"""Experiment harness: config handling, runs, figures, exit codes."""

import json
import os

import pytest

from ballistic.cli import (
    CONFIG_VERSION,
    config_hash,
    emit_figure_data,
    main,
    read_results,
    run_experiment,
    validate_config,
)
from ballistic.errors import SpecError


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


def test_validate_config_rejections():
    with pytest.raises(SpecError):
        validate_config([])
    with pytest.raises(SpecError):
        validate_config(good_config(version=99))
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
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg_path.write_text(json.dumps({
        "version": CONFIG_VERSION,
        "scenario": "mux-yield",
        "trials": 1,
        "out": str(out),
        "params": params,
    }))
    assert main(["run", str(cfg_path)]) == 2
    assert not out.exists()


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
    header, records = read_results(str(tmp_path / "a" / "results.jsonl"))
    assert header["config"]["scenario"] == "wafer-span"
    assert [r["trial"] for r in records] == [0, 1, 2]
    assert all(set(r["metrics"]) == {"span", "span_punched", "largest_fraction"}
               for r in records)


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
    unknown.write_text(json.dumps(good_config(scenario="nope")))
    assert main(["run", str(unknown)]) == 2


def test_cli_unknown_figure_id(tmp_path):
    cfg = validate_config(good_config(out=str(tmp_path)))
    run_experiment(cfg)
    results = str(tmp_path / "results.jsonl")
    assert main(["figure", results, "not-a-figure"]) == 2


def test_read_results_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(SpecError):
        read_results(str(empty))
    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"trial": 0}\n')
    with pytest.raises(SpecError):
        read_results(str(headerless))


def test_emit_figure_requires_matching_scenario(tmp_path):
    cfg = validate_config(good_config(out=str(tmp_path)))
    run_experiment(cfg)
    with pytest.raises(SpecError):
        emit_figure_data(str(tmp_path / "results.jsonl"), "fig4-yields", str(tmp_path))


def test_cli_verify_single_fast_criterion(capsys):
    assert main(["verify", "--criteria", "13"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] 13" in out
