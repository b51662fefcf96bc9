"""Reproducible experiment harness.

Commands:
  run <config-file>          execute a seeded Monte Carlo scenario
  figure <results> <id>      emit plot-ready CSV (+ SVG polyline chart)
  verify                     run the full acceptance-check suite

Config files are versioned JSON.  Each trial draws its randomness from a
counter-based generator keyed by (seed, trial index), so outputs are
byte-identical regardless of the parallelism degree.  Wall-clock timing
goes to a separate metadata file that is excluded from that guarantee.
Exit codes: 0 success, 1 failed acceptance check (verify), 2 configuration
error, 4 any other package error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time
from array import array

import numpy as np

from .builder import WaferSpec, build_batches, build_wafer
from .errors import BallisticError, SpecError
from .fusion import FusionParams
from .losstol import CrazyGraphSpec, simulate_teleport, teleport_success_prob
from .multiplex import herald_success_prob, yield_curve
from .percolation import crossing_exists, crossings, raw_span, square_lattice_crosses
from .rng import bernoulli, trial_rng

CONFIG_VERSION = 1


# -- scenarios ---------------------------------------------------------------
#
# A SCENARIOS entry holds all that is known of its scenario: the `trial`, the
# `defaults` (whose types are the only ones a config may use), a `check` of
# ranges and the `figures`, each id mapped to fn(means, params) -> (cols, rows).


def _wafer_spec(params: dict) -> WaferSpec:
    fusion = FusionParams(
        kind=params["fusion_kind"], success_prob=float(params["success_prob"])
    )
    # a disabled filter keeps every photon, so any other fidelity is ignored
    if not params["filter_enabled"] and float(params["filter_fidelity"]) != 1.0:
        raise SpecError(
            "filter_fidelity applies only with filter_enabled true, got "
            f"{params['filter_fidelity']!r} with the filter off"
        )
    spec = WaferSpec(
        params["nx"],
        params["ny"],
        params["nz"],
        fusion_params=fusion,
        photon_loss=float(params["photon_loss"]),
        filter_fidelity=(
            float(params["filter_fidelity"]) if params["filter_enabled"] else None
        ),
    )
    _check_cap("nx * ny * nz", spec.cells, MAX_WAFER_CELLS)
    return spec


def mux_yield_trial(params: dict, rng) -> dict:
    p = float(params["p"])
    bins = params["bins"]
    metrics = {}
    for row in yield_curve(p, params["s_values"], bins, rng):
        s = row["S"]
        metrics[f"standard_yield_S{s}"] = row["standard_yield"]
        metrics[f"sliding_yield_S{s}"] = row["sliding_yield"]
        metrics[f"matching_yield_S{s}"] = row["matching_yield"]
        metrics[f"collisions_S{s}"] = float(row["collisions"])
        width = 1 << s
        blocks = max(bins // width, 1)
        occupied = bernoulli(rng, (blocks, width), p)
        metrics[f"block_success_S{s}"] = float(occupied.any(axis=1).mean())
    return metrics


def _check_mux_yield(params: dict) -> None:
    if not 0 <= params["p"] <= 1:
        raise SpecError(f"mux-yield p must lie in [0, 1], got {params['p']!r}")
    if params["bins"] < 1:
        raise SpecError(f"mux-yield bins must be >= 1, got {params['bins']!r}")
    _check_cap("mux-yield bins", params["bins"], MAX_MUX_BINS)
    # the cap bounds the (blocks, 2^S) draw in mux_yield_trial
    bad = [s for s in params["s_values"] if not 0 <= s <= 20]
    if bad:
        raise SpecError(f"mux-yield s_values must lie in [0, 20], got {bad!r}")
    # one row per S: a repeat would overwrite the earlier S's metrics
    if len(set(params["s_values"])) < len(params["s_values"]):
        raise SpecError(f"mux-yield s_values must not repeat, got {params['s_values']!r}")


def _fig4_yields(means: dict, params: dict):
    rows = [
        [s, means[f"standard_yield_S{s}"], means[f"sliding_yield_S{s}"],
         means[f"matching_yield_S{s}"]]
        for s in sorted(params["s_values"])
    ]
    return ["S", "standard", "sliding", "matching"], rows


def _mux_law(means: dict, params: dict):
    p = float(params["p"])
    rows = [
        [s, means[f"block_success_S{s}"], herald_success_prob(p, 1 << s)]
        for s in sorted(params["s_values"])
    ]
    return ["S", "mc_block_success", "closed_form"], rows


def wafer_span_trial(params: dict, rng) -> dict:
    lat = build_wafer(_wafer_spec(params), rng=rng)
    span, largest = raw_span(lat)
    return {
        "span": float(span),
        "span_punched": float(crossing_exists(lat, punched=True)),
        "largest_fraction": largest,
    }


def _crazy_graph_specs(params: dict) -> list[CrazyGraphSpec]:
    z_flip = float(params["z_flip"])
    return [
        CrazyGraphSpec(params["columns"], params["column_size"], float(loss), z_flip)
        for loss in params["loss_values"]
    ]


def crazy_teleport_trial(params: dict, rng) -> dict:
    metrics = {}
    for i, spec in enumerate(_crazy_graph_specs(params)):
        rep = simulate_teleport(spec, rng, params["batch"])
        metrics[f"success_{i}"] = rep.success_rate
        metrics[f"flip_{i}"] = rep.flip_rate
        metrics[f"tie_{i}"] = rep.tie_frequency
    return metrics


def _check_crazy_teleport(params: dict) -> None:
    if params["batch"] < 1:
        raise SpecError(f"crazy-teleport batch must be >= 1, got {params['batch']!r}")
    _crazy_graph_specs(params)
    _check_cap(
        "crazy-teleport batch * columns * column_size",
        params["batch"] * params["columns"] * params["column_size"],
        MAX_TELEPORT_DRAWS,
    )


def _crazy_graph_law(means: dict, params: dict):
    rows = [
        [spec.loss, means[f"success_{i}"], teleport_success_prob(spec)]
        for i, spec in enumerate(_crazy_graph_specs(params))
    ]
    return ["loss", "mc_success", "closed_form"], rows


def _loss_sweep_specs(params: dict) -> list[WaferSpec]:
    return [
        _wafer_spec(dict(params, photon_loss=loss)) for loss in params["loss_values"]
    ]


def _check_loss_sweep(params: dict) -> None:
    # each loss_values entry replaces photon_loss, so any other value of it
    # would be ignored
    if params["photon_loss"] != _WAFER_DEFAULTS["photon_loss"]:
        raise SpecError(
            "loss-sweep takes its losses from loss_values; photon_loss must "
            f"stay {_WAFER_DEFAULTS['photon_loss']!r}, got {params['photon_loss']!r}"
        )
    _loss_sweep_specs(params)


def loss_sweep_trial(params: dict, rng) -> dict:
    specs = _loss_sweep_specs(params)
    spans = []
    for lats in build_batches(specs, [rng] * len(specs)):
        spans += crossings(lats, punched=True)
    return {f"recovered_span_{i}": float(span) for i, span in enumerate(spans)}


def _loss_sweep_figure(means: dict, params: dict):
    rows = [
        [spec.photon_loss, means[f"recovered_span_{i}"]]
        for i, spec in enumerate(_loss_sweep_specs(params))
    ]
    return ["loss", "recovered_spanning_rate"], rows


def threshold_scan_trial(params: dict, rng) -> dict:
    return {
        f"cross_{i}": float(square_lattice_crosses(params["n"], float(p), rng))
        for i, p in enumerate(params["p_values"])
    }


def _check_threshold_scan(params: dict) -> None:
    bad = [p for p in params["p_values"] if not 0 <= p <= 1]
    if bad:
        raise SpecError(f"threshold-scan p_values must lie in [0, 1], got {bad!r}")
    if params["n"] < 2:
        raise SpecError(f"threshold-scan n must be >= 2, got {params['n']!r}")
    _check_cap("threshold-scan n", params["n"], MAX_SQUARE_SIDE)


def _threshold_scan_figure(means: dict, params: dict):
    rows = [[float(p), means[f"cross_{i}"]] for i, p in enumerate(params["p_values"])]
    return ["p", "crossing_rate"], rows


_WAFER_DEFAULTS = {
    "nx": 12,
    "ny": 6,
    "nz": 50,
    "fusion_kind": "BoostedTypeII",
    "success_prob": 0.75,
    "photon_loss": 0.0,
    "filter_fidelity": 1.0,
    "filter_enabled": False,
}

SCENARIOS = {
    "mux-yield": {
        "trial": mux_yield_trial,
        "defaults": {"p": 0.2, "s_values": [0, 1, 2, 3, 4, 5, 6], "bins": 2000},
        "check": _check_mux_yield,
        "figures": {"fig4-yields": _fig4_yields, "mux-law": _mux_law},
    },
    "wafer-span": {
        "trial": wafer_span_trial,
        "defaults": dict(_WAFER_DEFAULTS),
        "check": _wafer_spec,
        "figures": {},
    },
    "crazy-teleport": {
        "trial": crazy_teleport_trial,
        "defaults": {
            "columns": 50,
            "column_size": 3,
            "loss_values": [0.02, 0.05, 0.1, 0.15, 0.2],
            "z_flip": 0.0,
            "batch": 1000,
        },
        "check": _check_crazy_teleport,
        "figures": {"crazy-graph-law": _crazy_graph_law},
    },
    "loss-sweep": {
        "trial": loss_sweep_trial,
        "defaults": dict(
            _WAFER_DEFAULTS,
            loss_values=[0.005, 0.01, 0.02, 0.04, 0.06, 0.08],
        ),
        "check": _check_loss_sweep,
        "figures": {"loss-sweep": _loss_sweep_figure},
    },
    "threshold-scan": {
        "trial": threshold_scan_trial,
        "defaults": {
            "n": 64,
            "p_values": [0.40, 0.44, 0.48, 0.50, 0.52, 0.56, 0.60],
        },
        "check": _check_threshold_scan,
        "figures": {"threshold-scan": _threshold_scan_figure},
    },
}


# -- config handling ---------------------------------------------------------

_RUN_DEFAULTS = {"seed": 0, "trials": 100, "threads": 1, "out": "results"}
# A pool forks all its workers at once, so the worker count is capped; a
# constant, not a reading of this machine, so a valid config is valid anywhere.
MAX_THREADS = 256
# Size caps, so that a config whose trial would run out of memory fails
# validation instead; constants for the same reason.  A trial's peak RSS grew
# by about 159 B per lossless wafer cell (wafer-span, loss-sweep), 24 B per
# threshold-scan site, up to 166 B per mux-yield bin and 2.3 B per qubit draw
# (README, "Validation"), so each cap holds a trial under ~1 GiB of ~2 GiB.
MAX_WAFER_CELLS = 2**22  # nx * ny * nz
MAX_SQUARE_SIDE = 2**12  # threshold-scan n, so n * n <= 2**24 sites
MAX_MUX_BINS = 2**22  # 645 MiB at p = 1; 2^23 bins took 1169 MiB
MAX_TELEPORT_DRAWS = 2**24  # batch * columns * column_size


def _check_cap(what: str, size: int, cap: int) -> None:
    if size > cap:
        raise SpecError(f"{what} must be <= {cap}, got {size}")


def load_config(path: str):
    """The parsed JSON of a config file, not yet validated."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise SpecError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"config {path} is not valid JSON: {exc}") from exc


def _check_type(name: str, value, default) -> None:
    """Reject `value` unless it has the type of `default`.

    An int is accepted for a float, a bool only for a bool.  A list must be
    non-empty, and each element is checked against the default's first.
    """
    if isinstance(default, list):
        if not (isinstance(value, list) and value):
            raise SpecError(f"{name} must be a non-empty list, got {value!r}")
        for item in value:
            _check_type(f"{name} element", item, default[0])
        return
    want = (int, float) if isinstance(default, float) else type(default)
    if not isinstance(value, want) or isinstance(value, bool) != isinstance(default, bool):
        raise SpecError(f"{name} must be {type(default).__name__}, got {value!r}")


def validate_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise SpecError("config root must be an object")
    valid = ["version", "scenario", "params", *_RUN_DEFAULTS]
    bad = sorted(set(raw) - set(valid))
    if bad:
        raise SpecError(f"unknown top-level config keys {bad}; valid: {valid}")
    # True == 1 and 1.0 == 1, so the type is checked as well
    version = raw.get("version")
    if type(version) is not int or version != CONFIG_VERSION:
        raise SpecError(
            f"unsupported config version {version!r} "
            f"(expected {CONFIG_VERSION})"
        )
    scenario = raw.get("scenario")
    # a list or object is unhashable, so it is tested by type, not lookup
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise SpecError(
            f"unknown scenario {scenario!r}; valid: {sorted(SCENARIOS)}"
        )
    entry = SCENARIOS[scenario]
    user_params = raw.get("params", {})
    if not isinstance(user_params, dict):
        raise SpecError("params must be an object")
    bad = sorted(set(user_params) - set(entry["defaults"]))
    if bad:
        raise SpecError(f"unknown parameter keys for {scenario}: {bad}")
    for key, value in user_params.items():
        _check_type(f"parameter {key!r}", value, entry["defaults"][key])
    cfg = {"version": CONFIG_VERSION, "scenario": scenario}
    for key, default in _RUN_DEFAULTS.items():
        cfg[key] = raw.get(key, default)
        _check_type(repr(key), cfg[key], default)
    cfg["params"] = dict(entry["defaults"], **user_params)
    if cfg["trials"] < 1:
        raise SpecError("trials must be >= 1")
    if not 1 <= cfg["threads"] <= MAX_THREADS:
        raise SpecError(f"threads must be in [1, {MAX_THREADS}], got {cfg['threads']}")
    if not 0 <= cfg["seed"] < 2**64:
        raise SpecError(f"seed must be in [0, 2**64), got {cfg['seed']}")
    if not cfg["out"]:
        raise SpecError("out must name a directory, got an empty string")
    if os.path.exists(cfg["out"]) and not os.path.isdir(cfg["out"]):
        raise SpecError(f"out {cfg['out']!r} exists and is not a directory")
    entry["check"](cfg["params"])
    return cfg


# the config keys that fix a run's results, hashed and written to their header
_HASHED_KEYS = ("version", "scenario", "seed", "trials", "params")


def config_hash(cfg: dict) -> str:
    hashed = {k: cfg[k] for k in _HASHED_KEYS}
    blob = json.dumps(hashed, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- execution ---------------------------------------------------------------


def _run_trial(scenario: str, params: dict, seed: int, trial: int) -> dict:
    rng = trial_rng(seed, trial)
    return SCENARIOS[scenario]["trial"](params, rng)


def run_experiment(cfg: dict) -> dict:
    """Execute all trials and write results; returns output paths.

    The output directory is created only once every trial has returned, so a
    run that fails leaves no directory behind.  Outputs that cannot be
    written raise SpecError."""
    h = config_hash(cfg)
    t0 = time.perf_counter()
    # both maps return results in trial order
    trial = functools.partial(_run_trial, cfg["scenario"], cfg["params"], cfg["seed"])
    if cfg["threads"] == 1:
        results = list(map(trial, range(cfg["trials"])))
    else:
        # about four chunks per worker, so a short run reaches every worker
        chunk = max(1, cfg["trials"] // (4 * cfg["threads"]))
        with concurrent.futures.ProcessPoolExecutor(cfg["threads"]) as pool:
            results = list(pool.map(trial, range(cfg["trials"]), chunksize=chunk))
    wall = time.perf_counter() - t0
    columns = _metric_columns(results, os.path.join(cfg["out"], "results.jsonl"))

    def write_results(f):
        header = {"config": {k: cfg[k] for k in _HASHED_KEYS}, "config_hash": h}
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for t, metrics in enumerate(results):
            rec = {"config_hash": h, "seed": cfg["seed"], "trial": t, "metrics": metrics}
            f.write(json.dumps(rec, sort_keys=True) + "\n")

    def write_meta(f):
        meta = {"config_hash": h, "wall_seconds": wall, "threads": cfg["threads"]}
        f.write(json.dumps(meta, sort_keys=True) + "\n")

    return _write_files(cfg["out"], "outputs", {
        "results": ("results.jsonl", write_results),
        "summary": ("summary.csv", lambda f: _write_summary(f, columns)),
        "meta": ("run_meta.json", write_meta),
    })


def _write_files(out_dir: str, what: str, files: dict) -> dict:
    """Write `files`, each key mapped to (name, write(fileobj)), into
    `out_dir`, created if missing; returns each key's path.

    Each file is written beside its target and all are moved into place
    once written, so a failure leaves no partial file and no new file next
    to an old one.  Outputs that cannot be written raise SpecError."""
    paths = {key: os.path.join(out_dir, name) for key, (name, _) in files.items()}
    tmp = {key: f"{path}.{os.getpid()}.tmp" for key, path in paths.items()}
    try:
        os.makedirs(out_dir, exist_ok=True)
        for key, (_, write) in files.items():
            with open(tmp[key], "w") as f:
                write(f)
        for key, path in paths.items():
            os.replace(tmp[key], path)
    except OSError as exc:
        raise SpecError(f"cannot write {what} to {out_dir!r}: {exc}") from exc
    finally:
        for path in tmp.values():
            # not written, or `out_dir` is not a directory
            with contextlib.suppress(FileNotFoundError, NotADirectoryError):
                os.remove(path)
    return paths


def _write_summary(fileobj, columns: dict) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["metric", "mean", "std", "stderr", "count"])
    if not columns:
        return
    keys = sorted(columns)
    # every column holds one value per record, so they stack
    table = np.stack([columns[k] for k in keys])
    n = table.shape[1]
    mean = table.mean(axis=1)
    std = table.std(axis=1, ddof=1) if n > 1 else np.zeros(len(keys))
    stderr = std / math.sqrt(n)
    for key, m, s, e in zip(keys, mean.tolist(), std.tolist(), stderr.tolist()):
        writer.writerow([key, f"{m:.10g}", f"{s:.10g}", f"{e:.10g}", n])


def _metric_columns(metric_dicts, path: str) -> dict:
    """One float64 column per metric that every dict holds, dropped the first
    time a dict lacks it.  A value that is not a number, or an integer too
    large for a float, raises SpecError."""
    columns = None
    for metrics in metric_dicts:
        if columns is None:
            columns = {k: array("d") for k in metrics}
        for k in columns.keys() - metrics.keys():
            del columns[k]
        for k, v in metrics.items():
            try:
                (columns[k] if k in columns else array("d")).append(v)
            except TypeError:
                raise SpecError(f"results file {path} has a non-numeric {k!r}") from None
            except OverflowError:
                raise SpecError(f"results file {path} has a {k!r} too large for a float") from None
    return {k: np.frombuffer(col) for k, col in columns.items()}


def read_results(path: str):
    """Yield a results file's config header, then each trial record, each
    as (line number, record), reading and checking one line at a time."""
    count = 0
    try:
        with open(path) as f:
            for number, ln in enumerate(f, 1):
                if not ln.strip():
                    continue
                rec = json.loads(ln)
                key = "metrics" if count else "config"
                if not (isinstance(rec, dict) and isinstance(rec.get(key), dict)):
                    what = "a trial record without metrics" if count else "no config header"
                    raise SpecError(f"results file {path} line {number} is {what}")
                count += 1
                yield number, rec
    except json.JSONDecodeError as exc:
        raise SpecError(f"results file {path} line {number} is not JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read results {path}: {exc}") from exc
    if count < 2:
        what = "contains no trial records" if count else "is empty"
        raise SpecError(f"results file {path} {what}")


# -- figures -----------------------------------------------------------------


def svg_line_chart(series: dict) -> str:
    """Minimal dependency-free polyline chart (one color per series)."""
    width, height, pad = 640, 400, 50
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all + [0.0]), max(ys_all)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    colors = ["#1f77b4", "#9467bd", "#2ca02c", "#d62728", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
    ]
    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = colors[i % len(colors)]
        points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        parts.append(
            f'<text x="{width-pad+4}" y="{sy(ys[-1]):.1f}" font-size="12" fill="{color}">{name}</text>'
        )
    parts.append(
        f'<text x="{pad}" y="{pad-10}" font-size="12">y: {y_lo:.4g} .. {y_hi:.4g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _run_metrics(records, header: dict, cfg: dict, path: str):
    """The metrics of `records`, (line number, record) pairs checked to be
    the trials 0, 1, ... of the run `header` describes: its hash is its
    config's, and they carry that hash and seed and number its trials."""
    h = config_hash(cfg)
    if header.get("config_hash") != h:
        raise SpecError(f"results file {path} header: config_hash is not its config's {h!r}")
    trial = number = 0
    for number, rec in records:
        for key, want in (("config_hash", h), ("seed", cfg["seed"]), ("trial", trial)):
            # the type too, since True == 1 and 1.0 == 1
            if type(rec.get(key)) is not type(want) or rec[key] != want:
                raise SpecError(f"results file {path} line {number}: {key}"
                                f" {rec.get(key)!r} where its run wrote {want!r}")
        trial += 1
        yield rec["metrics"]
    if trial != cfg["trials"]:
        raise SpecError(f"results file {path} ends at line {number} after {trial} trial"
                        f" records, but its header's trials is {cfg['trials']}")


def emit_figure_data(results_path: str, figure_id: str, out_dir: str) -> dict:
    records = read_results(results_path)
    _, header = next(records)
    # the header's config passes the checks of a run's config, so every
    # parameter is present, typed and in range, and every list non-empty
    cfg = validate_config(dict(header["config"], out=out_dir))
    figures = SCENARIOS[cfg["scenario"]]["figures"]
    if figure_id not in figures:
        raise SpecError(
            f"no figure {figure_id!r} for {cfg['scenario']!r} results; "
            f"valid: {sorted(figures)}"
        )
    columns = _metric_columns(_run_metrics(records, header, cfg, results_path), results_path)
    means = {k: float(col.mean()) for k, col in columns.items()}
    try:
        cols, rows = figures[figure_id](means, cfg["params"])
    except KeyError as exc:
        raise SpecError(
            f"results file {results_path} has no {exc.args[0]!r}, "
            f"which figure {figure_id!r} needs"
        ) from exc
    xs = [float(r[0]) for r in rows]
    series = {
        cols[i]: (xs, [float(r[i]) for r in rows]) for i in range(1, len(cols))
    }

    def write_csv(f):
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.10g}" for v in row[1:]])

    return _write_files(out_dir, "figure files", {
        "csv": (f"{figure_id}.csv", write_csv),
        "svg": (f"{figure_id}.svg", lambda f: f.write(svg_line_chart(series))),
    })


# -- entry point -------------------------------------------------------------


def _cmd_run(args) -> int:
    raw = load_config(args.config)
    if isinstance(raw, dict):  # validate_config rejects any other root
        for key in _RUN_DEFAULTS:
            if getattr(args, key) is not None:
                raw[key] = getattr(args, key)
    cfg = validate_config(raw)
    paths = run_experiment(cfg)
    print(json.dumps(paths, sort_keys=True))
    return 0


def _cmd_figure(args) -> int:
    out_dir = args.out if args.out is not None else os.path.dirname(args.results) or "."
    paths = emit_figure_data(args.results, args.figure_id, out_dir)
    print(json.dumps(paths, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    criteria = None
    if args.criteria:
        valid = {num for num, _name, _fn in acceptance.CHECKS}
        parts = [x.strip() for x in args.criteria.split(",")]
        if not all(x.isdecimal() and int(x) in valid for x in parts):
            raise SpecError(
                f"--criteria takes comma-separated numbers from {min(valid)} to "
                f"{max(valid)}, got {args.criteria!r}"
            )
        criteria = {int(x) for x in parts}
    results = acceptance.run_all(criteria)
    worst = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.criterion:2d} {res.name} ({res.seconds:.1f}s): {res.details}")
        if not res.passed:
            worst = 1
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballistic", description="Seeded experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario from a config file")
    p_run.add_argument("config")
    for key, default in _RUN_DEFAULTS.items():
        p_run.add_argument(f"--{key}", type=type(default))
    p_run.set_defaults(fn=_cmd_run)

    p_fig = sub.add_parser("figure", help="emit figure CSV/SVG from results")
    p_fig.add_argument("results")
    p_fig.add_argument("figure_id")
    p_fig.add_argument("--out")
    p_fig.set_defaults(fn=_cmd_figure)

    p_ver = sub.add_parser("verify", help="run the acceptance-check suite")
    p_ver.add_argument("--criteria", help="comma-separated criterion numbers")
    p_ver.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BallisticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
