"""Reproducible experiment harness.

Commands:
  run <config-file>          execute a seeded Monte Carlo scenario
  figure <results> <id>      emit plot-ready CSV (+ SVG polyline chart)
  verify                     run the full acceptance-check suite

Config files are versioned JSON.  Each trial draws its randomness from a
counter-based generator keyed by (seed, trial index), so outputs are
byte-identical regardless of the parallelism degree.  Wall-clock timing
goes to a separate metadata file that is excluded from that guarantee.
Exit codes: 0 success, 2 configuration error, 3 numeric/convergence error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from .builder import WaferSpec, build_wafer
from .errors import ConvergenceError, SpecError
from .fusion import FusionParams
from .losstol import CrazyGraphSpec, simulate_teleport, teleport_success_prob
from .multiplex import standard_mux_prob, yield_curve
from .percolation import crossing_exists, largest_component_fraction, square_lattice_family
from .rng import trial_rng

CONFIG_VERSION = 1


# -- scenarios ---------------------------------------------------------------


def _wafer_spec(params: dict) -> WaferSpec:
    return WaferSpec(
        int(params["nx"]),
        int(params["ny"]),
        int(params["nz"]),
        fusion_params=FusionParams(
            kind=params["fusion_kind"],
            success_prob=float(params["success_prob"]),
        ),
        photon_loss=float(params["photon_loss"]),
        filter_fidelity=float(params["filter_fidelity"]),
        filter_enabled=bool(params["filter_enabled"]),
    )


def mux_yield_trial(params: dict, rng) -> dict:
    p = float(params["p"])
    bins = int(params["bins"])
    metrics = {}
    for row in yield_curve(p, [int(s) for s in params["s_values"]], bins, rng):
        s = row["S"]
        metrics[f"standard_yield_S{s}"] = row["standard_yield"]
        metrics[f"sliding_yield_S{s}"] = row["sliding_yield"]
        metrics[f"matching_yield_S{s}"] = row["matching_yield"]
        metrics[f"collisions_S{s}"] = float(row["collisions"])
        width = 1 << s
        blocks = max(bins // width, 1)
        occupied = rng.random((blocks, width)) < p
        metrics[f"block_success_S{s}"] = float(occupied.any(axis=1).mean())
    return metrics


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_mux_yield(params: dict) -> None:
    p = params["p"]
    if not ((_is_int(p) or isinstance(p, float)) and 0 <= p <= 1):
        raise SpecError(f"mux-yield p must be a number in [0, 1], got {p!r}")
    if not (_is_int(params["bins"]) and params["bins"] >= 1):
        raise SpecError(f"mux-yield bins must be an int >= 1, got {params['bins']!r}")
    # the cap bounds the (blocks, 2^S) draw in mux_yield_trial
    bad = [s for s in params["s_values"] if not (_is_int(s) and 0 <= s <= 20)]
    if bad:
        raise SpecError(f"mux-yield s_values must be ints in [0, 20], got {bad!r}")


def wafer_span_trial(params: dict, rng) -> dict:
    lat = build_wafer(_wafer_spec(params), rng=rng, graph_level=False)
    return {
        "span": float(crossing_exists(lat, "z")),
        "span_punched": float(crossing_exists(lat, "z", punched=True)),
        "largest_fraction": largest_component_fraction(lat),
    }


def crazy_teleport_trial(params: dict, rng) -> dict:
    batch = int(params["batch"])
    metrics = {}
    for i, loss in enumerate(params["loss_values"]):
        spec = CrazyGraphSpec(
            int(params["columns"]),
            int(params["column_size"]),
            loss=float(loss),
            z_flip=float(params["z_flip"]),
        )
        rep = simulate_teleport(spec, rng, batch)
        metrics[f"success_{i}"] = rep.success_rate
        metrics[f"flip_{i}"] = rep.flip_rate
        metrics[f"tie_{i}"] = rep.tie_frequency
    return metrics


def loss_sweep_trial(params: dict, rng) -> dict:
    metrics = {}
    for i, loss in enumerate(params["loss_values"]):
        p = dict(params, photon_loss=float(loss))
        lat = build_wafer(_wafer_spec(p), rng=rng, graph_level=False)
        metrics[f"recovered_span_{i}"] = float(
            crossing_exists(lat, "z", punched=True)
        )
    return metrics


def threshold_scan_trial(params: dict, rng) -> dict:
    family = square_lattice_family(int(params["n"]))
    return {
        f"cross_{i}": float(family(float(p), rng))
        for i, p in enumerate(params["p_values"])
    }


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
        "check": _check_mux_yield,
        "defaults": {"p": 0.2, "s_values": [0, 1, 2, 3, 4, 5, 6], "bins": 2000},
    },
    "wafer-span": {
        "trial": wafer_span_trial,
        "defaults": dict(_WAFER_DEFAULTS),
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
    },
    "loss-sweep": {
        "trial": loss_sweep_trial,
        "defaults": dict(
            _WAFER_DEFAULTS,
            loss_values=[0.005, 0.01, 0.02, 0.04, 0.06, 0.08],
        ),
    },
    "threshold-scan": {
        "trial": threshold_scan_trial,
        "defaults": {
            "n": 64,
            "p_values": [0.40, 0.44, 0.48, 0.50, 0.52, 0.56, 0.60],
        },
    },
}


# -- config handling ---------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise SpecError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise SpecError("config root must be an object")
    if raw.get("version") != CONFIG_VERSION:
        raise SpecError(
            f"unsupported config version {raw.get('version')!r} "
            f"(expected {CONFIG_VERSION})"
        )
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise SpecError(
            f"unknown scenario {scenario!r}; valid: {sorted(SCENARIOS)}"
        )
    defaults = SCENARIOS[scenario]["defaults"]
    params = dict(defaults)
    user_params = raw.get("params", {})
    if not isinstance(user_params, dict):
        raise SpecError("params must be an object")
    bad = sorted(set(user_params) - set(defaults))
    if bad:
        raise SpecError(f"unknown parameter keys for {scenario}: {bad}")
    for key, value in user_params.items():
        want_list = isinstance(defaults[key], list)
        if want_list != isinstance(value, list):
            raise SpecError(f"parameter {key!r} has the wrong shape")
        params[key] = value
    if "check" in SCENARIOS[scenario]:
        SCENARIOS[scenario]["check"](params)
    cfg = {
        "version": CONFIG_VERSION,
        "scenario": scenario,
        "seed": int(raw.get("seed", 0)),
        "trials": int(raw.get("trials", 100)),
        "threads": int(raw.get("threads", 1)),
        "out": raw.get("out", "results"),
        "params": params,
    }
    if cfg["trials"] < 1:
        raise SpecError("trials must be >= 1")
    if cfg["threads"] < 1:
        raise SpecError("threads must be >= 1")
    return cfg


def config_hash(cfg: dict) -> str:
    hashed = {k: cfg[k] for k in ("version", "scenario", "seed", "trials", "params")}
    blob = json.dumps(hashed, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- execution ---------------------------------------------------------------


def _run_trial(scenario: str, params: dict, seed: int, trial: int) -> dict:
    rng = trial_rng(seed, trial)
    return SCENARIOS[scenario]["trial"](params, rng)


def _worker(args):
    scenario, params, seed, trial = args
    return trial, _run_trial(scenario, params, seed, trial)


def run_experiment(cfg: dict) -> dict:
    """Execute all trials and write results; returns output paths."""
    os.makedirs(cfg["out"], exist_ok=True)
    h = config_hash(cfg)
    t0 = time.perf_counter()
    jobs = [(cfg["scenario"], cfg["params"], cfg["seed"], t) for t in range(cfg["trials"])]
    if cfg["threads"] == 1:
        results = [_worker(j) for j in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(cfg["threads"]) as pool:
            results = list(pool.map(_worker, jobs, chunksize=8))
    results.sort(key=lambda r: r[0])
    wall = time.perf_counter() - t0

    jsonl_path = os.path.join(cfg["out"], "results.jsonl")
    with open(jsonl_path, "w") as f:
        header = {
            "config": {k: cfg[k] for k in ("version", "scenario", "seed", "trials", "params")},
            "config_hash": h,
        }
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for trial, metrics in results:
            rec = {"config_hash": h, "seed": cfg["seed"], "trial": trial, "metrics": metrics}
            f.write(json.dumps(rec, sort_keys=True) + "\n")

    csv_path = os.path.join(cfg["out"], "summary.csv")
    with open(csv_path, "w") as f:
        _write_summary(f, [m for _, m in results])

    meta_path = os.path.join(cfg["out"], "run_meta.json")
    with open(meta_path, "w") as f:
        json.dump(
            {"config_hash": h, "wall_seconds": wall, "threads": cfg["threads"]},
            f,
            sort_keys=True,
        )
        f.write("\n")
    return {"results": jsonl_path, "summary": csv_path, "meta": meta_path}


def _write_summary(fileobj, metric_rows: list[dict]) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["metric", "mean", "std", "stderr", "count"])
    if not metric_rows:
        return
    for key in sorted(metric_rows[0]):
        vals = np.array([row[key] for row in metric_rows], dtype=float)
        mean = vals.mean()
        std = vals.std(ddof=1) if len(vals) > 1 else 0.0
        stderr = std / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
        writer.writerow(
            [key, f"{mean:.10g}", f"{std:.10g}", f"{stderr:.10g}", len(vals)]
        )


def read_results(path: str) -> tuple[dict, list[dict]]:
    try:
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise SpecError(f"cannot read results {path}: {exc}") from exc
    if not lines:
        raise SpecError(f"results file {path} is empty")
    header = json.loads(lines[0])
    if "config" not in header:
        raise SpecError(f"results file {path} has no config header")
    records = [json.loads(ln) for ln in lines[1:]]
    if not records:
        raise SpecError(f"results file {path} contains no trial records")
    return header, records


# -- figures -----------------------------------------------------------------


def _metric_means(records: list[dict]) -> dict:
    keys = records[0]["metrics"].keys()
    return {
        k: float(np.mean([r["metrics"][k] for r in records])) for k in keys
    }


def _series_by_index(means: dict, prefix: str) -> list[float]:
    idx = []
    for key in means:
        if key.startswith(prefix):
            idx.append(int(key[len(prefix):]))
    return [means[f"{prefix}{i}"] for i in sorted(idx)]


def svg_line_chart(series: dict, path: str, width=640, height=400) -> None:
    """Minimal dependency-free polyline chart (one color per series)."""
    pad = 50
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
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def _figure_rows(figure_id: str, header: dict, records: list[dict]):
    means = _metric_means(records)
    params = header["config"]["params"]
    if figure_id == "fig4-yields":
        s_vals = sorted(
            int(k.split("S")[-1]) for k in means if k.startswith("standard_yield_S")
        )
        if not s_vals:
            raise SpecError("results carry no yield metrics for fig4-yields")
        cols = ["S", "standard", "sliding", "matching"]
        rows = [
            [s, means[f"standard_yield_S{s}"], means[f"sliding_yield_S{s}"],
             means[f"matching_yield_S{s}"]]
            for s in s_vals
        ]
    elif figure_id == "mux-law":
        s_vals = sorted(
            int(k.split("S")[-1]) for k in means if k.startswith("block_success_S")
        )
        if not s_vals:
            raise SpecError("results carry no block metrics for mux-law")
        p = float(params["p"])
        cols = ["S", "mc_block_success", "closed_form"]
        rows = [
            [s, means[f"block_success_S{s}"], standard_mux_prob(p, s)]
            for s in s_vals
        ]
    elif figure_id == "crazy-graph-law":
        mc = _series_by_index(means, "success_")
        if not mc:
            raise SpecError("results carry no teleport metrics for crazy-graph-law")
        losses = [float(x) for x in params["loss_values"]]
        cols = ["loss", "mc_success", "closed_form"]
        rows = [
            [
                loss,
                mc[i],
                teleport_success_prob(
                    CrazyGraphSpec(
                        int(params["columns"]), int(params["column_size"]), loss=loss
                    )
                ),
            ]
            for i, loss in enumerate(losses)
        ]
    elif figure_id == "loss-sweep":
        mc = _series_by_index(means, "recovered_span_")
        if not mc:
            raise SpecError("results carry no spanning metrics for loss-sweep")
        losses = [float(x) for x in params["loss_values"]]
        cols = ["loss", "recovered_spanning_rate"]
        rows = [[loss, mc[i]] for i, loss in enumerate(losses)]
    elif figure_id == "threshold-scan":
        mc = _series_by_index(means, "cross_")
        if not mc:
            raise SpecError("results carry no crossing metrics for threshold-scan")
        ps = [float(x) for x in params["p_values"]]
        cols = ["p", "crossing_rate"]
        rows = [[p, mc[i]] for i, p in enumerate(ps)]
    else:
        raise SpecError(
            f"unknown figure id {figure_id!r}; valid: fig4-yields, mux-law, "
            "crazy-graph-law, loss-sweep, threshold-scan"
        )
    return cols, rows


def emit_figure_data(results_path: str, figure_id: str, out_dir: str) -> dict:
    header, records = read_results(results_path)
    cols, rows = _figure_rows(figure_id, header, records)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{figure_id}.csv")
    with open(csv_path, "w") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow(
                [row[0]] + [f"{v:.10g}" for v in row[1:]]
            )
    xs = [float(r[0]) for r in rows]
    series = {
        cols[i]: (xs, [float(r[i]) for r in rows]) for i in range(1, len(cols))
    }
    svg_path = os.path.join(out_dir, f"{figure_id}.svg")
    svg_line_chart(series, svg_path)
    return {"csv": csv_path, "svg": svg_path}


# -- determinism -------------------------------------------------------------


def determinism_check() -> tuple[bool, str]:
    """Same config at 1 vs 8 workers must give byte-identical outputs."""
    configs = [
        {"scenario": "mux-yield", "trials": 16, "params": {"bins": 400}},
        {"scenario": "wafer-span", "trials": 16, "params": {"nz": 10}},
        {"scenario": "crazy-teleport", "trials": 16, "params": {"batch": 200}},
        {"scenario": "loss-sweep", "trials": 8, "params": {"nz": 10}},
        {"scenario": "threshold-scan", "trials": 8, "params": {"n": 32}},
    ]
    for base in configs:
        digests = []
        for threads in (1, 8):
            with tempfile.TemporaryDirectory() as tmp:
                cfg = validate_config(
                    {
                        "version": CONFIG_VERSION,
                        "seed": 123,
                        "out": tmp,
                        "threads": threads,
                        **base,
                    }
                )
                paths = run_experiment(cfg)
                h = hashlib.sha256()
                for key in ("results", "summary"):
                    with open(paths[key], "rb") as f:
                        h.update(f.read())
                digests.append(h.hexdigest())
        if digests[0] != digests[1]:
            return False, f"scenario {base['scenario']}: outputs differ across parallelism"
    return True, f"{len(configs)} scenarios byte-identical at 1 vs 8 workers"


# -- entry point -------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.trials is not None:
        cfg["trials"] = args.trials
        if cfg["trials"] < 1:
            raise SpecError("trials must be >= 1")
    if args.threads is not None:
        cfg["threads"] = args.threads
        if cfg["threads"] < 1:
            raise SpecError("threads must be >= 1")
    if args.out is not None:
        cfg["out"] = args.out
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
        criteria = {int(x) for x in args.criteria.split(",")}
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
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--threads", type=int)
    p_run.add_argument("--out")
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
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
