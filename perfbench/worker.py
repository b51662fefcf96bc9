"""One fresh benchmark process: set up, warm up, then measure or record.

Run by `run.py`; the last line of standard output is a JSON object.

  --mode setup    report set-up time only
  --mode measure  run the timed loop (traced when --trace 1)
  --mode record   write the expected outputs of the default seed's pool

Set-up time is the wall time from before `import ballistic` to the end of the
workload's fixed warm-up set, minus the same set's steady-state cost measured
right after.  Every input is generated before `import ballistic`.

Op latencies are reported scaled to a nominal host speed (see hostspeed.py);
the wall figures they came from are reported beside them.  Set-up time is
reported as wall time; `run.py` scales it by the measuring loop's
`host_factor`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import types
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(HERE, "_out")
EXPECTED_DIR = os.path.join(HERE, "expected")


def load_api(root: str = ROOT):
    """Import the program under test from `root/src`, and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy
    import scipy

    import ballistic
    import ballistic.cli

    where = os.path.realpath(ballistic.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"ballistic imported from {where}, not from {src}")
    return types.SimpleNamespace(
        ballistic=ballistic,
        builder=ballistic.builder,
        cli=ballistic.cli,
        dense=ballistic.dense,
        fusion=ballistic.fusion,
        graphstate=ballistic.graphstate,
        multiplex=ballistic.multiplex,
        percolation=ballistic.percolation,
        rng=ballistic.rng,
        np=numpy,
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__},
    )


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples beyond.

    With fewer than eleven samples no such percentile exists; the maximum is
    reported as the 100th.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n < 11:
        return lat[-1], 100.0
    rank = n - 10
    return lat[rank - 1], 100.0 * rank / n


def load_expected(name: str, seed: int):
    path = os.path.join(EXPECTED_DIR, f"{name}.json")
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)["digests"]


class Loop:
    """Runs ops, checks each output, keeps latencies and failures."""

    def __init__(self, wl, api, inputs, expected, ctx, tracer=None):
        self.wl, self.api, self.inputs = wl, api, inputs
        self.expected, self.ctx, self.tracer = expected, ctx, tracer
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, idx: int, traced: bool = False) -> int:
        """Run input `idx` once; returns its wall time in ns."""
        x = self.inputs[idx]
        self.attempted += 1
        error = None
        if traced:
            self.tracer.install(self.api.ballistic)
        t = perf_counter_ns()
        try:
            if traced:
                result = self.tracer.call(spans.ROOT, self.wl.run, self.api, x, self.ctx)
            else:
                result = self.wl.run(self.api, x, self.ctx)
        except Exception as exc:  # an op that raises counts as failed
            error = f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter_ns() - t
        if traced:
            self.tracer.uninstall()
        if error is None:
            digest, error = self.wl.check(self.api, x, result)
            if error is None and self.expected is not None and digest != self.expected[idx]:
                error = f"digest {digest}, expected {self.expected[idx]}"
            if error is None and self.digests.setdefault(idx, digest) != digest:
                error = f"digest {digest}, earlier run of this input gave {self.digests[idx]}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"input {idx}: {error}")
        return dt


def measure(wl, api, inputs, seconds, expected, ctx) -> dict:
    """Timed loop; the host-speed kernel runs before the first op and after each."""
    loop = Loop(wl, api, inputs, expected, ctx)
    lat_ns = []
    hostspeed.sample()  # the kernel's first run pays one-time costs
    refs = [hostspeed.sample()]
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        lat_ns.append(loop.op(i % len(inputs)))
        refs.append(hostspeed.sample())
        i += 1
    factors = hostspeed.op_factors(refs, len(lat_ns))
    lat_ms = [x / 1e6 * f for x, f in zip(lat_ns, factors)]
    wall_ms = [x / 1e6 for x in lat_ns]
    tail_ms, tail_pct = tail(lat_ms)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "loop": loop,
        "metrics": {
            "trials_per_s": wl.trials_per_op * len(lat_ms) / (sum(lat_ms) / 1e3),
            "op_p50_ms": statistics.median(lat_ms),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": rss_kb / 1024.0,
        },
        "wall": {
            "trials_per_s": wl.trials_per_op * len(wall_ms) / (sum(wall_ms) / 1e3),
            "op_p50_ms": statistics.median(wall_ms),
            "op_tail_ms": tail(wall_ms)[0],
            "kernel_p50_ms": statistics.median(refs) * 1e3,
        },
        "host_factor": hostspeed.factor(refs),
        "ops": len(lat_ns),
        "tail_percentile": tail_pct,
        "latencies_ms": lat_ms,
    }


def measure_traced(wl, api, inputs, seconds, expected, ctx) -> dict:
    """Each input runs twice, traced and untraced, in alternating order."""
    tracer = spans.Tracer()
    loop = Loop(wl, api, inputs, expected, ctx, tracer)
    traced_ns = untraced_ns = 0
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        idx = i % len(inputs)
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            dt = loop.op(idx, traced)
            if traced:
                traced_ns += dt
            else:
                untraced_ns += dt
        i += 1
    calls, self_ns = tracer.self_times()
    c = tracer.counts
    ops = i
    per_op = 1.0 / ops
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = calls.get(name, 0) * per_op
        metrics[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9 * per_op
    metrics["bench.op.self_s"] = self_ns.get(spans.ROOT, 0) / 1e9 * per_op

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    metrics.update(
        {
            "builder.nodes": c["builder.nodes"] * per_op,
            "builder.edges": c["builder.edges"] * per_op,
            "builder.bond_yield": ratio("builder.edges", "builder.fusions"),
            "builder.alive_punched_frac": ratio("builder.alive_punched", "builder.nodes"),
            "percolation.crossing_true_frac": ratio("percolation.crossing_true", "percolation.crossings"),
            "percolation.pathfind_edges_in": c["percolation.pathfind_edges_in"] * per_op,
            "percolation.layers_sustained": c["percolation.layers_sustained"] * per_op,
            "percolation.spanned_frac": ratio("percolation.wires_spanned", "percolation.wires"),
            "multiplex.photons_routed": c["multiplex.photons_routed"] * per_op,
            "multiplex.collision_drop_frac": ratio("multiplex.photons_dropped", "multiplex.photons_routed"),
            "multiplex.match_ratio": ratio("multiplex.pairs_matched", "multiplex.photons_available"),
            "cli.bytes_written": c["cli.bytes_written"] * per_op,
        }
    )
    total_self = sum(self_ns.values())
    for layer in ("builder", "percolation", "multiplex", "graphstate", "dense", "cli", "bench"):
        share = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        metrics[f"share.{layer}"] = share / total_self if total_self else 0.0
    traced_tps = wl.trials_per_op * ops / (traced_ns / 1e9)
    untraced_tps = wl.trials_per_op * ops / (untraced_ns / 1e9)
    metrics["bench.traced_trials_per_s"] = traced_tps
    metrics["bench.untraced_trials_per_s"] = untraced_tps
    metrics["bench.trace_overhead_frac"] = untraced_tps / traced_tps - 1.0
    metrics["bench.fail_ratio"] = loop.failed / loop.attempted
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}.tsv.gz"))
    return {
        "loop": loop,
        "metrics": metrics,
        "ops": ops,
        "spans": len(tracer.start),
        "span_self_ns": sum(self_ns.values()),
        "span_root_ns": tracer.root_ns(),
        "traced_ns": traced_ns,
    }


def run_warmup(wl, api, ctx) -> None:
    for x in wl.warmup_inputs():
        result = wl.run(api, x, ctx)
        _digest, error = wl.check(api, x, result)
        if error is not None:
            raise RuntimeError(f"warm-up op failed its check: {error}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure", "record"), default="measure")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    expected = load_expected(wl.name, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    ctx = types.SimpleNamespace(out_dir=tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        t0 = perf_counter()
        api = load_api()
        run_warmup(wl, api, ctx)
        t1 = perf_counter()
        run_warmup(wl, api, ctx)
        setup_s = (t1 - t0) - (perf_counter() - t1)
        out = {"setup_s": setup_s, "versions": api.versions}
        if args.mode == "record":
            loop = Loop(wl, api, inputs, None, ctx)
            for idx in range(len(inputs)):
                loop.op(idx)
            if loop.failed:
                raise RuntimeError(f"recording failed: {loop.errors}")
            os.makedirs(EXPECTED_DIR, exist_ok=True)
            with open(os.path.join(EXPECTED_DIR, f"{wl.name}.json"), "w") as f:
                json.dump(
                    {"seed": args.seed, "digests": [loop.digests[i] for i in range(len(inputs))]},
                    f,
                    indent=0,
                )
                f.write("\n")
        elif args.mode == "measure":
            gc.collect()
            run = (measure_traced if args.trace else measure)(
                wl, api, inputs, args.seconds, expected, ctx
            )
            loop = run.pop("loop")
            out.update(run)
            out.update(
                attempted=loop.attempted,
                failed=loop.failed,
                errors=loop.errors,
                checked_against="expected" if expected is not None else "self",
                digests=[loop.digests.get(i) for i in range(len(inputs))],
            )
    finally:
        shutil.rmtree(ctx.out_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
