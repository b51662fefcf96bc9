"""Benchmark entry point: one workload, one seed, one JSON result line.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --record      # re-record the default seed's outputs

Run from the repository root; the program is imported from `src/`.  Every
process runs one client in a closed loop.  With `--trace 0` the result holds
the end-to-end metrics; set-up time is the median of several fresh
processes, scaled by the host speed the measuring process saw.  With
`--trace 1` it holds the per-layer metrics of a traced run.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Fresh processes that only set up, on top of the measuring one.
EXTRA_SETUPS = 2
# Every worker of one run must have finished this long after the run starts.
RUN_TIMEOUT_S = 170
OUT_DIR = os.path.join(HERE, "_out")


class WorkerFailed(RuntimeError):
    pass


def worker(*args: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{' '.join(args)}: no result within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{' '.join(args)}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def environment(seed: int, wl, versions: dict) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(),
        "src_sha": src_digest(),
        "seed": seed,
        "workload": wl.name,
        "trials_per_op": wl.trials_per_op,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for ln in f:
                if ln.rstrip().endswith(" " + ref):
                    return ln.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """Hash of the program's source, which names the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    wl = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(EXTRA_SETUPS):
            setups.append(
                worker(*common, "--mode", "setup", timeout=deadline - time.monotonic())["setup_s"]
            )
    run = worker(
        *common,
        "--mode", "measure",
        "--seconds", str(seconds),
        "--trace", str(trace),
        timeout=deadline - time.monotonic(),
    )
    metrics = run["metrics"]
    if not trace:
        setups.append(run["setup_s"])
        metrics["setup_s"] = statistics.median(setups) * run["host_factor"]
    env = environment(seed, wl, run["versions"])
    print("env: " + json.dumps(env, sort_keys=True))
    detail = {"ops": run["ops"], "attempted": run["attempted"], "failed": run["failed"]}
    if trace:
        detail.update(spans=run["spans"], span_root_ns=run["span_root_ns"],
                      span_self_ns=run["span_self_ns"], traced_ns=run["traced_ns"])
    else:
        detail.update(
            tail_percentile=run["tail_percentile"],
            setup_samples_s=setups,
            wall=run["wall"],
        )
    print("run: " + json.dumps(detail, sort_keys=True))
    print(f"outputs checked against: {run['checked_against']}")
    print("digests: " + json.dumps(run["digests"]))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload}-trace{trace}.json"), "w") as f:
        json.dump({"env": env, "run": detail, "worker": run}, f, sort_keys=True)
        f.write("\n")
    for err in run["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write expected outputs for the default seed, all workloads")
    args = ap.parse_args(argv)
    try:
        if args.record:
            for name in WORKLOADS:
                worker("--workload", name, "--mode", "record", timeout=600)
                print(f"recorded {name}")
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    declared = declared_metrics(args.trace)
    if set(declared) != set(result["metrics"]):
        print(
            "benchmark failed: metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(result['metrics']))}",
            file=sys.stderr,
        )
        return 1
    result["metrics"] = {
        k: {"value": v, "unit": declared[k]} for k, v in sorted(result["metrics"].items())
    }
    print(json.dumps(result))
    return 0


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}

if __name__ == "__main__":
    sys.exit(main())
