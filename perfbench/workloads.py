"""The five benchmark workloads: seeded inputs, the timed op, its check.

Input generation uses only the standard library, so a worker can build every
input before `import ballistic`, the point where set-up time starts.  Each
workload cycles through a pool of `pool` inputs; an input met again must give
the same output digest as the first time.

`run` is the timed op.  It reaches the program only through the attributes
of `api`'s modules, so the tracer can wrap those attributes.  `check` runs
outside the timed region; it returns the op's output digest and an error
string, or None when the output passed the workload's own check.
"""

from __future__ import annotations

import hashlib
import json
import random

DEFAULT_SEED = 0


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Pathfind:
    """C16 trial: bond-level 12x6x600 wafer, one windowed wire."""

    name = "pathfind"
    pool = 32
    trials_per_op = 1
    photon_loss = 0.0
    punched = False
    window = 15

    def inputs(self, seed: int) -> list[int]:
        rnd = random.Random(f"{self.name}:{seed}")
        return [rnd.getrandbits(63) for _ in range(self.pool)]

    def warmup_inputs(self) -> list[int]:
        return self.inputs(-1)[:1]

    def run(self, api, key: int, ctx):
        spec = api.builder.WaferSpec(
            12,
            6,
            600,
            fusion_params=api.fusion.FusionParams(
                kind="BoostedTypeII", success_prob=0.75
            ),
            photon_loss=self.photon_loss,
        )
        lat = api.builder.build_wafer(
            spec, rng=api.rng.trial_rng(key, 0), graph_level=False
        )
        state = api.percolation.find_paths_windowed(
            lat, window=self.window, wires=1, punched=self.punched
        )
        return lat, state, api.percolation.sustained_layers(state)

    def check(self, api, key: int, result):
        np = api.np
        lat, state, sustained = result
        comp = lat.comp
        path = [int(v) for v in state.paths[0]]
        digest = f"{sustained}:{sha16(json.dumps(path).encode())}"
        if not path:
            return digest, None if sustained == 0 else "empty path, sustained > 0"
        nodes = np.array(path, dtype=np.int64)
        if len(set(path)) != len(path):
            return digest, "path revisits a node"
        if not comp.alive_flat(self.punched)[nodes].all():
            return digest, "path uses a dead node"
        layer = (nodes // 2) % comp.nz
        if layer[0] != 0 or layer[-1] != sustained:
            return digest, f"path spans layers {layer[0]}..{layer[-1]}, sustained {sustained}"
        n = comp.node_count
        e = comp.edges.astype(np.int64)
        edge_keys = np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1])
        hops = np.minimum(nodes[:-1], nodes[1:]) * n + np.maximum(nodes[:-1], nodes[1:])
        if not np.isin(hops, edge_keys).all():
            return digest, "path hop is not a lattice edge"
        return digest, None


class PathfindLossy(Pathfind):
    """The C16 lattice with loss: punched-out view, dead ends, wider window.

    At 2% loss the search around dead ends is about 45% of the pathfinding
    call and wires still span.  At 3% about half the wires die, after a
    search whose cost varies threefold, so op times split into two modes.
    """

    name = "pathfind-lossy"
    photon_loss = 0.02
    punched = True
    window = 30


class Experiment:
    """One `cli.run_experiment` call, the in-process body of `ballistic run`."""

    pool = 32

    def __init__(self, scenario: str, trials: int):
        self.name = scenario
        self.trials_per_op = trials

    def inputs(self, seed: int) -> list[int]:
        rnd = random.Random(f"{self.name}:{seed}")
        return [rnd.getrandbits(32) for _ in range(self.pool)]

    def warmup_inputs(self) -> list[int]:
        return self.inputs(-1)[:1]

    def run(self, api, cfg_seed: int, ctx):
        cfg = api.cli.validate_config(
            {
                "version": 1,
                "scenario": self.name,
                "seed": cfg_seed,
                "trials": self.trials_per_op,
                "threads": 1,
                "out": ctx.out_dir,
            }
        )
        return api.cli.run_experiment(cfg)

    def check(self, api, cfg_seed: int, paths):
        with open(paths["results"], "rb") as f:
            results = f.read()
        with open(paths["summary"], "rb") as f:
            summary = f.read()
        digest = sha16(results + b"\0" + summary)
        lines = results.decode().splitlines()
        if len(lines) != self.trials_per_op + 1:
            return digest, f"{len(lines) - 1} trial records, want {self.trials_per_op}"
        records = [json.loads(ln) for ln in lines[1:]]
        if [r["trial"] for r in records] != list(range(self.trials_per_op)):
            return digest, "trial records out of order"
        if any(r["seed"] != cfg_seed for r in records):
            return digest, "trial record carries the wrong seed"
        keys = set(records[0]["metrics"])
        if any(set(r["metrics"]) != keys for r in records):
            return digest, "trial records disagree on metric keys"
        if len(summary.decode().splitlines()) != len(keys) + 1:
            return digest, "summary.csv row count does not match the metrics"
        return digest, None


class _Coin:
    """Stands in for a generator: hands `measure_pauli` its pre-drawn float."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


class EngineFuzz:
    """C03 cases: op sequences replayed in the sparse engine and the oracle.

    One op is a batch of `batch` cases, about 1/20 of C03's 10,000.  A single
    case takes about 0.25 ms, so a tail over per-case latencies would time
    the host's scheduler rather than the engine.
    """

    name = "engine-fuzz"
    pool = 8
    batch = 512
    trials_per_op = batch
    max_qubits = 10
    ops_per_case = 20

    def _case(self, rnd: random.Random):
        nq = rnd.randint(2, self.max_qubits)
        alive = list(range(nq))
        ops = []
        for _ in range(self.ops_per_case):
            if len(alive) <= 1:
                break
            r = rnd.random()
            if r < 0.35:
                a, b = rnd.sample(alive, 2)
                ops.append(("cz", a, b))
            elif r < 0.50:
                ops.append(("lc", rnd.choice(alive)))
            elif r < 0.80:
                ops.append(("clifford", rnd.choice(alive), rnd.randrange(24)))
            else:
                a = rnd.choice(alive)
                ops.append(("measure", a, rnd.choice("XYZ"), rnd.random()))
                alive.remove(a)
        return nq, tuple(ops), tuple(alive)

    def inputs(self, seed: int):
        rnd = random.Random(f"{self.name}:{seed}")
        return [
            tuple(self._case(rnd) for _ in range(self.batch)) for _ in range(self.pool)
        ]

    def warmup_inputs(self):
        # A CZ between two isolated vertices that both carry the same local
        # Clifford, for all 24 of them: the non-Z-diagonal ones take the
        # engine's CZ lookup table, whose lazy build must land in set-up.
        crafted = tuple(
            (2, (("clifford", 0, c), ("clifford", 1, c), ("cz", 0, 1)), (0, 1))
            for c in range(24)
        )
        return [crafted] + self.inputs(-1)[:1]

    def run(self, api, batch, ctx):
        return [self.run_case(api, case) for case in batch]

    def run_case(self, api, case):
        nq, ops, alive = case
        g = api.graphstate.GraphRegister(nq)
        d = api.dense.DenseStabilizerState(nq)
        for op in ops:
            kind = op[0]
            if kind == "cz":
                g.apply_cz(op[1], op[2])
                d.apply_cz(op[1], op[2])
            elif kind == "lc":
                g.local_complement(op[1])
            elif kind == "clifford":
                g.apply_local_clifford(op[1], op[2])
                d.apply_clifford(op[1], op[2])
            else:
                outcome = g.measure_pauli(op[1], op[2], _Coin(op[3]))
                d.measure(op[1], op[2], forced=outcome)
        sparse = api.dense.from_graph_register(g).canonical_rows()
        return sparse, d.subsystem_canonical(alive)

    def check(self, api, batch, results):
        digest = sha16(repr([sparse for sparse, _oracle in results]).encode())
        for i, (sparse, oracle) in enumerate(results):
            if sparse != oracle:
                return digest, f"case {i}: sparse engine and dense oracle disagree"
        return digest, None


WORKLOADS = {
    wl.name: wl
    for wl in (
        Pathfind(),
        PathfindLossy(),
        Experiment("loss-sweep", trials=8),
        Experiment("mux-yield", trials=4),
        EngineFuzz(),
    )
}
