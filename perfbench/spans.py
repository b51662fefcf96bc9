"""Spans recorded from outside the program, around calls into each layer.

`Tracer.install` replaces a function at the name its caller resolves (a
module attribute such as `ballistic.cli.build_wafer`, or a method on its
class) with a wrapper that records one span per call: a name, start and end
in nanoseconds, and the id of the enclosing span.  Spans stay in memory in
flat arrays and are written out once, when the run ends.

Per-layer counts come from what crosses the boundary: the call's arguments
and return value, never the program's internal state.
"""

from __future__ import annotations

import collections
import gzip
import os
from array import array
from time import perf_counter_ns

ROOT = "bench.op"

# (span name, where the caller resolves it, attribute).  `where` is a dotted
# path below `ballistic`; the last part may name a class.
TARGETS = (
    ("cli.run_experiment", "cli", "run_experiment"),
    ("builder.build_wafer", "cli", "build_wafer"),
    ("builder.build_wafer", "builder", "build_wafer"),
    ("percolation.crossing_exists", "cli", "crossing_exists"),
    ("percolation.find_paths_windowed", "percolation", "find_paths_windowed"),
    ("multiplex.yield_curve", "cli", "yield_curve"),
    ("multiplex.sliding_window_match", "multiplex", "sliding_window_match"),
    ("multiplex.matching_rmux", "multiplex", "matching_rmux"),
    ("multiplex.delivered_pairs", "multiplex", "delivered_pairs"),
    ("multiplex.route_with_delays", "multiplex", "route_with_delays"),
    ("graphstate.apply_cz", "graphstate.GraphRegister", "apply_cz"),
    ("graphstate.local_complement", "graphstate.GraphRegister", "local_complement"),
    ("graphstate.apply_local_clifford", "graphstate.GraphRegister", "apply_local_clifford"),
    ("graphstate.measure_pauli", "graphstate.GraphRegister", "measure_pauli"),
    ("dense.apply_cz", "dense.DenseStabilizerState", "apply_cz"),
    ("dense.apply_clifford", "dense.DenseStabilizerState", "apply_clifford"),
    ("dense.measure", "dense.DenseStabilizerState", "measure"),
    ("dense.from_graph_register", "dense", "from_graph_register"),
    ("dense.subsystem_canonical", "dense.DenseStabilizerState", "subsystem_canonical"),
    ("dense.canonical_rows", "dense.DenseStabilizerState", "canonical_rows"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _w, _a in TARGETS))


def resolve(ballistic, where: str):
    """The module or class that `where` names below the package."""
    owner = ballistic
    for part in where.split("."):
        owner = getattr(owner, part)
    return owner


def _on_build(c, args, lat):
    comp = lat.comp
    c["builder.nodes"] += comp.node_count
    c["builder.edges"] += len(comp.edges)
    c["builder.fusions"] += lat.resource_report["fusions_attempted"]
    c["builder.alive_punched"] += int(comp.alive_punched.sum())


def _on_crossing(c, args, crossed):
    c["percolation.crossings"] += 1
    c["percolation.crossing_true"] += bool(crossed)


def _on_pathfind(c, args, state):
    comp = args[0].comp
    c["percolation.pathfind_edges_in"] += len(comp.edges)
    c["percolation.layers_sustained"] += sum(state.sustained)
    c["percolation.wires"] += len(state.sustained)
    c["percolation.wires_spanned"] += sum(s == comp.nz - 1 for s in state.sustained)


def _on_route(c, args, ret):
    out, collisions = ret
    dropped = sum(len(members) for _label, _t, members in collisions)
    c["multiplex.photons_routed"] += len(out.photon_bins) + dropped
    c["multiplex.photons_dropped"] += dropped


def _on_matching(c, args, pairs):
    c["multiplex.pairs_matched"] += len(pairs)
    c["multiplex.photons_available"] += min(
        len(args[0].photon_bins), len(args[1].photon_bins)
    )


def _on_run_experiment(c, args, paths):
    c["cli.bytes_written"] += sum(
        os.path.getsize(paths[k]) for k in ("results", "summary")
    )


HOOKS = {
    "builder.build_wafer": _on_build,
    "percolation.crossing_exists": _on_crossing,
    "percolation.find_paths_windowed": _on_pathfind,
    "multiplex.route_with_delays": _on_route,
    "multiplex.matching_rmux": _on_matching,
    "cli.run_experiment": _on_run_experiment,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._targets: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        sid = self._open(self._intern(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        hook = HOOKS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                ret = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hook(counts, args, ret)
            return ret

        traced.__wrapped__ = fn
        return traced

    def install(self, ballistic) -> None:
        """Wrap every target; `uninstall` puts the originals back."""
        if not self._targets:
            for name, where, attr in TARGETS:
                owner = resolve(ballistic, where)
                original = owner.__dict__[attr]
                self._targets.append((owner, attr, original, self._wrap(name, original)))
        for owner, attr, _original, traced in self._targets:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _traced in self._targets:
            setattr(owner, attr, original)

    def span_self_ns(self) -> list[int]:
        """Each span's duration minus its direct children's durations.

        Calls are synchronous, so children nest inside their parent.
        """
        own = [self.end[s] - self.start[s] for s in range(len(self.start))]
        out = list(own)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[sid]
        return out

    def self_times(self) -> tuple[dict, dict]:
        """(calls, self nanoseconds) per span name."""
        calls: collections.Counter = collections.Counter()
        self_ns: collections.Counter = collections.Counter()
        for sid, ns in enumerate(self.span_self_ns()):
            name = self.names[self.name_id[sid]]
            calls[name] += 1
            self_ns[name] += ns
        return dict(calls), dict(self_ns)

    def root_ns(self) -> int:
        """Total duration of the top-level spans."""
        return sum(
            self.end[s] - self.start[s]
            for s in range(len(self.start))
            if self.parent[s] < 0
        )

    def write(self, path: str) -> None:
        """Write every span as gzipped tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                f.write(
                    f"{sid}\t{self.parent[sid]}\t{self.names[self.name_id[sid]]}"
                    f"\t{self.start[sid]}\t{self.end[sid]}\n"
                )
