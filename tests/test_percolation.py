"""Connectivity analytics: crossing, thresholds, punch-out, pathfinding."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from ballistic.builder import CompLattice, WaferSpec, build_wafer
from ballistic.errors import ConvergenceError, SpecError
from ballistic.fusion import FusionParams
from ballistic.graphstate import GraphRegister
from ballistic.percolation import (
    _csr_adjacency,
    crossing_exists,
    estimate_threshold,
    find_paths_windowed,
    largest_component_fraction,
    punch_out,
    square_lattice_family,
    standard_error,
    sustained_layers,
    wilson_interval,
)
from ballistic.rng import trial_rng

GOLDEN = pathlib.Path(__file__).parent / "golden"


def chain_lattice(nz, broken_at=None):
    """1x1xnz lattice with a primal chain along z; optionally cut one bond."""
    alive = np.ones((1, 1, nz, 2), dtype=bool)
    edges = [(2 * z, 2 * (z + 1)) for z in range(nz - 1)]
    if broken_at is not None:
        edges.pop(broken_at)
    return CompLattice(1, 1, nz, alive, alive.copy(), np.array(edges))


def test_crossing_on_hand_lattice():
    assert crossing_exists(chain_lattice(4), "z")
    assert not crossing_exists(chain_lattice(4, broken_at=1), "z")
    with pytest.raises(SpecError):
        crossing_exists(chain_lattice(4), "w")


def test_crossing_respects_punched_flags():
    lat = chain_lattice(4)
    lat.alive_punched[0, 0, 2, 0] = False
    assert crossing_exists(lat, "z", punched=False)
    assert not crossing_exists(lat, "z", punched=True)


def test_largest_component_fraction():
    lat = chain_lattice(4, broken_at=1)
    # alive: 8 nodes; the larger primal fragment has 2 nodes
    assert largest_component_fraction(lat) == pytest.approx(2 / 8)
    empty = chain_lattice(2)
    empty.alive[:] = False
    assert largest_component_fraction(empty) == 0.0


def test_punch_out_removes_damaged_neighbors():
    g = GraphRegister(5)
    g.apply_cz(0, 1).apply_cz(0, 2).apply_cz(3, 4)
    g.remove_lost(0)
    punch_out(g, rng=np.random.default_rng(0))
    assert not g.is_alive(1) and not g.is_alive(2)
    assert g.is_alive(3) and g.is_alive(4)
    assert g.has_edge(3, 4)


def test_punch_out_with_explicit_subset():
    g = GraphRegister(4)
    g.apply_cz(0, 1).apply_cz(2, 3)
    g.remove_lost(0)
    g.remove_lost(2)
    punch_out(g, lost=[0], rng=np.random.default_rng(0))
    assert not g.is_alive(1)
    assert g.is_alive(3)


def test_wilson_interval_basics():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert hi <= 1.0 and lo > 0.8


def test_standard_error():
    assert standard_error(0.5, 100) == pytest.approx(0.05)
    assert standard_error(0.0, 100) == 0.0


def test_square_lattice_threshold_small():
    fam = square_lattice_family(24)
    lo, hi = estimate_threshold(
        fam, trial_rng(2, 0), trials=300, tolerance=0.05, lo=0.25, hi=0.75
    )
    assert hi - lo <= 0.05
    assert 0.42 <= 0.5 * (lo + hi) <= 0.58


def test_estimate_threshold_no_bracket_raises():
    with pytest.raises(ConvergenceError):
        estimate_threshold(
            lambda p, rng: True, trial_rng(0, 0), trials=50, lo=0.0, hi=1.0
        )


def test_square_lattice_family_validation():
    with pytest.raises(SpecError):
        square_lattice_family(1)


def test_windowed_pathfinding_sustains_full_chain():
    lat = chain_lattice(10)
    state = find_paths_windowed(lat, window=3)
    assert sustained_layers(state) == 9
    assert len(state.paths[0]) == 10


def test_windowed_pathfinding_stops_at_break():
    lat = chain_lattice(10, broken_at=4)
    state = find_paths_windowed(lat, window=3)
    assert sustained_layers(state) == 4


def test_windowed_pathfinding_window_validation():
    with pytest.raises(SpecError):
        find_paths_windowed(chain_lattice(4), window=0)


def test_wires_are_vertex_disjoint():
    spec = WaferSpec(
        6, 6, 12, fusion_params=FusionParams("BoostedTypeII", success_prob=0.75)
    )
    lat = build_wafer(spec, rng=trial_rng(8, 0), graph_level=False)
    state = find_paths_windowed(lat, window=5, wires=3)
    seen = set()
    for path in state.paths:
        assert not (set(path) & seen)
        seen.update(path)


def test_lossy_pathfinding_golden():
    """Lossy, punched, two-wire routing: wires die at varied layers.

    Unlike the C16 golden (every trial spans), this one moves if the
    pathfinder's choices move, even when wires still span.
    """
    golden = json.loads((GOLDEN / "pathfinding_lossy.json").read_text())
    spec = WaferSpec(
        *golden["lattice"],
        fusion_params=FusionParams(**golden["fusion"]),
        photon_loss=golden["photon_loss"],
    )
    sustained, digests = [], []
    for t in range(golden["trials"]):
        lat = build_wafer(
            spec, rng=trial_rng(golden["seed"], t), graph_level=False
        )
        state = find_paths_windowed(
            lat,
            window=golden["window"],
            wires=golden["wires"],
            punched=golden["punched"],
        )
        sustained.append(state.sustained)
        digests.append(
            hashlib.sha256(json.dumps(state.paths).encode()).hexdigest()
        )
    assert sustained == golden["sustained"]
    assert digests == golden["paths_digest"]


def _edge_list_neighbours(comp, punched):
    alive = comp.alive_flat(punched)
    nbrs = [[] for _ in range(comp.node_count)]
    for a, b in np.asarray(comp.edges).reshape(-1, 2).tolist():
        if alive[a] and alive[b]:
            nbrs[a].append(b)
            nbrs[b].append(a)
    return [sorted(ns) for ns in nbrs]


def test_csr_adjacency_matches_edge_list():
    rng = np.random.default_rng(2016)
    specs = [
        WaferSpec(1, 1, 1),
        WaferSpec(2, 2, 2, fusion_params=FusionParams(success_prob=0.0)),
    ]
    for _ in range(100):
        nx, ny, nz = (int(d) for d in rng.integers(1, 4, size=3))
        specs.append(
            WaferSpec(
                nx, ny, nz,
                fusion_params=FusionParams(
                    "BoostedTypeII", success_prob=float(rng.uniform(0.3, 1))
                ),
                photon_loss=float(rng.uniform(0.0, 0.3)),
                filter_fidelity=float(rng.uniform(0.8, 1.0)),
                filter_enabled=bool(rng.integers(2)),
            )
        )
    comps = [
        build_wafer(spec, rng=trial_rng(16, i), graph_level=False).comp
        for i, spec in enumerate(specs)
    ]
    # the two edgeless specs above, and a hand lattice whose edge array is
    # 1-D and empty
    comps.append(chain_lattice(1))
    edgeless = {0, 1, len(comps) - 1}
    assert sum(len(comp.edges) > 0 for comp in comps) >= 50
    for i, comp in enumerate(comps):
        for punched in (False, True):
            indptr, indices, _alive = _csr_adjacency(comp, punched)
            got = [
                indices[indptr[v]:indptr[v + 1]]
                for v in range(comp.node_count)
            ]
            assert got == _edge_list_neighbours(comp, punched), (i, punched)
            if i in edgeless:
                assert not any(got)
