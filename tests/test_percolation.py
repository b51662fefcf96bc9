"""Connectivity analytics: crossing, thresholds, punch-out, pathfinding."""

import hashlib
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from ballistic import acceptance, percolation
from ballistic.acceptance import _bisect_half
from ballistic.builder import (
    BuiltLattice,
    CompLattice,
    WaferSpec,
    build_wafer,
    build_wafers,
)
from ballistic.errors import SpecError
from ballistic.fusion import FusionParams
from ballistic.graphstate import GraphRegister
from ballistic.percolation import (
    _csr_adjacency,
    _reach_score,
    _Trail,
    crossing_exists,
    crossings,
    find_paths_windowed,
    raw_span,
    square_lattice_crosses,
    sustained_layers,
)
from ballistic.rng import trial_rng
from graph_oracle import _comp_from_register, lose

GOLDEN = pathlib.Path(__file__).parent / "golden"
UNBOOSTED = FusionParams("BoostedTypeII", success_prob=0.5)


def built(comp):
    """A hand-made lattice in the form every analysis takes."""
    return BuiltLattice({}, comp)


def chain_lattice(nz, broken_at=None):
    """1x1xnz lattice with a primal chain along z; optionally cut one bond."""
    alive = np.ones((1, 1, nz, 2), dtype=bool)
    edges = [(2 * z, 2 * (z + 1)) for z in range(nz - 1)]
    if broken_at is not None:
        edges.pop(broken_at)
    return built(CompLattice(1, 1, nz, alive, alive.copy(), np.array(edges)))


def test_crossing_on_hand_lattice():
    assert crossing_exists(chain_lattice(4))
    assert not crossing_exists(chain_lattice(4, broken_at=1))


def test_crossing_respects_punched_flags():
    lat = chain_lattice(4)
    lat.comp.alive_punched[0, 0, 2, 0] = False
    assert crossing_exists(lat, punched=False)
    assert not crossing_exists(lat, punched=True)


def test_largest_component_fraction():
    lat = chain_lattice(4, broken_at=1)
    # alive: 8 nodes; the larger primal fragment has 2 nodes
    assert raw_span(lat) == (False, pytest.approx(2 / 8))
    empty = chain_lattice(2)
    empty.comp.alive[:] = False
    assert raw_span(empty) == (False, 0.0)


def _old_labels(comp, punched):
    """`percolation._labels` as it was: one `coo_matrix` per lattice, dead
    nodes labelled -1."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    alive = comp.alive_flat(punched)
    n = comp.node_count
    e = comp.edges
    if len(e):
        keep = alive[e[:, 0]] & alive[e[:, 1]]
        e = e[keep]
    if len(e):
        m = coo_matrix(
            (np.ones(len(e), dtype=np.int8), (e[:, 0], e[:, 1])), shape=(n, n)
        )
        _, labels = connected_components(m, directed=False)
    else:
        labels = np.arange(n)
    labels = labels.copy()
    labels[~alive] = -1
    return labels, alive


def _old_crossing_exists(comp, axis, punched):
    labels, _alive = _old_labels(comp, punched)
    lab = labels.reshape(comp.nx, comp.ny, comp.nz, 2)
    ax = {"x": 0, "y": 1, "z": 2}[axis]
    lo = np.moveaxis(lab, ax, 0)[0]
    hi = np.moveaxis(lab, ax, 0)[-1]
    return bool(set(lo[lo >= 0].ravel().tolist()) & set(hi[hi >= 0].ravel().tolist()))


def _old_largest_component_fraction(comp, punched):
    labels, alive = _old_labels(comp, punched)
    total = int(alive.sum())
    if total == 0:
        return 0.0
    return float(np.bincount(labels[labels >= 0]).max()) / total


def _labelling_cases():
    """Lists of same-shape lattices: 240 seeded wafers over five shapes,
    loss 0-0.3 and success_prob 0-1 (those at 0 have no edge), one with no
    alive node per shape, and hand-made chains."""
    for k, shape in enumerate(((1, 1, 1), (2, 3, 4), (4, 4, 4), (3, 5, 2), (6, 3, 8))):
        specs = [
            WaferSpec(
                *shape,
                fusion_params=FusionParams("BoostedTypeII", success_prob=sp),
                photon_loss=loss,
            )
            for loss, sp, _trial in itertools.product(
                (0.0, 0.05, 0.15, 0.3), (0.0, 0.5, 0.75, 1.0), range(3)
            )
        ]
        specs.append(
            WaferSpec(*shape, fusion_params=UNBOOSTED, filter_fidelity=0.0)
        )
        rngs = [trial_rng(31, 1000 * k + i) for i in range(len(specs))]
        yield build_wafers(specs, rngs)
    punched = chain_lattice(4)
    punched.comp.alive_punched[0, 0, 2, 0] = False
    dead = chain_lattice(4)
    dead.comp.alive[:] = False
    no_edges = built(CompLattice(
        1, 1, 4, np.ones((1, 1, 4, 2), bool), np.ones((1, 1, 4, 2), bool),
        np.zeros((0, 2), dtype=np.int64),
    ))
    yield [chain_lattice(4), chain_lattice(4, broken_at=1), punched, dead, no_edges]


def test_crossings_match_old_labelling():
    """One labelling of each list answers as one old `coo_matrix` labelling
    per lattice, along z, raw and punched, and `raw_span`'s one raw
    labelling of a lattice gives the old raw crossing and largest component."""
    cases = list(_labelling_cases())
    assert sum(map(len, cases)) >= 200
    for lats, punched in itertools.product(cases, (False, True)):
        want = [_old_crossing_exists(lat.comp, "z", punched) for lat in lats]
        assert crossings(lats, punched) == want, (lats[0].comp.nx, punched)
        assert [crossing_exists(lat, punched) for lat in lats] == want
    for lats in cases:
        for lat in lats:
            assert raw_span(lat) == (
                _old_crossing_exists(lat.comp, "z", False),
                _old_largest_component_fraction(lat.comp, False),
            )


def _first_index(labels):
    """Each node's label replaced by the first node id with that label, so
    two labellings compare as partitions whatever their label values."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


def _scipy_partition(comps, punched):
    """The partition of the disjoint union of `comps` by one scipy
    `connected_components` call per lattice, over edges with two alive ends."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    parts = []
    for i, comp in enumerate(comps):
        n = comp.node_count
        alive = comp.alive_flat(punched)
        e = comp.edges.reshape(-1, 2)
        e = e[alive[e[:, 0]] & alive[e[:, 1]]]
        m = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
        parts.append(connected_components(m, directed=False)[1] + i * n)
    return _first_index(np.concatenate(parts))


def _maybe(fidelity, enabled):
    """A filter of `fidelity` where `enabled`, else no filter: both drawn
    whatever the choice, so later draws do not depend on it."""
    return fidelity if enabled else None


def _random_wafer_lists(count, seed):
    """`count` lists of 1-4 same-shape wafers with random sides (nz may be
    1), losses, fusion success and filtering."""
    pick = np.random.default_rng(seed)
    for k in range(count):
        nx, ny, nz = (int(s) for s in pick.integers(1, (6, 6, 9)))
        specs = [
            WaferSpec(
                nx, ny, nz,
                fusion_params=FusionParams(
                    "BoostedTypeII", success_prob=float(pick.choice([0.0, 0.5, 0.75, 1.0]))
                ),
                photon_loss=float(pick.uniform(0.0, 0.3)),
                filter_fidelity=_maybe(
                    float(pick.uniform(0.5, 1.0)), pick.random() < 0.3
                ),
            )
            for _ in range(int(pick.integers(1, 5)))
        ]
        yield build_wafers(specs, [trial_rng(seed, 100 * k + i) for i in range(len(specs))])


def _shuffled_path(nz, seed):
    """A 1x1xnz lattice, all alive, whose edges join all 2 * nz nodes in one
    path through a random order of their ids."""
    order = np.random.default_rng(seed).permutation(2 * nz)
    edges = np.stack([order[:-1], order[1:]], axis=1)
    alive = np.ones((1, 1, nz, 2), dtype=bool)
    return built(CompLattice(1, 1, nz, alive, alive.copy(), edges))


def test_labels_partition_matches_scipy():
    """`_labels` splits the union into the components scipy finds, on 240
    random wafer lists and on hand cases, raw and punched.  The shuffled
    paths need several hook rounds."""
    empty = np.zeros((0, 2), dtype=np.int64)
    no_edges = built(CompLattice(
        2, 1, 3, np.ones((2, 1, 3, 2), bool), np.ones((2, 1, 3, 2), bool), empty
    ))
    dead = chain_lattice(6)
    dead.comp.alive[:] = False
    dead.comp.alive_punched[:] = False
    one_layer = built(CompLattice(
        3, 1, 1, np.ones((3, 1, 1, 2), bool), np.ones((3, 1, 1, 2), bool),
        np.array([[0, 1], [2, 4], [4, 5]]),
    ))
    cases = [*_random_wafer_lists(240, 7), [no_edges], [dead], [one_layer],
             [no_edges, no_edges], [chain_lattice(6), dead, chain_lattice(6, 2)],
             [_shuffled_path(10_000, 1), _shuffled_path(10_000, 2)]]
    assert sum(lat.comp.nz == 1 for lats in cases for lat in lats) >= 20
    for lats, punched in itertools.product(cases, (False, True)):
        comps = [lat.comp for lat in lats]
        labels, alive = percolation._labels(comps, punched)
        assert labels.shape == alive.shape == (len(comps) * comps[0].node_count,)
        want = _scipy_partition(comps, punched)
        np.testing.assert_array_equal(_first_index(labels), want)


def test_crossings_reject_mixed_shapes():
    with pytest.raises(SpecError, match="one shape"):
        crossings([chain_lattice(4), chain_lattice(5)])
    assert crossings([]) == []


def test_punch_out_removes_damaged_neighbors():
    # A loss leaves its neighbours' byproduct frames unknown; the graph-level
    # oracle drops exactly those qubits from the punched view.
    g = GraphRegister(5)
    g.apply_cz(0, 1).apply_cz(0, 2).apply_cz(3, 4)
    unknown = set()
    lose(g, 0, unknown)
    cells = {(0, 0, 0): (1, 2), (0, 0, 1): (3, 4)}
    spec = WaferSpec(1, 1, 2, fusion_params=UNBOOSTED)
    comp = _comp_from_register(spec, g, cells, unknown)
    assert comp.alive.all()
    assert comp.alive_punched.ravel().tolist() == [False, False, True, True]
    assert comp.edges.tolist() == [[2, 3]]


# -- square-lattice crossing and the threshold bisection -------------------


def old_square_lattice_family(n):
    """The coo_matrix sampler that `square_lattice_crosses` replaced, kept
    as its reference: (p, rng) -> whether a left-right crossing exists."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    idx = np.arange(n * n).reshape(n, n)
    ea = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    eb = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])

    def sample(p, rng):
        keep = rng.random(len(ea)) < p
        m = coo_matrix(
            (np.ones(int(keep.sum()), dtype=np.int8), (ea[keep], eb[keep])),
            shape=(n * n, n * n),
        )
        _, labels = connected_components(m, directed=False)
        return bool(np.isin(labels[idx[:, 0]], labels[idx[:, -1]]).any())

    return sample


def test_square_lattice_crosses_matches_old_family():
    # seed 0 draws at p = 0, seed 1 at p = 1, later seeds at random p; the
    # trial index is the side n, so each (seed, trial) stream is used once
    # and fresh on both sides
    olds = {n: old_square_lattice_family(n) for n in range(2, 41)}
    outcomes = []
    for seed in range(60):
        ps = np.random.default_rng(seed).random(41)
        for n in range(2, 41):
            p = (0.0, 1.0)[seed] if seed < 2 else float(ps[n])
            got = square_lattice_crosses(n, p, trial_rng(seed, n))
            assert type(got) is bool
            assert got == olds[n](p, trial_rng(seed, n)), (seed, n, p)
            outcomes.append(got)
    assert len(outcomes) >= 2000
    assert not any(outcomes[:39]) and all(outcomes[39:78])
    assert 0.2 < np.mean(outcomes[78:]) < 0.8


def test_square_lattice_crosses_validation():
    with pytest.raises(SpecError):
        square_lattice_crosses(1, 0.5, trial_rng(0, 0))


def test_square_lattice_threshold_small():
    rng = trial_rng(2, 0)

    def frac(p, _i):
        return sum(square_lattice_crosses(24, p, rng) for _ in range(300)) / 300

    lo, hi = _bisect_half(frac, 0.25, 0.75, True)
    assert hi - lo <= 0.05
    assert 0.42 <= 0.5 * (lo + hi) <= 0.58


class OldConvergenceError(Exception):
    pass


def old_wilson_interval(successes, trials, z=2.5758):
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return center - half, center + half


def old_estimate_threshold(
    family, rng, trials=1000, tolerance=0.02, lo=0.0, hi=1.0, max_iterations=40
):
    """The bisection C08 used before `_bisect_half`, kept as its reference."""
    def probe(p):
        hits = sum(bool(family(p, rng)) for _ in range(trials))
        return hits, old_wilson_interval(hits, trials)

    _hits_lo, w_lo = probe(lo)
    _hits_hi, w_hi = probe(hi)
    if w_lo[0] > 0.5 or w_hi[1] < 0.5:
        raise OldConvergenceError("family does not bracket crossing probability 1/2")
    it = 0
    while hi - lo > tolerance:
        it += 1
        if it > max_iterations:
            raise OldConvergenceError("bisection did not converge")
        mid = 0.5 * (lo + hi)
        hits, _w = probe(mid)
        if hits / trials >= 0.5:
            hi = mid
        else:
            lo = mid
    return lo, hi


def old_bisect_half_spanning(frac, lo, hi, seed, rising, what, found):
    """The bisection C10 and C11 used before `_bisect_half`, kept as its
    reference."""
    f_lo, f_hi = frac(lo, seed), frac(hi, seed + 1)
    if not ((f_lo < 0.5 < f_hi) if rising else (f_lo > 0.5 > f_hi)):
        return False, f"no bracket: {what} {f_lo:.2f}@{lo}, {f_hi:.2f}@{hi}"
    a, b = lo, hi
    for k in range(5):
        mid = 0.5 * (a + b)
        if (frac(mid, seed + 2 + k) >= 0.5) == rising:
            b = mid
        else:
            a = mid
    crit = 0.5 * (a + b)
    return lo <= crit <= hi, found.format(crit)


def _sigmoid_step(c, width, rising=True):
    def prob(x):
        return 1 / (1 + math.exp((c - x) / width if rising else (x - c) / width))
    return prob


def _half_band(c1, c2):
    # each probe makes an even number of calls, so half of them are True
    calls = itertools.count()
    return lambda p, rng: p >= c2 or (p >= c1 and next(calls) % 2 == 0)


def test_bisect_half_matches_old_estimate_threshold():
    # C08's bracket: lo 0.3, hi 0.7, tolerance 0.02, which took five steps
    trials = 50
    stubs = {
        "constant 0": lambda p, rng: False,
        "constant 1": lambda p, rng: True,
        **{
            f"step at {c}": (lambda c: lambda p, rng: p >= c)(c)
            for c in (0.3, 0.31, 0.4, 0.45, 0.5, 0.5125, 0.6, 0.6875, 0.7, 0.71)
        },
        **{
            f"noisy step at {c}": (lambda prob: lambda p, rng: rng.random() < prob(p))(
                _sigmoid_step(c, 0.03)
            )
            for c in (0.41, 0.47, 0.5, 0.56)
        },
        "exactly half in [0.45, 0.55)": _half_band(0.45, 0.55),
    }
    bracketed = 0
    for seed, (name, family) in enumerate(stubs.items()):
        old_probes = []

        def logged(p, rng):
            old_probes.append(p)
            return family(p, rng)

        try:
            want = old_estimate_threshold(
                logged, trial_rng(seed, 0), trials=trials, tolerance=0.02, lo=0.3, hi=0.7
            )
        except OldConvergenceError:
            want = None
        new_probes = []
        rng = trial_rng(seed, 0)

        def frac(p, i):
            new_probes.append((p, i))
            return sum(bool(family(p, rng)) for _ in range(trials)) / trials

        got = _bisect_half(frac, 0.3, 0.7, True)
        assert got == want, name
        assert [p for p, _i in new_probes] == old_probes[::trials], name
        assert [i for _p, i in new_probes] == list(range(len(new_probes))), name
        bracketed += got is not None
    assert bracketed == 13


def test_bisect_half_matches_old_spanning_bisection():
    # C10's rising range and C11's falling one, each with its base seed
    bracketed = 0
    for lo, hi, base, rising in ((0.90, 0.99, 1010, True), (0.005, 0.08, 1020, False)):
        stubs = [lambda x, seed: 0.0, lambda x, seed: 0.5, lambda x, seed: 1.0]
        # exactly 1/2 around the first midpoint, where >= 0.5 decides
        mid, q = 0.5 * (lo + hi), (hi - lo) / 10
        stubs.append(
            lambda x, seed: 0.5 if abs(x - mid) < q else float((x > mid) == rising)
        )
        for c in np.linspace(lo, hi, 9).tolist():
            stubs.append((lambda c: lambda x, seed: float((x >= c) == rising))(c))
            prob = _sigmoid_step(c, (hi - lo) / 20, rising)
            stubs.append(
                (lambda prob: lambda x, seed: float(
                    np.mean(np.random.default_rng(seed).random(60) < prob(x))
                ))(prob)
            )
        for frac in stubs:
            old_calls, new_calls = [], []

            def old_frac(x, seed):
                old_calls.append((x, seed))
                return frac(x, seed)

            def new_frac(x, i):
                new_calls.append((x, base + i))
                return frac(x, base + i)

            ok, details = old_bisect_half_spanning(
                old_frac, lo, hi, base, rising, "spanning", "{!r}"
            )
            got = _bisect_half(new_frac, lo, hi, rising)
            assert new_calls == old_calls, (lo, old_calls)
            if details.startswith("no bracket"):
                assert (ok, got) == (False, None), (lo, details)
            else:
                assert ok and 0.5 * (got[0] + got[1]) == float(details), (lo, details)
                bracketed += 1
    assert bracketed >= 20


def test_checks_report_no_bracket(monkeypatch):
    # the details are those of the bisection the checks used before
    monkeypatch.setattr(acceptance, "_spanning_fraction", lambda *a, **k: 0.0)
    assert acceptance.check_filter_critical() == old_bisect_half_spanning(
        lambda x, seed: 0.0, 0.90, 0.99, 1010, True, "spanning", ""
    ) == (False, "no bracket: spanning 0.00@0.9, 0.00@0.99")
    assert acceptance.check_punchout_threshold() == old_bisect_half_spanning(
        lambda x, seed: 0.0, 0.005, 0.08, 1020, False, "recovered spanning", ""
    )
    monkeypatch.setattr(acceptance, "square_lattice_crosses", lambda n, p, rng: True)
    assert acceptance.check_bond_threshold() == (
        False, "no bracket: crossing 1.00@0.3, 1.00@0.7"
    )


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
    bad = [
        {"window": 0},
        {"window": -2},
        {"window": 2.5},
        {"window": 3.0},
        {"window": True},
        {"window": "3"},
        {"window": 3, "wires": 0},
        {"window": 3, "wires": -3},
        {"window": 3, "wires": 1.5},
        {"window": 3, "wires": True},
        {"window": np.bool_(True)},
    ]
    for args in bad:
        with pytest.raises(SpecError):
            find_paths_windowed(chain_lattice(4), **args)
    # Any integral type is accepted and routes as the equal int does.
    want = find_paths_windowed(chain_lattice(4), window=3, wires=2)
    got = find_paths_windowed(chain_lattice(4), window=np.int64(3), wires=np.int32(2))
    assert (got.paths, got.sustained) == (want.paths, want.sustained)


def test_wires_are_vertex_disjoint():
    spec = WaferSpec(
        6, 6, 12, fusion_params=FusionParams("BoostedTypeII", success_prob=0.75)
    )
    lat = build_wafer(spec, rng=trial_rng(8, 0))
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
        lat = build_wafer(spec, rng=trial_rng(golden["seed"], t))
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
        WaferSpec(1, 1, 1, fusion_params=UNBOOSTED),
        WaferSpec(2, 2, 2, fusion_params=FusionParams("BoostedTypeII", success_prob=0.0)),
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
                filter_fidelity=_maybe(float(rng.uniform(0.8, 1.0)), rng.integers(2)),
            )
        )
    # lossless and unfiltered: every node is alive in both views, so the
    # alive-edge filter is skipped
    for _ in range(20):
        nx, ny, nz = (int(d) for d in rng.integers(1, 4, size=3))
        specs.append(
            WaferSpec(
                nx, ny, nz,
                fusion_params=FusionParams(
                    "BoostedTypeII", success_prob=float(rng.uniform(0.3, 1))
                ),
            )
        )
    comps = [
        build_wafer(spec, rng=trial_rng(16, i)).comp
        for i, spec in enumerate(specs)
    ]
    # the two edgeless specs above, and a hand lattice whose edge array is
    # 1-D and empty
    comps.append(chain_lattice(1).comp)
    edgeless = {0, 1, len(comps) - 1}
    assert sum(len(comp.edges) > 0 for comp in comps) >= 50
    all_alive = [
        len(comp.edges) > 0 and comp.alive.all() and comp.alive_punched.all()
        for comp in comps
    ]
    assert sum(all_alive[-21:-1]) >= 15
    for i, comp in enumerate(comps):
        for punched in (False, True):
            indptr, indices, _alive = _csr_adjacency(comp, punched)
            got = [
                indices[indptr[v]:indptr[v + 1]].tolist()
                for v in range(comp.node_count)
            ]
            assert got == _edge_list_neighbours(comp, punched), (i, punched)
            if i in edgeless:
                assert not any(got)


def oracle_reach_score(indptr, indices, layer, start, z_lo, z_hi, used):
    """Reference reach score: a plain DFS in ascending neighbour order."""
    best = layer[start]
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in indices[indptr[u]:indptr[u + 1]]:
            if w in seen or w in used:
                continue
            zw = layer[w]
            if not z_lo <= zw <= z_hi:
                continue
            if zw > best:
                best = zw
                if best >= z_hi:
                    return best
            seen.add(w)
            stack.append(w)
    return best


def oracle_find_paths_windowed(lattice, window, wires=1, punched=False):
    """Reference router: every candidate is scored from scratch, with `used`
    plus its hop chain copied into one excluded set."""
    comp = lattice.comp
    indptr, indices, alive = _csr_adjacency(comp, punched)
    nz = comp.nz
    layer_arr = (np.arange(comp.node_count) // 2) % nz
    layer = layer_arr.tolist()
    used = set()
    paths, sustained = [], []
    layer0 = np.flatnonzero(alive & (layer_arr == 0)).tolist()
    for _wire in range(wires):
        start, start_score = None, -1
        for v in layer0:
            if v in used:
                continue
            score = oracle_reach_score(
                indptr, indices, layer, v, 0, min(window, nz - 1), used
            )
            if score > start_score:
                start, start_score = v, score
                if score >= min(window, nz - 1):
                    break
        if start is None:
            paths.append([])
            sustained.append(0)
            continue
        path = [start]
        used.add(start)
        cur, z = start, 0
        while z < nz - 1:
            z_hi = min(z + window, nz - 1)
            z_lo = max(0, z - window)
            parents = {cur: None}
            frontier = [cur]
            best, best_score = None, -1
            while frontier and best_score < z_hi:
                nxt, new_candidates = [], []
                for u in frontier:
                    for w in indices[indptr[u]:indptr[u + 1]]:
                        if w in parents or w in used:
                            continue
                        zw = layer[w]
                        if not z_lo <= zw <= z_hi:
                            continue
                        parents[w] = u
                        nxt.append(w)
                        if zw == z + 1:
                            new_candidates.append(w)
                for v in sorted(new_candidates):
                    hop_used = set(used)
                    node = v
                    while node is not None:
                        hop_used.add(node)
                        node = parents[node]
                    score = oracle_reach_score(
                        indptr, indices, layer, v, z_lo, z_hi, hop_used
                    )
                    if score > best_score:
                        best, best_score = v, score
                        if score >= z_hi:
                            break
                frontier = nxt
            if best is None:
                break
            hop = []
            node = best
            while node is not None and node != cur:
                hop.append(node)
                node = parents[node]
            for v in reversed(hop):
                path.append(v)
                used.add(v)
            cur = best
            z += 1
        paths.append(path)
        sustained.append(z)
    return paths, sustained


def random_layered_lattice(rng):
    """A sparse random graph on a 2-10 x 1 x 6-60 lattice's node ids.

    Edges join nodes at most one layer apart, as lattice bonds do, or in
    some graphs two, with no cell structure, so dead ends, detours and
    wires that die are common.  Each node has 1-6 edges on average, and
    about a tenth of the nodes are dead in the punched view.
    """
    nx, nz = int(rng.integers(2, 11)), int(rng.integers(6, 61))
    n = nx * nz * 2
    reach = int(rng.choice([1, 1, 2]))
    a = rng.integers(n, size=int(n * rng.uniform(0.5, 3)))
    zb = (a // 2) % nz + rng.integers(-reach, reach + 1, size=len(a))
    cell = rng.integers(nx, size=len(a))
    b = 2 * (cell * nz + zb) + rng.integers(2, size=len(a))
    keep = (0 <= zb) & (zb < nz) & (a != b)
    a, b = a[keep], b[keep]
    key = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    edges = np.stack([key // n, key % n], 1)
    alive = np.ones((nx, 1, nz, 2), dtype=bool)
    punched = rng.random(alive.shape) > 0.1
    return built(CompLattice(nx, 1, nz, alive, punched, edges))


def random_wafer(
    rng, i, cells=(1, 4), layers=(2, 60), loss=(0.0, 0.15),
    success=(0.5, 0.75, 1.0),
):
    """A bond-level wafer with cells per x/y, nz, loss and fusion success
    probability drawn from the given ranges and choices."""
    nx, ny = (int(d) for d in rng.integers(cells[0], cells[1] + 1, size=2))
    spec = WaferSpec(
        nx, ny, int(rng.integers(layers[0], layers[1] + 1)),
        fusion_params=FusionParams(
            "BoostedTypeII", success_prob=float(rng.choice(success))
        ),
        photon_loss=float(rng.uniform(*loss)),
    )
    return build_wafer(spec, rng=trial_rng(61, i))


def router_cases():
    """(lattice, window, wires, punched) cases on which the router must
    route as the old router does.

    Small wafers and random layered graphs cover edge shapes; the large
    lossy wafers, with narrow windows and three wires, are where a
    witness runs back through the next hop chain or below the next
    window, so they are what tells a lead that is stacked unchecked.
    """
    rng = np.random.default_rng(2007)
    cases = [
        (random_wafer(rng, i), int(rng.integers(1, 13)),
         int(rng.integers(1, 4)), bool(rng.integers(2)))
        for i in range(300)
    ]
    cases += [
        (random_layered_lattice(rng), int(rng.integers(1, 11)), 3,
         bool(rng.integers(2)))
        for _ in range(600)
    ]
    cases += [
        (random_wafer(rng, i, (6, 12), (100, 200), (0.02, 0.06), [0.75]),
         int(rng.integers(3, 8)), 3, True)
        for i in range(300, 340)
    ]
    cases += [
        (chain_lattice(nz, broken), window, 2, False)
        for nz, broken in [(1, None), (2, None), (2, 0), (7, None), (7, 0),
                           (7, 5)]
        for window in (1, 3, 9)
    ]
    return cases


def test_router_matches_old_router():
    """Upward-first scores with witness reuse route exactly as before."""
    for i, (lat, window, wires, punched) in enumerate(router_cases()):
        state = find_paths_windowed(
            lat, window=window, wires=wires, punched=punched
        )
        want = oracle_find_paths_windowed(lat, window, wires, punched)
        # repr also tells a numpy integer from a Python int
        assert repr((state.paths, state.sustained)) == repr(want), i


def _random_path(rng, indptr, indices, start, steps, allowed):
    """A self-avoiding random walk from `start` through `allowed` nodes,
    without `start` itself."""
    path, u = [], start
    for _ in range(steps):
        ns = [w for w in indices[indptr[u]:indptr[u + 1]]
              if w != start and w not in path and allowed(w)]
        if not ns:
            break
        u = ns[int(rng.integers(len(ns)))]
        path.append(u)
    return path


def trail_of(layer, nz, nodes):
    """A router trail whose live witness is `nodes`."""
    trail = _Trail(layer, nz)
    trail.keep(0, 0, list(nodes))
    return trail


def check_reach(indptr, indices, layer, hop, z_lo, z_hi, used, trail, j):
    """`_reach_score`'s result, after checking the score against the plain
    DFS and the witness nodes[j:cut] + tail for a path from the start to
    layer z_hi through allowed nodes only (or empty, when the score stays
    below z_hi)."""
    score, cut, tail = _reach_score(
        indptr, indices, layer, hop, z_lo, z_hi, used, trail, j
    )
    witness = trail.nodes[j:cut] + list(tail)
    start = hop[-1]
    assert score == oracle_reach_score(
        indptr, indices, layer, start, z_lo, z_hi, used | set(hop)
    )
    if score < z_hi:
        assert witness == []
        return score, cut, tail
    assert witness[0] == start and layer[witness[-1]] == z_hi
    assert len(set(witness)) == len(witness)
    for u, w in zip(witness, witness[1:]):
        assert w in indices[indptr[u]:indptr[u + 1]]
        assert w not in used and w not in hop
        assert z_lo <= layer[w] <= z_hi
    return score, cut, tail


def test_router_keeps_witnesses_that_need_no_check(monkeypatch):
    """Every witness the router keeps holds what `_reach_score` takes on
    trust: it is simple, its rest keeps out of `used` (so of every hop
    committed since), it lies inside the window it was made in, which is
    at most one layer below the current one, and only its last node sits
    in its top layer.  The trail's index map and layer counts match its
    live nodes.  Checked at every call over `router_cases`; that the
    routes match the old router's is `test_router_matches_old_router`."""
    calls = [0, 0]  # calls with a live trail, and with the start on it

    def checked(indptr, indices, layer, hop, z_lo, z_hi, used, trail, j):
        nodes, s = trail.nodes, trail.start
        live = nodes[s:]
        if live:
            calls[0] += 1
            calls[1] += j < len(nodes)
            zs = [layer[w] for w in live]
            assert live[0] == hop[0] and len(set(live)) == len(live)
            assert used.isdisjoint(live[1:])
            assert max(z_lo - 1, 0) <= min(zs) and zs[-1] <= z_hi
            assert max(zs[:-1], default=-1) < zs[-1]
            assert trail.at == {w: i for i, w in enumerate(nodes) if i >= s}
            assert trail.count == np.bincount(zs, minlength=len(trail.count)).tolist()
        score, cut, tail = _reach_score(
            indptr, indices, layer, hop, z_lo, z_hi, used, trail, j
        )
        witness = nodes[j:cut] + list(tail)
        if score >= z_hi:
            zs = [layer[w] for w in witness]
            assert witness[0] == hop[-1] and len(set(witness)) == len(witness)
            assert used.isdisjoint(witness) and not set(hop).intersection(witness[1:])
            assert z_lo <= min(zs) and max(zs[:-1], default=-1) < zs[-1] == z_hi
        else:
            assert witness == []
        return score, cut, tail

    monkeypatch.setattr(percolation, "_reach_score", checked)
    for lat, window, wires, punched in router_cases():
        find_paths_windowed(lat, window=window, wires=wires, punched=punched)
    # seen: 37405 calls with a live trail, 19905 of them from a start on it
    assert calls[0] >= 30000 and calls[1] >= 15000, calls


def ladder(nz, width=2):
    """`width` primal columns A, B, ... of nz layers, each joined to the
    next at every layer, and the columns' node lists."""
    cols = [[2 * (c * nz + z) for z in range(nz)] for c in range(width)]
    edges = [(col[z], col[z + 1]) for col in cols for z in range(nz - 1)]
    for left, right in zip(cols, cols[1:]):
        edges += list(zip(left, right))
    alive = np.ones((width, 1, nz, 2), dtype=bool)
    comp = CompLattice(width, 1, nz, alive, alive.copy(), np.array(edges))
    return (comp, *cols)


def test_reach_score_lead_checks_and_best_first_search():
    """One trail per check that drops a lead, a lead kept past a low node
    before the start, tips that force the best-first search, and searches
    from off the trail that join it or are refused.  Each trail is shaped
    as the router keeps it: a simple path whose top layer is at its end
    only.  `tail` is what the search adds to the part of the trail it
    keeps."""
    comp, A, B = ladder(10)
    indptr, indices, _alive = _csr_adjacency(comp, False)
    layer = [z for z in range(10) for _ in (0, 1)] * 2
    cases = {
        # (trail, j, hop, z_lo, z_hi, used): (score, tail)
        # B2 is on the hop chain, which also cuts A1 off from B
        "lead enters the hop chain": (
            [A[1], A[2], B[2], B[3], B[4]], 0,
            [A[3], B[3], B[2], B[1], A[1]], 0, 4, set(), (2, [])),
        "lead dips below z_lo": (
            [A[2], A[1], B[1], B[2], B[3], B[4]], 0, [A[2]], 2, 4, set(),
            (4, [A[3], A[4]])),
        # A1, in layer z_lo - 1, lies between the head A5 and the start
        # B6, so the lead [B7] is kept and its tip steps up
        "prefix dips below z_lo": (
            [A[5], A[4], A[3], A[2], A[1], B[1], B[2], B[3], B[4], B[5],
             B[6], B[7]], 10, [A[5], A[6], B[6]], 2, 8, set(), (8, [B[8]])),
        "lead ends at z_hi": ([A[0], A[1], A[2], A[3]], 0, [A[0]], 0, 3,
                              set(), (3, [])),
        "tip steps into z_hi": ([A[0], A[1], A[2], A[3]], 0, [A[0]], 0, 4,
                                set(), (4, [A[4]])),
        # the tip's only z_hi neighbour A4 heads the hop chain, which also
        # cuts A1 off from B
        "tip's step is on the hop chain": (
            [A[1], A[2], A[3]], 0, [A[4], B[4], B[3], B[2], B[1], A[1]],
            0, 4, set(), (3, [])),
        # the tip's only z_hi neighbour A4 is used, so the search goes
        # round through B
        "tip's step is used": ([A[1], A[2], A[3]], 0, [A[1]], 0, 4, {A[4]},
                               (4, [B[3], B[4]])),
        # B2's only unseen neighbour is B1, below the stacked A2
        "tip is blocked": ([A[0], A[1], A[2], B[2]], 0, [A[0]], 0, 4, {B[3]},
                           (4, [A[3], A[4]])),
        # B2 has no unseen neighbour, so nothing is filed and the stacked
        # A2 goes on
        "tip is boxed in": ([A[0], A[1], A[2], B[2]], 0, [A[0]], 0, 4,
                            {B[1], B[3]}, (4, [A[3], A[4]])),
        "tip is a dead end": ([A[0], A[1], A[2]], 0, [A[0]], 0, 5,
                              {A[3], B[3]}, (2, [])),
        # the start is off the trail, whose nodes the search may cross
        "no lead": ([B[1], B[2]], 2, [A[0]], 0, 5, {A[2]},
                    (5, [A[0], A[1], B[1], B[2], B[3], B[4], B[5]])),
    }
    for name, (nodes, j, hop, z_lo, z_hi, used, want) in cases.items():
        trail = trail_of(layer, 10, nodes)
        score, _, tail = check_reach(
            indptr, indices, layer, hop, z_lo, z_hi, used, trail, j
        )
        assert (score, list(tail)) == want, name

    # A search from off the trail, on three columns: the head is used and
    # the hop chain is the router's BFS path to the start.  Joined, the
    # witness is the chain to the trail node, the lead, then any step on.
    comp, A, B, C = ladder(10, 3)
    indptr, indices, _alive = _csr_adjacency(comp, False)
    layer = [z for z in range(10) for _ in (0, 1)] * 3
    joins = {
        # (trail, hop, z_lo, z_hi, used): (score, witness)
        # A7 meets B7 and joins; the lead's tip B8 steps into z_hi
        "join, then the tip steps": (
            [B[6], B[7], B[8]], [B[6], A[6], A[7]], 1, 9, {B[6]},
            (9, [A[7], B[7], B[8], B[9]])),
        # A1 meets B1 and joins; the lead's tip B3 has no neighbour in
        # z_hi, so the stacked lead is searched and the witness runs on
        # from B3
        "join, then the lead is searched": (
            [B[0], B[1], B[2], B[3]], [B[0], A[0], A[1]], 0, 5, {B[0]},
            (5, [A[1], B[1], B[2], B[3], B[4], B[5]])),
        # C3's search meets B2 from C2; B2's lead [B3] is on the hop
        # chain, so the search stays below and tops out at the start
        "join refused by the hop chain": (
            [A[2], B[2], B[3]], [A[2], A[3], B[3], C[3]], 0, 7,
            {A[2], C[4]}, (3, [])),
        # A6's search meets B5 from B6; B5's lead dips to B2 and C2 in
        # layer z_lo - 1
        "join refused below the window": (
            [A[5], B[5], B[4], B[3], B[2], C[2], C[3], C[4], C[5], C[6]],
            [A[5], A[6]], 3, 7, {A[5], A[7]}, (7, [A[6], B[6], B[7]])),
        # C6 meets C5, whose lead holds the hop chain's B6, so the search
        # goes on alone and does not join at B7, whose empty lead would
        # pass
        "no second join": (
            [B[5], C[5], C[4], B[4], A[4], A[5], A[6], B[6], B[7]],
            [B[5], B[6], C[6]], 2, 8, {B[5]}, (8, [C[6], C[7], C[8]])),
    }
    for name, (nodes, hop, z_lo, z_hi, used, want) in joins.items():
        trail = trail_of(layer, 10, nodes)
        score, cut, tail = check_reach(
            indptr, indices, layer, hop, z_lo, z_hi, used, trail, len(nodes)
        )
        assert (score, cut, list(tail)) == (want[0], len(nodes), want[1]), name


def _hop_chain(indptr, indices, layer, cur, v, z_lo, z_hi, used):
    """The router's hop chain from `cur` to `v`: the BFS path inside the
    window, around `used`, each node's neighbours visited in ascending
    order; None when `v` is out of reach."""
    parents = {cur: None}
    frontier = [cur]
    while frontier and v not in parents:
        nxt = []
        for u in frontier:
            for w in indices[indptr[u]:indptr[u + 1]]:
                if w not in parents and w not in used and z_lo <= layer[w] <= z_hi:
                    parents[w] = u
                    nxt.append(w)
        frontier = nxt
    if v not in parents:
        return None
    chain = [v]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    return chain[::-1]


def test_reach_score_on_router_shaped_leads():
    """Two steps chained as the router chains them, through one trail: the
    second call's start is a node one layer up on the first call's
    witness, its window is one layer higher, and its hop chain is the BFS
    path to that node, which may run through the lead.

    The first call's trail is a random walk inside the window, cut at its
    highest node (or dropped, when that is not above the start), so the
    witness it grows meanders, and the next hop chain, a shortest path,
    can cut across it.
    """
    rng = np.random.default_rng(2702)
    tips = steps = blocked = crossed = 0
    for _ in range(300):
        comp = random_layered_lattice(rng).comp
        indptr, indices, _alive = _csr_adjacency(comp, False)
        nz = comp.nz
        layer = ((np.arange(comp.node_count) // 2) % nz).tolist()
        window = int(rng.integers(1, 9))
        nodes = rng.permutation(comp.node_count).tolist()
        for _ in range(6):
            cur = nodes.pop()
            z = layer[cur]
            if z >= nz - 2:
                continue
            used = set(nodes[:int(rng.integers(0, len(nodes) // 6 + 1))])
            z_lo, z_hi = max(0, z - window), min(z + window, nz - 1)
            walk = _random_path(
                rng, indptr, indices, cur, int(rng.integers(0, 3 * window)),
                lambda w: w not in used and z_lo <= layer[w] < z_hi,
            )
            zs = [layer[w] for w in walk]
            walk = walk[:zs.index(max(zs)) + 1] if walk and max(zs) > z else []
            trail = trail_of(layer, nz, [cur, *walk])
            score, cut, tail = check_reach(
                indptr, indices, layer, [cur], z_lo, z_hi, used, trail, 0
            )
            if score < z_hi:
                continue
            trail.keep(0, cut, tail)
            ups = [i for i, w in enumerate(trail.nodes) if layer[w] == z + 1]
            if not ups:
                continue
            j = ups[int(rng.integers(len(ups)))]
            lead = trail.nodes[j + 1:]
            used.add(cur)
            z_lo, z_hi = max(0, z + 1 - window), min(z + 1 + window, nz - 1)
            hop = _hop_chain(
                indptr, indices, layer, cur, trail.nodes[j], z_lo, z_hi, used
            )
            if hop is None:
                continue
            score, cut, tail = check_reach(
                indptr, indices, layer, hop, z_lo, z_hi, used, trail, j
            )
            steps += 1
            crossed += not set(lead).isdisjoint(hop)
            if cut == len(trail.nodes) and len(tail) == 1:
                tips += 1
            elif lead and set(lead).isdisjoint(hop) and all(
                z_lo <= layer[w] < z_hi for w in lead
            ):
                blocked += 1
    # seen: 1057 steps, 547 tip steps, 274 searches past a blocked tip
    # with the lead stacked, and 25 hop chains through the lead
    assert steps >= 500 and tips >= 200 and blocked >= 100 and crossed >= 10, (
        steps, tips, blocked, crossed)
