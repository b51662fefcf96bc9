"""Unit-cell wiring and wafer assembly."""

import dataclasses
import functools
import hashlib
import itertools
import json
import pathlib
from unittest import mock

import numpy as np
import pytest

from ballistic import acceptance, builder, cli
from ballistic.builder import (
    WaferSpec,
    _batches,
    build_batches,
    build_wafer,
    build_wafers,
    optical_depth_report,
)
from ballistic.errors import SpecError
from ballistic.fusion import ANCILLA_COST, FusionParams
from ballistic.graphstate import GraphRegister
from ballistic.percolation import crossing_exists, crossings, square_lattice_crosses
from ballistic.rng import CHUNK, bernoulli, trial_rng
from graph_oracle import build_graph_level, make_ghz3

BOOSTED = FusionParams(kind="BoostedTypeII", success_prob=0.75)
GOLDEN = pathlib.Path(__file__).parent / "golden"


# The paper's wiring with its x and y bonds fused from the other side, so
# their offsets are negative.
MIRRORED_BONDS = (
    (6, 9, (0, 0, 1)),
    (17, 14, (0, 0, 1)),
    (12, 8, (-1, 0, 0)),
    (15, 11, (0, -1, 0)),
)
WIRINGS = (builder.BOND_PAIRS, MIRRORED_BONDS)


def wired(bonds):
    """The bond-level build and the oracle with `bonds` as the cell's bonds."""
    return mock.patch.object(builder, "BOND_PAIRS", bonds)


def test_bond_wirings_fuse_every_stub_once():
    """Each wiring fuses every stub slot exactly once, at a non-zero cell
    offset whose z part is 0 or 1, and delays the photons of slots 6 and 17
    for its z bonds."""
    for bonds in WIRINGS:
        slots = sorted(s for ls, rs, _off in bonds for s in (ls, rs))
        assert slots == sorted(builder._STUBS), bonds
        for _ls, _rs, off in bonds:
            assert off != (0, 0, 0) and off[2] in (0, 1), bonds
        assert tuple(ls for ls, _rs, off in bonds if off[2]) == (6, 17), bonds


def test_make_ghz3_is_linear_cluster():
    g = GraphRegister(0)
    a, b, c = make_ghz3(g)
    assert g.has_edge(a, b) and g.has_edge(b, c) and not g.has_edge(a, c)


def _fragment(reg, start):
    seen = {start}
    stack = [start]
    while stack:
        for w in reg.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_deterministic_limit_joins_layers():
    # the z bond fuses one layer's primal qubit to the next layer's dual
    # qubit (and vice versa), so each fragment spans both layers
    spec = WaferSpec(1, 1, 2, fusion_params=FusionParams("BoostedTypeII", success_prob=1.0))
    lat = build_graph_level(spec, rng=trial_rng(0, 0))
    reg = lat.register
    p0, d0 = lat.computational_vertices[(0, 0, 0)]
    p1, d1 = lat.computational_vertices[(0, 0, 1)]
    assert all(reg.is_alive(v) for v in (p0, d0, p1, d1))
    assert d1 in _fragment(reg, p0)
    assert p1 in _fragment(reg, d0)


def test_single_cell_deterministic_limit():
    spec = WaferSpec(1, 1, 1, fusion_params=FusionParams("BoostedTypeII", success_prob=1.0))
    lat = build_graph_level(spec, rng=trial_rng(0, 0))
    comp_ids = next(iter(lat.computational_vertices.values()))
    reg = lat.register
    assert all(reg.is_alive(v) for v in comp_ids)
    # each computational photon anchors a non-trivial fused fragment
    for v in comp_ids:
        assert len(_fragment(reg, v)) >= 3


def test_resource_report_counts():
    lat = build_wafer(WaferSpec(2, 2, 2, fusion_params=BOOSTED), rng=trial_rng(1, 0))
    rep = lat.resource_report
    assert rep["cells"] == 8
    assert rep["photons_emitted"] == 8 * 18
    # four formation fusions and four bonds per cell
    assert rep["fusions_attempted"] == 8 * 8
    assert rep["photons_per_computational_no_ancilla"] == 9
    assert rep["photons_per_computational_with_ancilla"] == 17
    assert rep["photons_per_computational_with_ancilla"] <= 20
    assert rep["expected_source_attempts_per_ghz"] == 32


def test_with_ancilla_figure_counts_only_consumed_ancillas():
    # every attempt of the 8 fusions per cell consumes ANCILLA_COST = 2
    # ancillas, whatever its success probability
    assert ANCILLA_COST == 2
    spec = WaferSpec(2, 2, 2, fusion_params=FusionParams("BoostedTypeII", success_prob=0.5))
    rep = build_wafer(spec, rng=trial_rng(1, 0)).resource_report
    assert rep["ancillas_consumed"] == 8 * 8 * ANCILLA_COST
    assert rep["photons_per_computational_with_ancilla"] == 17.0
    assert 17.0 == rep["photons_emitted_total"] / rep["computational_qubits"]


# Every axis takes 1, 2 and 3 cells; (1, 1, 1) has no in-range bond at all.
GRID_SHAPES = ((1, 1, 1), (1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 2, 2), (3, 3, 3))


def spec_grid():
    """(bonds, spec) over both wirings, the grid shapes, loss 0/0.05/0.3,
    filter off/on (fidelity 0.8) and success_prob 0/0.75/1: 216 specs."""
    for bonds, shape, loss, filt, sp in itertools.product(
        WIRINGS,
        GRID_SHAPES,
        (0.0, 0.05, 0.3),
        (False, True),
        (0.0, 0.75, 1.0),
    ):
        yield bonds, WaferSpec(
            *shape,
            fusion_params=FusionParams("BoostedTypeII", success_prob=sp),
            photon_loss=loss,
            filter_fidelity=0.8 if filt else None,
        )


# Lossless, filter on at fidelity 1, fusion never or always succeeding:
# every one of their draws has a fixed outcome.
FIXED_OUTCOME_SPECS = tuple(
    WaferSpec(
        2, 3, 3,
        fusion_params=FusionParams("BoostedTypeII", success_prob=sp),
        filter_fidelity=1.0,
    )
    for sp in (0.0, 1.0)
)


def test_build_modes_agree():
    paper, mirrored = WIRINGS
    cases = [(paper, WaferSpec(3, 3, 4, fusion_params=BOOSTED, photon_loss=0.02), 1)]
    cases += [
        (mirrored, WaferSpec(3, 3, 4, fusion_params=BOOSTED, photon_loss=0.05), t)
        for t in range(10)
    ]
    cases += [(bonds, spec, 100 + i) for i, (bonds, spec) in enumerate(spec_grid())]
    # at the unboosted and the boosted success probability
    cases += [
        (paper, WaferSpec(2, 2, 3, fusion_params=FusionParams("BoostedTypeII", sp)), 0)
        for sp in (0.5, 0.75)
    ]
    # every draw skipped: the graph-level build draws on from wherever
    # _sample_draws leaves the stream
    cases += [
        (bonds, spec, 400 + i) for i, spec in enumerate(FIXED_OUTCOME_SPECS)
        for bonds in WIRINGS
    ]
    for bonds, spec, trial in cases:
        with wired(bonds):
            graph = build_graph_level(spec, rng=trial_rng(5, trial))
            bond = build_wafer(spec, rng=trial_rng(5, trial))
        assert (graph.comp.alive == bond.comp.alive).all(), (bonds, spec, trial)
        assert (graph.comp.alive_punched == bond.comp.alive_punched).all(), (bonds, spec, trial)
        ge = {tuple(sorted(e)) for e in graph.comp.edges.tolist()}
        be = {tuple(sorted(e)) for e in bond.comp.edges.tolist()}
        assert ge == be, (bonds, spec, trial)


def test_bernoulli_matches_plain_draws():
    """Same array and same stream position as `gen.random(shape) < p`, after
    0-7 prior draws, for short lengths, every draw of the golden grid and
    the C16 loss draw."""
    shapes = {(k,) for k in range(10)} | {(12, 6, 600, 18)}
    for bonds, spec in spec_grid():
        cells = (spec.nx, spec.ny, spec.nz)
        shapes |= {cells + (builder.PHOTONS_PER_CELL,), cells + (len(bonds),)}
    for shape, p, prior in itertools.product(
        sorted(shapes), (0.0, 1.0, 0.3), range(8)
    ):
        fast, plain = trial_rng(11, prior), trial_rng(11, prior)
        fast.random(prior)
        plain.random(prior)
        got, want = bernoulli(fast, shape, p), plain.random(shape) < p
        assert got.dtype == want.dtype and got.shape == want.shape, (shape, p)
        assert (got == want).all(), (shape, p, prior)
        assert (fast.random(64) == plain.random(64)).all(), (shape, p, prior)


def test_bernoulli_rejects_non_probabilities():
    # 1.7 would draw all True and NaN all False
    for p in (1.7, -0.1, float("nan")):
        for gen in (trial_rng(3, 0), np.random.default_rng(0)):
            with pytest.raises(SpecError, match="outside"):
                bernoulli(gen, 4, p)
    with pytest.raises(SpecError):
        square_lattice_crosses(8, 1.5, trial_rng(3, 0))


def _half_word_philox():
    gen = trial_rng(2, 0)
    gen.integers(0, 7, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"]
    return gen


def _assert_bernoulli_as_plain(make, shape, p):
    """`bernoulli` on one `make()` generator gives the array of
    `random(shape) < p` on another, and both streams go on alike, the
    spare 32-bit half word included."""
    fast, plain = make(), make()
    got, want = bernoulli(fast, shape, p), plain.random(shape) < p
    assert got.dtype == want.dtype and got.shape == want.shape, (shape, p)
    assert (got == want).all(), (shape, p)
    assert (
        fast.integers(0, 2**32, 8, dtype=np.uint32)
        == plain.integers(0, 2**32, 8, dtype=np.uint32)
    ).all(), (shape, p)
    assert (fast.random(64) == plain.random(64)).all(), (shape, p)
    return got, want


def test_bernoulli_falls_back_to_plain_draws():
    # advance() would drop a Philox's spare 32-bit half word; PCG64 has no
    # block buffer to finish
    for make in (_half_word_philox, lambda: np.random.default_rng(0)):
        for p in (0.0, 1.0):
            _assert_bernoulli_as_plain(make, (3, 7), p)


def test_bernoulli_compares_words_at_the_boundary():
    """The raw-word compare is `random() < p` where draw 0 sits exactly on
    p or half a step below it, at the extreme p below 1, on empty and
    chunk-sized shapes, and on a Philox holding a spare half word."""
    halves = 0
    for trial in range(16):
        make = functools.partial(trial_rng, 13, trial)
        top = int(make().bit_generator.random_raw()) >> 11
        for p in (top / 2**53, (top + 0.5) / 2**53):
            halves += p * 2**53 % 1 == 0.5  # exact only for top < 2^52
            got, want = _assert_bernoulli_as_plain(make, 5, p)
            assert got[0] == want[0] == (p * 2**53 > top), (trial, p)
    assert halves >= 4
    lengths = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)
    shapes = [(), (0,), (3, 0), 7, (3, CHUNK // 2 + 1)]
    shapes += [(n,) for n in lengths] + [n for n in lengths]
    for shape, p in itertools.product(shapes, (5e-324, 1 - 2**-53, 0.3)):
        _assert_bernoulli_as_plain(functools.partial(trial_rng, 14, 0), shape, p)
    for shape in (5, (3, 7), CHUNK + 1):
        _assert_bernoulli_as_plain(_half_word_philox, shape, 0.3)


def _plain_sample_draws(spec, rng):
    """`builder._sample_draws` as it was before any draw was skipped."""
    shape = (spec.nx, spec.ny, spec.nz)
    nslots = builder.PHOTONS_PER_CELL
    lost = rng.random(shape + (nslots,)) < spec.photon_loss
    if spec.filter_fidelity is None:
        kept = np.ones(shape + (nslots,), dtype=bool)
    else:
        kept = rng.random(shape + (nslots,)) < spec.filter_fidelity
    success = (
        rng.random(shape + (len(builder.BOND_PAIRS),))
        < spec.fusion_params.success_prob
    )
    return lost, kept, success


def _two_builds(spec, build):
    """Two consecutive builds from one generator, then its next 64 draws."""
    rng = trial_rng(8, 0)
    builds = [build(spec, rng=rng) for _ in range(2)]
    return bond_build_digest(builds), rng.random(64).tobytes()


def test_consecutive_builds_match_plain_draws(monkeypatch):
    specs = FIXED_OUTCOME_SPECS + (
        WaferSpec(2, 3, 3, fusion_params=BOOSTED),
        WaferSpec(2, 3, 3, fusion_params=BOOSTED, photon_loss=0.05),
    )
    for spec, build in itertools.product(specs, (build_wafer, build_graph_level)):
        fast = _two_builds(spec, build)
        with monkeypatch.context() as m:
            m.setattr(builder, "_sample_draws", _plain_sample_draws)
            plain = _two_builds(spec, build)
        assert fast == plain, (spec, build.__name__)


def bond_build_digest(builds) -> str:
    """sha256 over dtype, shape and bytes of alive, alive_punched and edges."""
    h = hashlib.sha256()
    for lat in builds:
        for arr in (lat.comp.alive, lat.comp.alive_punched, lat.comp.edges):
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _wired_build(bonds, spec, rng):
    with wired(bonds):
        return build_wafer(spec, rng=rng)


def bond_golden_digests(golden) -> dict:
    seed = golden["seed"]
    grid = (
        _wired_build(bonds, spec, trial_rng(seed, i))
        for i, (bonds, spec) in enumerate(spec_grid())
    )
    large = golden["large"]
    spec = WaferSpec(
        *large["lattice"],
        fusion_params=FusionParams(**large["fusion"]),
        photon_loss=large["photon_loss"],
    )
    return {
        "grid_sha256": bond_build_digest(grid),
        "large_sha256": bond_build_digest(
            [build_wafer(spec, rng=trial_rng(seed, 0))]
        ),
    }


def test_bond_build_golden():
    """Bond-level builds are byte-stable: edge order and dtype included."""
    golden = json.loads((GOLDEN / "bond_builds.json").read_text())
    got = bond_golden_digests(golden)
    assert got == {k: golden[k] for k in ("grid_sha256", "large_sha256")}


def _grid_batches():
    """spec_grid() as one list per wiring and shape: what build_wafers
    takes."""
    for (bonds, _shape), group in itertools.groupby(
        spec_grid(), key=lambda bs: (bs[0], (bs[1].nx, bs[1].ny, bs[1].nz))
    ):
        yield bonds, [spec for _bonds, spec in group]


def test_build_wafers_matches_sequential_builds():
    """A batch per wiring and shape of the golden grid, from one shared
    generator and from one generator per wafer, against one bond-level
    `build_wafer` call per wafer in turn: the same arrays, edge order and
    dtype, reports, and generators left at the same place.  This is the
    check that `build_wafer` is `build_wafers` over one wafer."""
    for k, (bonds, specs) in enumerate(_grid_batches()):
        for shared in (True, False):
            def gens():
                if shared:
                    return [trial_rng(12, k)] * len(specs)
                return [trial_rng(13, 100 * k + i) for i in range(len(specs))]

            batch_rngs, seq_rngs = gens(), gens()
            with wired(bonds):
                got = build_wafers(specs, batch_rngs)
                want = [
                    build_wafer(spec, rng=rng)
                    for spec, rng in zip(specs, seq_rngs)
                ]
            assert len(got) == len(specs)
            for i, (g, w) in enumerate(zip(got, want)):
                assert bond_build_digest([g]) == bond_build_digest([w]), (k, shared, i)
                assert g.resource_report == w.resource_report
            for a, b in zip(batch_rngs, seq_rngs):
                assert (a.random(64) == b.random(64)).all(), (k, shared)


def _clean_spec(sp, filter_fidelity=None):
    return WaferSpec(
        3, 2, 4,
        fusion_params=FusionParams("BoostedTypeII", success_prob=sp),
        filter_fidelity=filter_fidelity,
    )


def test_clean_and_mixed_batches_match_sequential_builds():
    """A batch of clean wafers (no loss, no filter or one at fidelity 1)
    skips the slot algebra and matches the oracle; a batch that mixes clean
    wafers with lossy or filtered ones goes through the algebra, and each
    wafer matches its own `build_wafer` call, which takes the clean path for
    a clean wafer and the algebra for the others (the unfiltered lossy
    wafer's draws pass the filter but lose photons)."""
    lossy = dataclasses.replace(_clean_spec(0.75), photon_loss=0.2)
    batches = (
        ([_clean_spec(0.75), _clean_spec(0.5, 1.0), _clean_spec(1.0)], False),
        ([_clean_spec(0.75), lossy,
          dataclasses.replace(lossy, filter_fidelity=0.9), _clean_spec(1.0, 1.0)], True),
    )
    for (specs, general), bonds in itertools.product(batches, WIRINGS):
        with wired(bonds), mock.patch.object(
            builder, "_slot_masks", wraps=builder._slot_masks
        ) as slot_masks:
            got = build_wafers(specs, [trial_rng(39, i) for i in range(len(specs))])
            assert slot_masks.called == general, (specs, bonds)
            want = [
                build_wafer(spec, rng=trial_rng(39, i))
                for i, spec in enumerate(specs)
            ]
            oracle = [
                build_graph_level(spec, rng=trial_rng(39, i))
                for i, spec in enumerate(specs)
            ]
        for i, (g, w, o) in enumerate(zip(got, want, oracle)):
            assert bond_build_digest([g]) == bond_build_digest([w]), (general, bonds, i)
            assert (g.comp.alive == o.comp.alive).all(), (general, bonds, i)
            assert (g.comp.alive_punched == o.comp.alive_punched).all(), (general, bonds, i)
            assert {tuple(sorted(e)) for e in g.comp.edges.tolist()} == {
                tuple(sorted(e)) for e in o.comp.edges.tolist()
            }, (general, bonds, i)


def test_build_wafers_rejects_mixed_shapes():
    rng = trial_rng(0, 0)
    a, b = (WaferSpec(2, 2, nz, fusion_params=BOOSTED) for nz in (2, 3))
    with pytest.raises(SpecError, match="one shape"):
        build_wafers([a, b], [rng, rng])
    with pytest.raises(SpecError, match="generators"):
        build_wafers([a] * 2, [rng])
    assert build_wafers([], []) == []


def test_batches_keep_to_the_cell_budget(monkeypatch):
    monkeypatch.setattr(builder, "BATCH_CELLS", 16)
    specs = [
        WaferSpec(n, n, n, fusion_params=BOOSTED) for n in (2, 2, 2, 2, 2, 3, 1)
    ]
    # 8 + 8 cells fill a batch, a third wafer would not fit; the 27-cell
    # wafer is a batch of its own
    assert _batches(specs) == [
        slice(0, 2), slice(2, 4), slice(4, 5), slice(5, 6), slice(6, 7)
    ]
    assert _batches([]) == []
    assert list(build_batches([], [])) == []


def test_small_batch_budget_gives_same_results(monkeypatch):
    """Lattices, crossings, loss-sweep metrics and spanning fractions do
    not depend on how the lattices are batched."""
    params = cli.validate_config(
        {"version": 1, "scenario": "loss-sweep", "params": {"nz": 20}}
    )["params"]
    specs = cli._loss_sweep_specs(params)

    def run():
        rng, lats = trial_rng(3, 0), []
        for part in build_batches(specs, [rng] * len(specs)):
            lats += part
        return (
            len(_batches(specs)),
            bond_build_digest(lats),
            crossings(lats, punched=True),
            cli.loss_sweep_trial(params, trial_rng(3, 1)),
            acceptance._spanning_fraction(specs[3], 10, 5, punched=True),
        )

    whole = run()
    assert whole[0] == 1
    for budget, parts in ((1, 6), (3 * specs[0].cells, 2)):
        monkeypatch.setattr(builder, "BATCH_CELLS", budget)
        got = run()
        assert got[0] == parts
        assert got[1:] == whole[1:]


def test_wafer_spanning_probabilistic():
    spec = WaferSpec(12, 6, 20, fusion_params=BOOSTED)
    hits = sum(
        crossing_exists(build_wafer(spec, rng=trial_rng(9, t)))
        for t in range(20)
    )
    assert hits == 20


def _varied(value):
    """Another value of a spec field's type: a flag flipped, an int one up,
    a probability halfway to the far end of [0, 1], a filter where there was
    none, or another fusion kind."""
    if value is None:
        return 0.5
    if isinstance(value, str):
        return "TypeII"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value / 2 if value > 0.5 else (value + 1) / 2


def _each_field_varied(obj):
    """(field path, thunk) per field of the dataclass `obj`, and per field of
    a dataclass field: the thunk rebuilds `obj` with that one field varied,
    and raises where the varied value is rejected."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            inner = [(f"{f.name}.{p}", m) for p, m in _each_field_varied(value)]
        else:
            inner = [(f.name, functools.partial(_varied, value))]
        for path, make in inner:
            yield path, lambda name=f.name, make=make: dataclasses.replace(
                obj, **{name: make()}
            )


def test_every_wafer_field_changes_the_lattice_or_is_rejected():
    """No WaferSpec field, nor a field of its FusionParams, is silently
    ignored: varying any one of them from a base spec changes `alive`,
    `alive_punched` or `edges` for some seed, or raises SpecError."""
    base = WaferSpec(3, 3, 4, fusion_params=BOOSTED)

    def lattices(spec):
        return [
            bond_build_digest([build_wafer(spec, rng=trial_rng(17, t))])
            for t in range(4)
        ]

    before = lattices(base)
    varied = list(_each_field_varied(base))
    assert len(varied) == len(dataclasses.fields(base)) + 1
    for path, make in varied:
        try:
            spec = make()
        except SpecError:
            continue
        assert lattices(spec) != before, f"WaferSpec ignores {path}"


def test_zero_success_prob_gives_no_bonds():
    spec = WaferSpec(2, 2, 2, fusion_params=FusionParams("BoostedTypeII", success_prob=0.0))
    lat = build_wafer(spec, rng=trial_rng(3, 0))
    assert len(lat.comp.edges) == 0


def test_filter_limits():
    # The builders' inline |+> filter keeps every photon at fidelity 1 and
    # Z-measures every one out at fidelity 0.
    for fidelity, survives in ((1.0, True), (0.0, False)):
        spec = WaferSpec(2, 2, 2, fusion_params=BOOSTED, filter_fidelity=fidelity)
        for build in (build_wafer, build_graph_level):
            lat = build(spec, rng=trial_rng(4, 0))
            assert (lat.comp.alive == survives).all()
            assert survives or len(lat.comp.edges) == 0


def test_filter_reduces_alive_fraction():
    base = WaferSpec(4, 4, 4, fusion_params=BOOSTED)
    filt = WaferSpec(4, 4, 4, fusion_params=BOOSTED, filter_fidelity=0.8)
    a = build_wafer(base, rng=trial_rng(6, 0)).comp.alive.mean()
    b = build_wafer(filt, rng=trial_rng(6, 0)).comp.alive.mean()
    assert b < a


def test_optical_depth_report():
    rep = optical_depth_report()
    assert rep["max"] <= 12
    assert rep["mean"] <= rep["max"]
    def slots(element):
        return {s for s, e in rep["per_slot"].items() if e[element]}

    assert slots("phase_shifter") == {1, 4}
    # every photon but the computational ones is fused; the z bonds delay
    # slots 6 and 17
    assert slots("fusion") == set(range(18)) - {1, 4}
    assert slots("delay") == {6, 17}


def test_build_needs_a_generator():
    with pytest.raises(TypeError, match="rng"):
        build_wafer(WaferSpec(1, 1, 1, fusion_params=BOOSTED))


def test_graph_level_build_is_rejected():
    with pytest.raises(SpecError, match="tests/graph_oracle.py"):
        build_wafer(
            WaferSpec(1, 1, 1, fusion_params=BOOSTED),
            rng=trial_rng(0, 0),
            graph_level=True,
        )


def test_invalid_wafer_spec():
    with pytest.raises(SpecError):
        WaferSpec(0, 1, 1, fusion_params=BOOSTED)
    with pytest.raises(SpecError):
        WaferSpec(1, 1, 1, fusion_params=BOOSTED, photon_loss=1.0)
