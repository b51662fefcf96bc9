"""Wafer assembly: per-cell GHZ resources, fusion wiring, loss and filter.

A unit cell holds 6 three-photon sources (18 photon slots).  Four multiplexed
"formation" fusions shape the cell into two degree-4 computational qubits
(one primal, one dual); the remaining four fusions are ballistic bonds that
tie cells together in x, y and (via two delayed photons) z.  The surviving
bonds form the percolated 3D lattice consumed by the percolation module.

The build is bond-level: the computational-qubit lattice is derived
directly from the random draws with vectorized boolean algebra, for a batch
of same-shape wafers at once.  A batch whose draws lose no photon and
filter none out (no loss, and no filter or one at fidelity 1) skips the
loss, damage and attachment algebra: every qubit survives and every stub is
attached, so a bond fuses wherever it succeeded inside the wafer, which is
what the algebra gives for such draws.  The photon-by-photon graph-state
build that it reproduces draw for draw is the exact oracle the tests
compare it with (`tests/graph_oracle.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .fusion import ANCILLA_COST, FusionParams
from .rng import bernoulli

# The one cell design (Gimeno-Segovia et al., PRL 115, 020502 (2015)): slot
# 3k + j is photon j of source k's linear cluster a-b-c.
SOURCES_PER_CELL = 6
PHOTONS_PER_CELL = 3 * SOURCES_PER_CELL
# The middle photons of sources 0 and 1, (primal, dual): a slot's index is
# its parity.
COMPUTATIONAL_SLOTS = (1, 4)
# Each multiplexed formation fuses an end photon of a computational source
# onto the middle photon of a stub source, whose two end photons become
# stubs of that qubit for the ballistic bonds.
FORMATION_PAIRS = ((0, 7), (2, 13), (3, 10), (5, 16))
# The ballistic bonds, each (local stub, remote stub, cell offset): the
# local stub fuses with the remote stub of the cell at +offset, and every
# stub is fused exactly once.  A z offset (always +1) is realized by
# delaying the local photon one layer.
BOND_PAIRS = (
    (6, 9, (0, 0, 1)),
    (17, 14, (0, 0, 1)),
    (8, 12, (1, 0, 0)),
    (11, 15, (0, 1, 0)),
)
# Static-element layout: waveguide crossings per slot (<=1 each).
CROSSING_SLOTS = (14, 17)
# Chance that one attempt of a heralded 3-photon source succeeds.
GHZ_SOURCE_SUCCESS_PROB = 1.0 / 32.0

# stub slot -> its formation pair, and -> the parity of its qubit
_STUBS = {
    3 * (b // 3) + end: (a, b) for a, b in FORMATION_PAIRS for end in (0, 2)
}
_PARITY = {
    s: COMPUTATIONAL_SLOTS.index(3 * (a // 3) + 1) for s, (a, _b) in _STUBS.items()
}


@dataclass(frozen=True)
class WaferSpec:
    nx: int
    ny: int
    nz: int
    fusion_params: FusionParams
    photon_loss: float = 0.0
    # the inline |+> filter's fidelity, or None for no filter
    filter_fidelity: float | None = None

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise SpecError("wafer dimensions must be >= 1")
        if not 0.0 <= self.photon_loss < 1.0:
            raise SpecError("photon_loss outside [0, 1)")
        if self.filter_fidelity is not None and not 0.0 <= self.filter_fidelity <= 1.0:
            raise SpecError("filter_fidelity outside [0, 1]")

    @property
    def cells(self) -> int:
        return self.nx * self.ny * self.nz


class CompLattice:
    """Computational-qubit lattice: 2 nodes per cell plus surviving bonds.

    Node flat id = ((x * ny + y) * nz + z) * 2 + parity, parity 0 = primal,
    1 = dual.  `alive` is raw survival (loss + filter on the qubit itself);
    `alive_punched` additionally removes qubits damaged by an adjacent
    photon loss (the punch-out rule).
    """

    def __init__(self, nx, ny, nz, alive, alive_punched, edges):
        self.nx, self.ny, self.nz = nx, ny, nz
        self.alive = alive
        self.alive_punched = alive_punched
        self.edges = edges  # (m, 2) int array of flat node ids

    @property
    def node_count(self) -> int:
        return self.nx * self.ny * self.nz * 2

    def alive_flat(self, punched: bool) -> np.ndarray:
        a = self.alive_punched if punched else self.alive
        return a.reshape(-1)


@dataclass
class BuiltLattice:
    resource_report: dict
    comp: CompLattice


# -- shared draw sampling ---------------------------------------------------


def _sample_draws(spec: WaferSpec, rng):
    """All structured randomness of one build, in a fixed order.

    The graph-level oracle consumes exactly these arrays too, so the two
    builds agree draw for draw.  Each draw is `rng.random(shape) < p`; where
    p is 0 or 1 (no loss, filter fidelity 1, deterministic fusion)
    `bernoulli` skips the stream past the uniforms instead, so the arrays
    and the stream position that later draws start from are the same as
    with sampling.
    """
    shape = (spec.nx, spec.ny, spec.nz)
    slots = shape + (PHOTONS_PER_CELL,)
    lost = bernoulli(rng, slots, spec.photon_loss)
    if spec.filter_fidelity is None:
        kept = np.ones(slots, dtype=bool)
    else:
        kept = bernoulli(rng, slots, spec.filter_fidelity)
    success = bernoulli(
        rng, shape + (len(BOND_PAIRS),), spec.fusion_params.success_prob
    )
    return lost, kept, success


def _slot_masks(lost, kept):
    """Per-slot usability and damage from the emission draws.

    Slot 3k + j is photon j of source k's chain, so viewed as (..., k, j)
    the middle photon is damaged when either end is lost and each end when
    the middle is.
    """
    trio = lost.reshape(lost.shape[:-1] + (-1, 3))
    damaged = np.empty_like(trio)
    np.logical_or(trio[..., 0], trio[..., 2], out=damaged[..., 1])
    damaged[..., 0] = trio[..., 1]
    damaged[..., 2] = trio[..., 1]
    damaged = damaged.reshape(lost.shape)
    usable = ~(lost | damaged)
    usable &= kept
    return usable, damaged


def _shift_ok(arr, off):
    """arr value at cell + off (any sign per axis) over its last three axes,
    False outside the wafer."""
    out = np.zeros_like(arr)
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    for axis, d in enumerate(off, start=arr.ndim - 3):
        if d > 0:
            src[axis], dst[axis] = slice(d, None), slice(None, -d)
        elif d < 0:
            src[axis], dst[axis] = slice(None, d), slice(-d, None)
    out[tuple(dst)] = arr[tuple(src)]
    return out


def build_wafer(spec: WaferSpec, *, rng, graph_level: bool = False) -> BuiltLattice:
    """One wafer's bond-level build: `build_wafers([spec], [rng])[0]`.

    `graph_level` exists only because the benchmark's workloads
    (`perfbench/workloads.py`) pass `graph_level=False`.  True is rejected:
    the graph-level build is the test oracle in `tests/graph_oracle.py`.
    """
    if graph_level:
        raise SpecError(
            "the graph-level build is the test oracle tests/graph_oracle.py;"
            " build_wafer builds bond-level only"
        )
    return build_wafers([spec], [rng])[0]


# Cells built together: a batch's arrays stay near this size (a larger
# lattice is a batch of its own), so a list of lattices, such as one
# loss-sweep trial's, takes about the memory of one capped lattice.
BATCH_CELLS = 2**18


def _batches(specs) -> list[slice]:
    """Consecutive runs of `specs` of at most BATCH_CELLS cells in all, or
    one spec alone where it is larger."""
    out, start, cells = [], 0, 0
    for i, spec in enumerate(specs):
        if i > start and cells + spec.cells > BATCH_CELLS:
            out.append(slice(start, i))
            start, cells = i, 0
        cells += spec.cells
    if specs:
        out.append(slice(start, len(specs)))
    return out


def build_batches(specs, rngs):
    """`build_wafers` over `specs` a batch at a time: yields the lattices of
    each consecutive run of at most BATCH_CELLS cells (or of one larger
    spec), so only one run's arrays are held at once."""
    for part in _batches(specs):
        yield build_wafers(specs[part], rngs[part])


def build_wafers(specs, rngs) -> list[BuiltLattice]:
    """Bond-level builds of same-shape wafers, derived in one array pass.

    Wafer i takes its draws from rngs[i], in list order, so a generator
    shared by several wafers ends where one `build_wafer` call each would
    leave it.  Every array of the list is held at once, so a long list
    goes through `build_batches`.
    """
    if len(rngs) != len(specs):
        raise SpecError(f"{len(specs)} wafer specs but {len(rngs)} generators")
    if len({(s.nx, s.ny, s.nz) for s in specs}) > 1:
        raise SpecError("build_wafers needs wafers of one shape")
    if not specs:
        return []
    # the stacked draws and every temporary of the derivation are freed
    # before the edges are listed
    alive, punched, bonded = _bond_masks(*_sample_batch(specs, rngs))
    edges = _bond_edges(specs[0], bonded)
    nx, ny, nz = specs[0].nx, specs[0].ny, specs[0].nz
    return [
        BuiltLattice(
            resource_report=_resource_report(spec),
            comp=CompLattice(nx, ny, nz, alive[i], punched[i], edges[i]),
        )
        for i, spec in enumerate(specs)
    ]


def _resource_report(spec: WaferSpec) -> dict:
    cells = spec.cells
    photons = cells * PHOTONS_PER_CELL
    fusions = cells * (len(FORMATION_PAIRS) + len(BOND_PAIRS))
    ancillas = fusions * ANCILLA_COST
    comp_qubits = cells * len(COMPUTATIONAL_SLOTS)
    return {
        "cells": cells,
        "photons_emitted": photons,
        "fusions_attempted": fusions,
        "ancillas_consumed": ancillas,
        "photons_emitted_total": photons + ancillas,
        "computational_qubits": comp_qubits,
        "photons_per_computational_no_ancilla": photons / comp_qubits,
        "photons_per_computational_with_ancilla": (photons + ancillas) / comp_qubits,
        "expected_source_attempts_per_ghz": 1.0 / GHZ_SOURCE_SUCCESS_PROB,
    }


def _sample_batch(specs, rngs):
    """Each wafer's `_sample_draws`, in list order, stacked on a leading
    axis (a view for one wafer)."""
    draws = [_sample_draws(spec, rng) for spec, rng in zip(specs, rngs)]
    return [a[0][None] if len(a) == 1 else np.stack(a) for a in zip(*draws)]


def _bond_masks(lost, kept, success):
    """Raw and punched survival per qubit, and which bonds fused, from a
    batch's stacked draws.  Arrays are indexed by wafer, then cell; per-qubit
    ones by parity in their last axis, `bonded` by bond in its second.

    A clean batch, with no photon lost and every photon past the filter (no
    loss, and no filter or one at fidelity 1), skips the slot algebra: every
    slot is usable and undamaged, so every qubit survives in both views,
    every stub is attached and no loss is heralded, and a bond fuses exactly
    where it succeeded and its partner cell lies inside the wafer.  That is
    what the algebra below computes from such draws, so the result is the
    same.  One lost or filtered photon anywhere in the batch sends the whole
    batch through the algebra.
    """
    if not lost.any() and kept.all():
        bonded = np.empty((len(lost), len(BOND_PAIRS)) + lost.shape[1:4], dtype=bool)
        inside = np.ones(lost.shape[1:4], dtype=bool)
        for bi, (_ls, _rs, off) in enumerate(BOND_PAIRS):
            np.logical_and(success[..., bi], _shift_ok(inside, off), out=bonded[:, bi])
        alive = np.ones(lost.shape[:4] + (len(COMPUTATIONAL_SLOTS),), dtype=bool)
        return alive, alive.copy(), bonded

    usable, damaged = _slot_masks(lost, kept)

    # Raw survival: not lost, passed the filter.  (Frame damage from
    # adjacent losses only matters for the punched view.)
    comp = list(COMPUTATIONAL_SLOTS)
    alive = ~lost[..., comp] & kept[..., comp]
    # A stub is attached to its qubit iff the stub photon and both photons of
    # its formation are usable and the qubit itself survived raw.
    stubs = list(_STUBS)
    a, b = map(list, zip(*_STUBS.values()))
    by_slot = np.moveaxis(usable, -1, 0)
    attached = dict(zip(stubs, (
        by_slot[stubs] & by_slot[a] & by_slot[b]
        & np.moveaxis(alive, -1, 0)[[_PARITY[s] for s in stubs]]
    )))
    bonded = np.empty((len(lost), len(BOND_PAIRS)) + lost.shape[1:4], dtype=bool)

    # Damage from ballistic loss heralds: a surviving attached stub whose
    # fusion partner never arrived is dropped as lost, wounding its qubit.
    herald_damage = np.zeros_like(alive)
    for bi, (ls, rs, off) in enumerate(BOND_PAIRS):
        a_remote = _shift_ok(attached[rs], off)
        # local stub attached, partner missing -> local loss herald
        herald_damage[..., _PARITY[ls]] |= attached[ls] & _shift_ok(~usable[..., rs], off)
        # remote stub attached, local missing -> remote loss herald
        herald_damage[..., _PARITY[rs]] |= _shift_ok(
            a_remote & ~usable[..., ls], [-d for d in off]
        )
        np.logical_and(success[..., bi], attached[ls] & a_remote, out=bonded[:, bi])

    # Punched survival also needs both chain neighbours of the qubit and no
    # loss herald on its stubs.
    return alive, alive & ~damaged[..., comp] & ~herald_damage, bonded


def _bond_edges(spec, bonded):
    """Each wafer's (m, 2) int64 edges, by bond, then cell.

    Node ids are 2 * cell + parity.  Hit h of `bonded` is bond h // cells
    % nb at cell h % cells, so in flat order the hits come out by wafer,
    then bond, then cell.
    """
    wafers, nb = bonded.shape[:2]
    cells = spec.cells
    hits = np.flatnonzero(bonded)
    row = hits // cells
    first = np.tile([_PARITY[ls] for ls, _rs, _off in BOND_PAIRS], wafers)
    jump = np.tile([
        2 * ((ox * spec.ny + oy) * spec.nz + oz) + _PARITY[rs] - _PARITY[ls]
        for ls, rs, (ox, oy, oz) in BOND_PAIRS
    ], wafers)
    edges = np.empty((len(hits), 2), dtype=np.int64)
    np.multiply(hits, 2, out=edges[:, 0])
    edges[:, 0] += (first - 2 * cells * np.arange(wafers * nb))[row]
    np.add(edges[:, 0], jump[row], out=edges[:, 1])
    return np.split(edges, np.searchsorted(row, np.arange(nb, wafers * nb, nb)))


# -- static optics accounting ----------------------------------------------

_SOURCE_ELEMENTS = 3  # on-chip source circuit depth per photon
_FUSION_ELEMENTS = 3  # rotate / combine / rotate of a Type-II network
_DETECTOR_ELEMENTS = 1


def optical_depth_report() -> dict:
    fused = {s for pair in FORMATION_PAIRS + BOND_PAIRS for s in pair[:2]}
    delayed = {ls for ls, _rs, off in BOND_PAIRS if off[2]}
    crossings = set(CROSSING_SLOTS)
    per_slot = {}
    for s in range(PHOTONS_PER_CELL):
        comp = s in COMPUTATIONAL_SLOTS
        elements = {
            "source": _SOURCE_ELEMENTS,
            "fusion": _FUSION_ELEMENTS if s in fused else 0,
            "delay": 1 if s in delayed else 0,
            "crossing": 1 if s in crossings else 0,
            "phase_shifter": 1 if comp else 0,
            "detector": _DETECTOR_ELEMENTS,
        }
        elements["depth"] = sum(elements.values())
        per_slot[s] = elements
    depths = [e["depth"] for e in per_slot.values()]
    return {
        "per_slot": per_slot,
        "max": max(depths),
        "mean": sum(depths) / len(depths),
    }
