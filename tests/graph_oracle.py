"""The graph-level wafer build: the exact oracle for `builder.build_wafer`.

Every photon is a `GraphRegister` vertex and every fusion a register
operation, so the lattice is read off the photons' graph state after the
whole build.  It consumes the draws of `builder._sample_draws` and wires
the bonds of `builder.BOND_PAIRS`, both looked up when it is called, so it
agrees with the bond-level build draw for draw, also where a test replaces
the sampler or the wiring.  It is some 700x slower than the
bond-level build, so only the tests that compare the two run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ballistic import builder
from ballistic.builder import (
    COMPUTATIONAL_SLOTS,
    FORMATION_PAIRS,
    PHOTONS_PER_CELL,
    SOURCES_PER_CELL,
    CompLattice,
)
from ballistic.errors import SpecError
from ballistic.graphstate import GraphRegister


@dataclass
class GraphBuild:
    register: GraphRegister
    # (x, y, z) -> (primal vertex, dual vertex) of that cell
    computational_vertices: dict
    comp: CompLattice


def make_ghz3(reg: GraphRegister) -> tuple[int, int, int]:
    """Append one 3-photon resource as a linear cluster a-b-c."""
    a, b, c = reg.add_vertices(3)
    reg.apply_cz(a, b)
    reg.apply_cz(b, c)
    return a, b, c


def fuse(reg: GraphRegister, a: int, b: int, success: bool, rng) -> None:
    """Fuse photons `a` and `b` in place, with the heralded outcome `success`.

    Both photons are Z-measured, `a` first; on success every edge between
    N(a)\\{b} and N(b)\\{a} is then toggled by a CZ, a bare edge toggle
    here: oracle vertices keep the identity vop and a Z-or-identity frame.
    """
    if a == b:
        raise SpecError("fusion needs two distinct photons")
    na = [v for v in reg.neighbors(a) if v != b]
    nb = [v for v in reg.neighbors(b) if v != a]
    reg.measure_pauli(a, "Z", rng)
    reg.measure_pauli(b, "Z", rng)
    if success:
        for u, v in product(na, nb):
            if u != v and reg.is_alive(u) and reg.is_alive(v):
                reg.apply_cz(u, v)


def lose(reg: GraphRegister, v: int, unknown: set) -> None:
    """Drop lost photon `v` as a Z measurement with an unrecorded outcome
    (fixed, so nothing is drawn); its neighbours' frames become `unknown`."""
    unknown.update(reg.neighbors(v))
    reg.measure_pauli(v, "Z", forced=1)


def build_graph_level(spec, *, rng) -> GraphBuild:
    lost, kept, success = builder._sample_draws(spec, rng)
    nx, ny, nz = spec.nx, spec.ny, spec.nz
    reg = GraphRegister(0)
    unknown: set[int] = set()  # vertices whose byproduct frame is unknown
    base = {}
    primal, dual = COMPUTATIONAL_SLOTS

    def vid(x, y, z, slot):
        return base[(x, y, z)] + slot

    def usable(v):
        return reg.is_alive(v) and v not in unknown

    coords = [
        (x, y, z)
        for z in range(nz)
        for x in range(nx)
        for y in range(ny)
    ]
    for (x, y, z) in coords:
        start = reg.vertex_count
        base[(x, y, z)] = start
        for _ in range(SOURCES_PER_CELL):
            make_ghz3(reg)
        # Emission-time loss, then the |+> filter on the survivors.
        for s in range(PHOTONS_PER_CELL):
            if lost[x, y, z, s]:
                lose(reg, start + s, unknown)
        for s in range(PHOTONS_PER_CELL):
            v = start + s
            if reg.is_alive(v) and not kept[x, y, z, s]:
                reg.measure_pauli(v, "Z", rng)

    def attempt(a, b, success, kind):
        alive_pair = [v for v in (a, b) if reg.is_alive(v)]
        if len(alive_pair) == 2 and usable(a) and usable(b):
            fuse(reg, a, b, success, rng)
            return
        # A participant is missing or carries an unknown byproduct.
        if kind == "formation":
            # Multiplexed stage: absence is heralded, survivors are cleanly
            # switched out (Z-measured).
            for v in alive_pair:
                reg.measure_pauli(v, "Z", rng)
        else:
            # Ballistic stage: no herald, survivors are dropped as lost.
            for v in alive_pair:
                lose(reg, v, unknown)

    for (x, y, z) in coords:
        for (a, b) in FORMATION_PAIRS:
            attempt(vid(x, y, z, a), vid(x, y, z, b), True, "formation")
    for (x, y, z) in coords:
        for bi, (ls, rs, off) in enumerate(builder.BOND_PAIRS):
            tx, ty, tz = x + off[0], y + off[1], z + off[2]
            va = vid(x, y, z, ls)
            if not (0 <= tx < nx and 0 <= ty < ny and 0 <= tz < nz):
                # Wafer edge: the photon meets no partner and is measured
                # out at a monitor detector.
                if reg.is_alive(va):
                    reg.measure_pauli(va, "Z", rng)
                continue
            attempt(va, vid(tx, ty, tz, rs), success[x, y, z, bi], "bond")

    comp_vertices = {
        (x, y, z): (vid(x, y, z, primal), vid(x, y, z, dual))
        for (x, y, z) in coords
    }
    comp = _comp_from_register(spec, reg, comp_vertices, unknown)
    return GraphBuild(reg, comp_vertices, comp)


def _comp_from_register(spec, reg, comp_vertices, unknown) -> CompLattice:
    nx, ny, nz = spec.nx, spec.ny, spec.nz
    alive = np.zeros((nx, ny, nz, 2), dtype=bool)
    punched = np.zeros((nx, ny, nz, 2), dtype=bool)
    vert_to_node = {}
    for (x, y, z), pair in comp_vertices.items():
        for parity, v in enumerate(pair):
            a = reg.is_alive(v)
            alive[x, y, z, parity] = a
            punched[x, y, z, parity] = a and v not in unknown
            vert_to_node[v] = ((x * ny + y) * nz + z) * 2 + parity
    edges = []
    for u, v in reg.edges():
        if u in vert_to_node and v in vert_to_node:
            edges.append((vert_to_node[u], vert_to_node[v]))
    arr = (
        np.array(sorted(edges), dtype=np.int64)
        if edges
        else np.zeros((0, 2), dtype=np.int64)
    )
    return CompLattice(nx, ny, nz, alive, punched, arr)
