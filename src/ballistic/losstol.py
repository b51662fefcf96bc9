"""Loss-tolerant encoded wires and measurement gadgets.

A logical wire qubit is replaced by a column of L physical qubits with
complete connections to the neighboring columns; teleportation along the
wire survives as long as every column keeps at least one qubit, giving the
closed-form success law (1 - eps^L)^N.  Pauli-Z noise on survivors is
suppressed by a per-column majority vote.  The module also provides a
spliceable phase-gate (S) gadget with its non-loss-protected central qubit
measured in Y before attachment, and the bounded-degree ring construction
whose two X measurements produce a complete-bipartite column block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import from_graph_register
from .errors import CapacityError, SpecError
from .graphstate import GraphRegister, lc_equivalent
from .rng import CHUNK, bernoulli


# -- encoded wire -----------------------------------------------------------


@dataclass(frozen=True)
class CrazyGraphSpec:
    """Loss-tolerant wire: N columns of L qubits each."""

    columns: int
    column_size: int
    loss: float = 0.0
    z_flip: float = 0.0

    def __post_init__(self):
        if self.columns < 1 or self.column_size < 1:
            raise SpecError("need at least one column of one qubit")
        for p in (self.loss, self.z_flip):
            if not 0.0 <= p <= 1.0:
                raise SpecError("probabilities must lie in [0, 1]")


def build_crazy_graph(spec: CrazyGraphSpec) -> GraphRegister:
    """N columns of L vertices, complete bipartite between adjacent columns.

    Vertex ids are column-major: column c holds c*L .. c*L + L - 1.  No
    intra-column edges; L = 1 degenerates to a linear cluster.
    """
    N, L = spec.columns, spec.column_size
    g = GraphRegister(N * L)
    for c in range(N - 1):
        for i in range(L):
            for j in range(L):
                g.apply_cz(c * L + i, (c + 1) * L + j)
    return g


def teleport_success_prob(spec: CrazyGraphSpec) -> float:
    """(1 - eps^L)^N: every column must keep at least one qubit."""
    return (1.0 - spec.loss**spec.column_size) ** spec.columns


@dataclass(frozen=True)
class TeleportReport:
    success_rate: float
    flip_rate: float
    tie_frequency: float


def simulate_teleport(
    spec: CrazyGraphSpec, rng, trials: int
) -> TeleportReport:
    """Monte Carlo loss + Z-noise teleportation at the combinatorial level.

    Per trial each qubit is lost independently with probability `loss`;
    success means every column keeps a survivor.  Each survivor's X outcome
    flips independently with probability `z_flip` and the column value is
    the majority vote among survivors (even splits resolved by a fair
    coin).  The flip rate is the fraction of successful trials where any
    column votes wrong; tie_frequency is the fraction of successful trials
    containing at least one coin-resolved column.
    """
    if trials < 1:
        raise SpecError("trials must be >= 1")
    N, L = spec.columns, spec.column_size
    kept = ~bernoulli(rng, (trials, N, L), spec.loss)
    flipped = bernoulli(rng, (trials, N, L), spec.z_flip)
    # without flips no column ties or votes wrong, so the stream only steps
    # past the coins (in O(1)) and the vote is skipped
    coin = bernoulli(rng, (trials, N), 0.5 if spec.z_flip else 0.0)
    # count and vote a block of about CHUNK cells at a time, so that no
    # per-column array grows with the trial count
    n_success = n_flip = n_tied = 0
    step = max(1, CHUNK // (N * L))
    for lo in range(0, trials, step):
        block = kept[lo:lo + step]
        survivors = _column_counts(block)
        success = (survivors > 0).all(axis=1)
        n_success += int(success.sum())
        if not spec.z_flip:
            continue
        twice = _column_counts(flipped[lo:lo + step] & block)
        twice *= 2
        tie = (twice == survivors) & (survivors > 0)
        col_wrong = (twice > survivors) | (tie & coin[lo:lo + step])
        n_flip += int((col_wrong.any(axis=1) & success).sum())
        n_tied += int((tie.any(axis=1) & success).sum())
    if n_success == 0:
        return TeleportReport(0.0, 0.0, 0.0)
    return TeleportReport(
        n_success / trials, n_flip / n_success, n_tied / n_success
    )


def _column_counts(cells: np.ndarray) -> np.ndarray:
    """True cells per column of a (trials, N, L) bool array, as float32.

    One matrix-vector product per CHUNK cells: exact for L <= 2^24, far
    faster than a bool sum over a short last axis, and holding 4 B per
    column plus one chunk."""
    L = cells.shape[-1]
    rows = cells.reshape(-1, L)
    counts = np.empty(len(rows), dtype=np.float32)
    ones = np.ones(L, dtype=np.float32)
    step = max(1, CHUNK // L)
    for lo in range(0, len(rows), step):
        np.matmul(rows[lo:lo + step], ones, out=counts[lo:lo + step])
    return counts.reshape(cells.shape[:-1])


def exact_flip_prob(L: int, loss: float, z_flip: float) -> float:
    """Exact single-column majority-vote flip rate (analytic oracle).

    Survivor-count-conditioned binomial mixture: condition on s >= 1
    survivors, flip iff more than half flip, plus half the even-split
    probability for the fair-coin tie.
    """
    CrazyGraphSpec(1, L, loss, z_flip)  # checks L, loss and z_flip as a wire's
    norm = 1.0 - loss**L
    if norm == 0.0:
        return 0.0
    total = 0.0
    for s in range(1, L + 1):
        p_s = math.comb(L, s) * (1 - loss) ** s * loss ** (L - s)
        pmf = [math.comb(s, j) * z_flip**j * (1 - z_flip) ** (s - j) for j in range(s + 1)]
        flip = sum(pmf[s // 2 + 1 :])
        if s % 2 == 0:
            flip += 0.5 * pmf[s // 2]
        total += p_s * flip
    return float(total / norm)


# -- spliceable gadgets -----------------------------------------------------


def build_s_gadget(L: int) -> tuple[GraphRegister, int]:
    """Phase-gate gadget: three columns of width L plus a central Y qubit.

    Returns the register and the central qubit.  The central qubit attaches
    to every qubit of the middle column; its Y measurement (performed before
    splicing) bakes the S correction into the column so that teleporting
    through the piece applies S to the logical qubit.  The first column
    (qubits 0 .. L-1) and the last (2L .. 3L-1) are the splice points.
    """
    g = build_crazy_graph(CrazyGraphSpec(3, L))
    (central,) = g.add_vertices(1)
    for i in range(L, 2 * L):
        g.apply_cz(central, i)
    return g, central


# Single-qubit local Cliffords preparing the six Pauli eigenstates from |+>.
_EIGENSTATE_VOPS = {
    (1, 1): 0,  # |+>
    (-1, 1): 5,  # |->
    (1, 2): 2,  # |+i>
    (-1, 2): 3,  # |-i>
    (1, 3): 1,  # |0>
    (-1, 3): 7,  # |1>
}

# Axis images under conjugation by S: X -> Y, Y -> X (sign dropped), Z -> Z.
_S_AXIS = {1: 2, 2: 1, 3: 3}


def verify_s_gadget(L: int, rng) -> bool:
    """Check the gadget teleports each Pauli eigenstate to S(state).

    Splices the pre-measured gadget into a single-qubit wire (input qubit
    CZ-attached to the first column, output to the last), X-measures the
    input and all columns, and verifies in the dense oracle that the output
    is the S image of the input axis up to the tracked Pauli frame (sign),
    eight times per eigenstate.
    """
    n = 3 * L + 3
    if n > 12:
        raise CapacityError("gadget exceeds the dense-oracle bound")
    gadget, central = build_s_gadget(L)
    for (sign, axis), vop in _EIGENSTATE_VOPS.items():
        for _ in range(8):
            reg = gadget.copy()
            reg.measure_pauli(central, "Y", rng)
            base = reg.vertex_count
            u, v = base, base + 1
            reg.add_vertices(2)
            reg.apply_local_clifford(u, vop)
            for i in range(L):
                reg.apply_cz(u, i)
            for i in range(2 * L, 3 * L):
                reg.apply_cz(i, v)
            reg.measure_pauli(u, "X", rng)
            for i in range(3 * L):
                reg.measure_pauli(i, "X", rng)
            dense = from_graph_register(reg)
            q = sorted(reg.alive_vertices()).index(v)
            _out_sign, out_axis = dense.single_qubit_stabilizer(q)
            if out_axis != _S_AXIS[axis]:
                return False
    return True


# -- bounded-degree ring construction of a column block ---------------------


def build_ring_block(L: int) -> tuple[GraphRegister, tuple[int, int]]:
    """Low-degree graph whose two X measurements leave a K_{L,L} block.

    A 4-ring 0-1-2-3 where the adjacent pair (0, 1) is X-measured; each
    measured vertex carries a pendant star of L - 1 vertices (centers 4
    and 5, leaves 6 .. 2L+1).  Every vertex has degree <= max(3, L - 1),
    far below the 2L of the complete-bipartite block it unpacks into, and
    degree <= 3 for every L <= 4.  One family serves every width L >= 2.
    """
    if L < 2:
        raise SpecError("column width must be >= 2")
    n = 2 * L + 2
    g = GraphRegister(n)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5)):
        g.apply_cz(a, b)
    for x in range(6, 4 + L):
        g.apply_cz(4, x)
    for x in range(4 + L, n):
        g.apply_cz(5, x)
    return g, (0, 1)


def _block_parts(L: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bipartition of the survivors carrying the two crazy-graph columns."""
    part_a = (2, 4) + tuple(range(6, 4 + L))
    part_b = (3, 5) + tuple(range(4 + L, 2 * L + 2))
    return part_a, part_b


def column_block(L: int) -> GraphRegister:
    """K_{L,L} target on the ring block's surviving vertex labels."""
    part_a, part_b = _block_parts(L)
    g = GraphRegister(2 * L + 2)
    for a in part_a:
        for b in part_b:
            g.apply_cz(a, b)
    # 0 and 1 are isolated, so either outcome leaves the same graph
    g.measure_pauli(0, "Z", forced=1)
    g.measure_pauli(1, "Z", forced=1)
    return g


def verify_ring_block_equivalence(L: int, rng) -> bool:
    """X-measure the indicated ring pair; check the remainder is locally
    equivalent (by local complementations) to the K_{L,L} column block."""
    g, (x1, x2) = build_ring_block(L)
    g.measure_pauli(x1, "X", rng)
    g.measure_pauli(x2, "X", rng)
    return lc_equivalent(g, column_block(L))
