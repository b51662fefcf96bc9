"""Tables for the 24-element single-qubit Clifford group (modulo global phase).

Everything downstream (the graph-state engine and the dense tableau oracle)
indexes local Cliffords by an integer 0..23.  The tables are generated once at
import time by closing {H, S} under multiplication, each element keyed by
`phase_keys` (its one form up to a global phase), so the index assignment is
deterministic across runs.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-9

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Pauli indices used throughout: 0=I, 1=X, 2=Y, 3=Z.
PAULI_MATS = (PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"])

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def phase_keys(ops: np.ndarray) -> list[bytes]:
    """One hashable key per operator in an (n, ...) stack, equal for any two
    operators that differ by a unit phase: divide each by the phase of its
    first entry with |.| > 1e-9, round real and imaginary parts at 1e-6."""
    flat = ops.reshape(len(ops), -1)
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > _EPS, axis=1)]
    flat = flat * (np.abs(lead) / lead)[:, None]
    ints = np.rint(np.stack([flat.real, flat.imag], axis=-1) * 1e6).astype(np.int64)
    return [row.tobytes() for row in ints]


def _close_group() -> list[np.ndarray]:
    elems = [I2]
    keys = set(phase_keys(I2[None]))
    frontier = [I2]
    while frontier:
        products = [m @ g for m in frontier for g in (_H, _S)]
        frontier = []
        for p, k in zip(products, phase_keys(np.stack(products))):
            if k not in keys:
                keys.add(k)
                elems.append(p)
                frontier.append(p)
    assert len(elems) == 24
    return elems


CLIFFORD_MATS: list[np.ndarray] = _close_group()
_INDEX = {k: i for i, k in enumerate(phase_keys(np.stack(CLIFFORD_MATS)))}


def clifford_index(m: np.ndarray) -> int:
    """Index of a 2x2 unitary within the group (must be a Clifford mod phase)."""
    (k,) = phase_keys(m[None])
    if k not in _INDEX:
        raise ValueError("matrix is not a single-qubit Clifford (mod phase)")
    return _INDEX[k]


def _build_tables():
    n = 24
    mats = np.stack(CLIFFORD_MATS)
    products = (mats[:, None] @ mats).reshape(n * n, 2, 2)  # C_i @ C_j at i*n + j
    adjoints = mats.conj().swapaxes(1, 2)
    mul = np.array([_INDEX[k] for k in phase_keys(products)]).reshape(n, n)
    adj = tuple(_INDEX[k] for k in phase_keys(adjoints))
    # C_i P_p C_i^dag = +/-P_q, so its trace against P_q / 2 is that sign and
    # its trace against each other Pauli is 0: trace[i, p, q].
    paulis = np.stack(PAULI_MATS)
    trace = np.einsum("qda,iab,pbc,idc->ipq", paulis, mats, paulis, mats.conj()).real / 2
    conj_p = np.abs(trace).argmax(axis=2)
    conj_s = np.take_along_axis(trace, conj_p[..., None], axis=2)[..., 0]

    def rows(table):
        return tuple(map(tuple, table.astype(int).tolist()))

    return rows(mul), adj, rows(conj_p), rows(np.rint(conj_s))


# Nested tuples of ints: the engine reads single entries on every update,
# and a tuple item costs far less than a numpy scalar read.
#: MUL[i][j] = index of C_i @ C_j
#: ADJ[i] = index of C_i^dagger
#: CONJ_P[i][p], CONJ_S[i][p]: C_i P_p C_i^dagger = CONJ_S * Pauli(CONJ_P)
MUL, ADJ, CONJ_P, CONJ_S = _build_tables()

# Named elements.
ID = clifford_index(I2)
X = clifford_index(PAULI["X"])
Y = clifford_index(PAULI["Y"])
Z = clifford_index(PAULI["Z"])
PAULI_IDX = (ID, X, Y, Z)  # Clifford index of each Pauli, by Pauli index


def _sqrt(sign: int, p: str) -> int:
    # exp(sign * i*pi/4 * P) = (I + sign*i*P)/sqrt(2)
    return clifford_index((I2 + sign * 1j * PAULI[p]) / np.sqrt(2))


SQRT_IX = _sqrt(+1, "X")
SQRT_IY = _sqrt(+1, "Y")
SQRT_MIZ = _sqrt(-1, "Z")

#: Cliffords mapping Z to +/-Z under conjugation; CZ commutes with these up to
#: a Z byproduct on the partner qubit.
Z_DIAGONAL = frozenset(i for i in range(24) if CONJ_P[i][3] == 3)


def factor_words(gen_a: int, gen_b: int) -> list[tuple[int, ...]]:
    """Shortest word over {gen_a, gen_b} (left-to-right product) for each element.

    The graph engine uses this to peel a vertex operator off via local
    complementations: gen_a / gen_b are the factors an LC at the vertex /
    at a neighbor contributes to its vop.
    """
    words: dict[int, tuple[int, ...]] = {ID: ()}
    frontier = [ID]
    while frontier:
        nxt = []
        for m in frontier:
            for g in (gen_a, gen_b):
                m2 = MUL[m][g]
                if m2 not in words:
                    words[m2] = words[m] + (g,)
                    nxt.append(m2)
        frontier = nxt
    assert len(words) == 24
    return [words[i] for i in range(24)]
