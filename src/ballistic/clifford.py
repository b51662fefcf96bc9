"""Tables for the 24-element single-qubit Clifford group (modulo global phase).

Everything downstream (the sparse graph engine and the dense tableau oracle)
indexes local Cliffords by an integer 0..23.  The tables are generated once at
import time by closing {H, S} under multiplication and canonicalizing phases,
so the index assignment is deterministic across runs.
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


def _canonical(m: np.ndarray) -> np.ndarray:
    """Fix global phase: first entry of significant magnitude made positive real."""
    flat = m.ravel()
    k = np.argmax(np.abs(flat) > _EPS)
    return m * (np.abs(flat[k]) / flat[k])


def _key(m: np.ndarray) -> tuple:
    c = _canonical(m)
    return tuple(np.round(c.ravel(), 6).view(float))


def _close_group() -> list[np.ndarray]:
    elems = [_canonical(I2)]
    keys = {_key(I2)}
    frontier = [I2]
    while frontier:
        nxt = []
        for m in frontier:
            for g in (_H, _S):
                p = _canonical(m @ g)
                k = _key(p)
                if k not in keys:
                    keys.add(k)
                    elems.append(p)
                    nxt.append(p)
        frontier = nxt
    assert len(elems) == 24
    return elems


CLIFFORD_MATS: list[np.ndarray] = _close_group()
_INDEX = {_key(m): i for i, m in enumerate(CLIFFORD_MATS)}


def clifford_index(m: np.ndarray) -> int:
    """Index of a 2x2 unitary within the group (must be a Clifford mod phase)."""
    k = _key(m)
    if k not in _INDEX:
        raise ValueError("matrix is not a single-qubit Clifford (mod phase)")
    return _INDEX[k]


def _build_tables():
    n = 24
    mul = np.empty((n, n), dtype=np.int8)
    adj = np.empty(n, dtype=np.int8)
    conj_p = np.empty((n, 4), dtype=np.int8)
    conj_s = np.empty((n, 4), dtype=np.int8)
    for i, a in enumerate(CLIFFORD_MATS):
        adj[i] = clifford_index(a.conj().T)
        for j, b in enumerate(CLIFFORD_MATS):
            mul[i, j] = clifford_index(a @ b)
        conj_p[i, 0] = 0
        conj_s[i, 0] = 1
        for p in (1, 2, 3):
            m = a @ PAULI_MATS[p] @ a.conj().T
            for q in (1, 2, 3):
                if np.allclose(m, PAULI_MATS[q], atol=_EPS):
                    conj_p[i, p], conj_s[i, p] = q, 1
                    break
                if np.allclose(m, -PAULI_MATS[q], atol=_EPS):
                    conj_p[i, p], conj_s[i, p] = q, -1
                    break
            else:  # pragma: no cover - group closure guarantees a match
                raise AssertionError("Pauli conjugation fell outside the Pauli group")
    return mul, adj, conj_p, conj_s


#: MUL[i, j] = index of C_i @ C_j
#: ADJ[i] = index of C_i^dagger
#: CONJ_P[i, p], CONJ_S[i, p]: C_i P_p C_i^dagger = CONJ_S * Pauli(CONJ_P)
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
Z_DIAGONAL = frozenset(int(i) for i in range(24) if CONJ_P[i, 3] == 3)


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
                m2 = int(MUL[m, g])
                if m2 not in words:
                    words[m2] = words[m] + (g,)
                    nxt.append(m2)
        frontier = nxt
    assert len(words) == 24
    return [words[i] for i in range(24)]
