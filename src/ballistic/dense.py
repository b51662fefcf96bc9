"""Brute-force stabilizer oracle for <= 12 qubits.

Stores the full generator tableau as integer bitmasks with i^r phase
prefactors and updates it by direct Pauli conjugation.  Deliberately simple:
this is the reference the sparse graph engine is fuzzed against, so it shares
no update rules with it.  Its two conjugation tables come from matrix traces
alone (`_pauli_forms` reads only `CLIFFORD_MATS` and `PAULI` from `clifford`,
never the engine's MUL/ADJ/CONJ tables).  A CZ or local Clifford reads them
per row by the row's bit pattern at the qubits it acts on, through lists of
the phase each entry adds and the bits it flips.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import clifford as cl
from .errors import CapacityError, ShapeError, VertexStateError

MAX_QUBITS = 12

# A row encodes the operator  i^r * prod_j X_j^{x_j} Z_j^{z_j}  (X left of Z
# within each qubit).  Multiplying two rows commutes Z^z1 past X^x2, picking up
# (-1)^{|z1 & x2|}.


def _row_mul(r1, x1, z1, r2, x2, z2):
    r = (r1 + r2 + 2 * (z1 & x2).bit_count()) & 3
    return r, x1 ^ x2, z1 ^ z2


# X^x Z^z at index 2x + z
_XZ = np.stack([np.eye(2), cl.PAULI["Z"], cl.PAULI["X"], cl.PAULI["X"] @ cl.PAULI["Z"]])


def _pauli_forms(us: np.ndarray, nq: int) -> list[dict]:
    """Conjugation tables of a (k, 2^nq, 2^nq) stack of unitaries:
    forms[k][bits] = (d, *bits') with us[k] B(bits) us[k]^dag = i^d B(bits'),
    where bits = (x_1, z_1, ..., x_nq, z_nq) and B(bits) is the Kronecker
    product of the X^x_j Z^z_j.

    A conjugate op is i^d B for the one B with |tr(B^dag op)| / 2^nq = 1,
    the trace giving the phase; no such B means op left the Pauli group.
    """
    bits = list(product((0, 1), repeat=2 * nq))
    basis = np.ones((1, 1, 1))
    for _ in range(nq):
        dim = 2 * basis.shape[1]
        basis = np.einsum("iab,jcd->ijacbd", basis, _XZ).reshape(-1, dim, dim)
    ops = us[:, None] @ basis @ us[:, None].conj().swapaxes(2, 3)
    trace = np.einsum("jab,kiab->kij", basis.conj(), ops) / 2**nq
    j = np.abs(trace).argmax(axis=2)
    lead = np.take_along_axis(trace, j[..., None], axis=2)[..., 0]
    if np.any(np.abs(np.abs(lead) - 1) > 1e-9):
        raise AssertionError("operator left the Pauli group")
    d = np.rint(np.angle(lead) / (np.pi / 2)).astype(int) % 4
    return [
        {key: (int(dk), *bits[jk]) for key, dk, jk in zip(bits, dr, jr)}
        for dr, jr in zip(d, j)
    ]


def _reduce(rows: list, qubits: list | range) -> list:
    """Phase-tracked GF(2) row reduction of a copy of `rows`.

    The columns are the x parts of `qubits`, then their z parts, so
    `qubits` is walked twice and must be a list or a range, not an iterator.
    Afterwards each pivot column is set in its pivot row only, and is that
    row's first set column.
    """
    work = [list(row) for row in rows]
    n = len(work)
    r = 0
    for sel in (1, 2):  # the x part of a row, then its z part
        for j in qubits:
            bit = 1 << j
            for piv in range(r, n):
                if work[piv][sel] & bit:
                    break
            else:
                continue
            pr = work[piv]
            work[r], work[piv] = pr, work[r]
            for i, row in enumerate(work):
                if i != r and row[sel] & bit:
                    row[:] = _row_mul(*pr, *row)
            r += 1
    return work


#: _LOCAL_CONJ[c][(x, z)] = (d, x', z') with C_c X^x Z^z C_c^dag = i^d X^x' Z^z'
_LOCAL_CONJ = _pauli_forms(np.stack(cl.CLIFFORD_MATS), 1)
#: _CZ_CONJ[(xa, za, xb, zb)] = (d, xa', za', xb', zb') under CZ conjugation
(_CZ_CONJ,) = _pauli_forms(np.diag([1, 1, 1, -1]).astype(complex)[None], 2)

# The same two tables read by a row's bit pattern, per qubit: entry
# 2x + z of _LOCAL_FLIPS[c][q], and entry 8xa + 4za + 2xb + zb of
# _CZ_FLIPS[a][b], is (d, fx, fz): the phase i^d the conjugation adds and
# the masks of the x and z bits it flips.
_LOCAL_FLIPS = [
    [
        [(d, (x ^ x2) << q, (z ^ z2) << q) for (x, z), (d, x2, z2) in table.items()]
        for q in range(MAX_QUBITS)
    ]
    for table in _LOCAL_CONJ
]
_CZ_FLIPS = [
    [
        [
            (d, (xa ^ xa2) << a | (xb ^ xb2) << b, (za ^ za2) << a | (zb ^ zb2) << b)
            for (xa, za, xb, zb), (d, xa2, za2, xb2, zb2) in _CZ_CONJ.items()
        ]
        for b in range(MAX_QUBITS)
    ]
    for a in range(MAX_QUBITS)
]

# Measurement operators by Pauli index: P = i^r X^x Z^z per qubit.
_PAULI_RXZ = {1: (0, 1, 0), 2: (1, 1, 1), 3: (0, 0, 1)}
_BASIS_IDX = {"X": 1, "Y": 2, "Z": 3}


def from_graph_register(g) -> "DenseStabilizerState":
    """Dense state of a GraphRegister's alive vertices (sorted-id order)."""
    alive = sorted(g.alive_vertices())
    idx = {v: i for i, v in enumerate(alive)}
    d = DenseStabilizerState(len(alive))
    for u, v in g.edges():
        d.apply_cz(idx[u], idx[v])
    for v in alive:
        f = g.get_frame(v)
        if f:
            d.apply_clifford(idx[v], cl.PAULI_IDX[f])
    for v in alive:
        c = g.get_vop(v)
        if c != cl.ID:
            d.apply_clifford(idx[v], c)
    return d


class DenseStabilizerState:
    """Full stabilizer tableau over up to MAX_QUBITS qubits."""

    def __init__(self, n: int):
        if n > MAX_QUBITS:
            raise CapacityError(f"dense oracle limited to {MAX_QUBITS} qubits, got {n}")
        if n < 1:
            raise ShapeError("need at least one qubit")
        self.n = n
        # |+>^n : stabilizers X_i
        self.rows = [[0, 1 << i, 0] for i in range(n)]

    # -- state updates -----------------------------------------------------

    def _check(self, q: int):
        if not 0 <= q < self.n:
            raise VertexStateError(f"qubit {q} out of range")

    def apply_clifford(self, q: int, c: int):
        self._check(q)
        flips = _LOCAL_FLIPS[c][q]
        for row in self.rows:
            x, z = row[1], row[2]
            d, fx, fz = flips[(x >> q & 1) << 1 | z >> q & 1]
            row[0] = (row[0] + d) & 3
            row[1] = x ^ fx
            row[2] = z ^ fz

    def apply_cz(self, a: int, b: int):
        self._check(a)
        self._check(b)
        if a == b:
            raise VertexStateError("CZ needs two distinct qubits")
        flips = _CZ_FLIPS[a][b]
        for row in self.rows:
            x, z = row[1], row[2]
            d, fx, fz = flips[
                (x >> a & 1) << 3 | (z >> a & 1) << 2 | (x >> b & 1) << 1 | z >> b & 1
            ]
            row[0] = (row[0] + d) & 3
            row[1] = x ^ fx
            row[2] = z ^ fz

    def measure(self, q: int, basis: str, rng=None, forced: int | None = None) -> int:
        """Measure single-qubit Pauli; returns +1/-1 and collapses.

        `forced` pins the outcome of a random branch (raises if the branch is
        deterministic and disagrees).
        """
        self._check(q)
        rp, xp, zp = _PAULI_RXZ[_BASIS_IDX[basis]]
        px, pz = xp << q, zp << q

        anti = [
            i
            for i, row in enumerate(self.rows)
            if (row[1] & pz ^ row[2] & px).bit_count() & 1
        ]
        if anti:
            if forced is not None:
                outcome = forced
            else:
                outcome = 1 if rng.random() < 0.5 else -1
            piv = anti[0]
            pr = self.rows[piv]
            for i in anti[1:]:
                self.rows[i][:] = _row_mul(*pr, *self.rows[i])
            self.rows[piv] = [(rp + (0 if outcome == 1 else 2)) & 3, px, pz]
            return outcome
        # Deterministic: +/-P is in the group; find the combination.
        outcome = self._deterministic_sign(rp, px, pz)
        if forced is not None and forced != outcome:
            raise ValueError("forced outcome has probability zero")
        return outcome

    def _deterministic_sign(self, rp: int, px: int, pz: int) -> int:
        # +/-P is the product of the reduced rows whose pivot column is set
        # in P; the rows commute, so their order leaves the sign alone.  A
        # row's pivot is its first set column: its lowest x bit, else its
        # lowest z bit.
        acc = [0, 0, 0]
        for row in _reduce(self.rows, range(self.n)):
            x, z = row[1], row[2]
            if (px & x & -x) if x else (pz & z & -z):
                acc = _row_mul(*acc, *row)
        if (acc[1], acc[2]) != (px, pz):  # pragma: no cover - caller guarantees membership
            raise AssertionError("operator not in stabilizer group despite commuting")
        diff = (acc[0] - rp) & 3
        assert diff in (0, 2)
        return 1 if diff == 0 else -1

    # -- comparison --------------------------------------------------------

    def canonical_rows(self) -> tuple:
        """Phase-tracked RREF of the generator matrix; equal iff same group."""
        return tuple(sorted(tuple(row) for row in _reduce(self.rows, range(self.n))))

    def subsystem_canonical(self, keep) -> tuple:
        """Canonical stabilizer rows of the subsystem on `keep` qubits.

        Valid when the kept qubits are in a pure state (e.g. the others have
        been projectively measured); raises otherwise.
        """
        keep = sorted(keep)
        drop = [q for q in range(self.n) if q not in keep]
        dropmask = sum(1 << j for j in drop)
        work = _reduce(self.rows, drop)
        sub = [row for row in work if not ((row[1] | row[2]) & dropmask)]
        if len(sub) < len(keep):
            raise ValueError("kept qubits are not in a pure state")
        # renumber the kept qubits 0, 1, ...
        new_bit = {1 << q: 1 << i for i, q in enumerate(keep)}
        out = DenseStabilizerState(max(len(keep), 1))
        out.rows = []
        for r, x, z in sub[: len(keep)]:
            x2 = z2 = 0
            for old_bit, bit in new_bit.items():
                if x & old_bit:
                    x2 |= bit
                if z & old_bit:
                    z2 |= bit
            out.rows.append([r, x2, z2])
        return out.canonical_rows()

    def single_qubit_stabilizer(self, q: int) -> tuple[int, int]:
        """(sign, pauli index) stabilizing qubit q alone, if one exists.

        Requires the state to factor as (pure 1-qubit state on q) x rest;
        raises otherwise.
        """
        self._check(q)
        qbit = 1 << q
        # Eliminate on every column except q's two.
        others = [j for j in range(self.n) if j != q]
        for r, x, z in _reduce(self.rows, others):
            if not (x | z) & ~qbit and (x | z) & qbit:
                p = {(1, 0): 1, (1, 1): 2, (0, 1): 3}[(x >> q & 1, z >> q & 1)]
                diff = (r - _PAULI_RXZ[p][0]) & 3
                assert diff in (0, 2)
                return (1 if diff == 0 else -1), p
        raise ValueError("qubit is entangled with the rest; no local stabilizer")
