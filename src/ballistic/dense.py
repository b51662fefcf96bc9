"""Brute-force stabilizer oracle for <= 12 qubits.

Stores the full generator tableau as integer bitmasks with i^r phase
prefactors and updates it by direct Pauli conjugation.  Deliberately simple:
this is the reference the sparse graph engine is fuzzed against, so it shares
no update rules with it.
"""

from __future__ import annotations

import numpy as np

from . import clifford as cl
from .errors import CapacityError, ShapeError, VertexStateError

MAX_QUBITS = 12

# A row encodes the operator  i^r * prod_j X_j^{x_j} Z_j^{z_j}  (X left of Z
# within each qubit).  Multiplying two rows commutes Z^z1 past X^x2, picking up
# (-1)^{|z1 & x2|}.


def _row_mul(r1, x1, z1, r2, x2, z2):
    r = (r1 + r2 + 2 * bin(z1 & x2).count("1")) & 3
    return r, x1 ^ x2, z1 ^ z2


def _local_op(xb: int, zb: int) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    if xb:
        m = m @ cl.PAULI["X"]
    if zb:
        m = m @ cl.PAULI["Z"]
    return m


def _match_local(m: np.ndarray) -> tuple[int, int, int]:
    """Express a 2x2 matrix as i^d X^x Z^z."""
    for d in range(4):
        for x in (0, 1):
            for z in (0, 1):
                if np.allclose(m, (1j**d) * _local_op(x, z), atol=1e-9):
                    return d, x, z
    raise AssertionError("operator left the Pauli group")


def _build_local_conj_table():
    """table[c][(x,z)] = (d, x', z') with C (X^x Z^z) C^dag = i^d X^x' Z^z'."""
    table = []
    for c in range(24):
        cm = cl.CLIFFORD_MATS[c]
        ent = {}
        for x in (0, 1):
            for z in (0, 1):
                ent[(x, z)] = _match_local(cm @ _local_op(x, z) @ cm.conj().T)
        table.append(ent)
    return table


def _build_cz_conj_table():
    """table[(xa,za,xb,zb)] = (d, xa', za', xb', zb') under CZ conjugation."""
    czm = np.diag([1, 1, 1, -1]).astype(complex)
    table = {}
    for xa in (0, 1):
        for za in (0, 1):
            for xb in (0, 1):
                for zb in (0, 1):
                    m = czm @ np.kron(_local_op(xa, za), _local_op(xb, zb)) @ czm
                    for d in range(4):
                        done = False
                        for xa2 in (0, 1):
                            for za2 in (0, 1):
                                for xb2 in (0, 1):
                                    for zb2 in (0, 1):
                                        t = (1j**d) * np.kron(
                                            _local_op(xa2, za2), _local_op(xb2, zb2)
                                        )
                                        if np.allclose(m, t, atol=1e-9):
                                            table[(xa, za, xb, zb)] = (d, xa2, za2, xb2, zb2)
                                            done = True
                                            break
                                    if done:
                                        break
                                if done:
                                    break
                        if done:
                            break
                    else:  # pragma: no cover
                        raise AssertionError("CZ conjugation left the Pauli group")
    return table


_LOCAL_CONJ = _build_local_conj_table()
_CZ_CONJ = _build_cz_conj_table()

# Measurement operators by Pauli index: P = i^r X^x Z^z per qubit.
_PAULI_RXZ = {1: (0, 1, 0), 2: (1, 1, 1), 3: (0, 0, 1)}
_BASIS_IDX = {"X": 1, "Y": 2, "Z": 3}


def from_graph_register(g) -> "DenseStabilizerState":
    """Dense state of a GraphRegister's alive vertices (sorted-id order)."""
    from . import clifford as _cl

    alive = sorted(g.alive_vertices())
    idx = {v: i for i, v in enumerate(alive)}
    d = DenseStabilizerState(len(alive))
    for u, v in g.edges():
        d.apply_cz(idx[u], idx[v])
    for v in alive:
        f = g.get_frame(v)
        if f:
            d.apply_clifford(idx[v], _cl.PAULI_IDX[f])
    for v in alive:
        c = g.get_vop(v)
        if c != _cl.ID:
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
        ent = _LOCAL_CONJ[c]
        bit = 1 << q
        for row in self.rows:
            d, x2, z2 = ent[(1 if row[1] & bit else 0, 1 if row[2] & bit else 0)]
            row[0] = (row[0] + d) & 3
            row[1] = (row[1] & ~bit) | (x2 * bit)
            row[2] = (row[2] & ~bit) | (z2 * bit)

    def apply_cz(self, a: int, b: int):
        self._check(a)
        self._check(b)
        if a == b:
            raise VertexStateError("CZ needs two distinct qubits")
        ba, bb = 1 << a, 1 << b
        for row in self.rows:
            key = (
                1 if row[1] & ba else 0,
                1 if row[2] & ba else 0,
                1 if row[1] & bb else 0,
                1 if row[2] & bb else 0,
            )
            d, xa2, za2, xb2, zb2 = _CZ_CONJ[key]
            row[0] = (row[0] + d) & 3
            row[1] = (row[1] & ~(ba | bb)) | (xa2 * ba) | (xb2 * bb)
            row[2] = (row[2] & ~(ba | bb)) | (za2 * ba) | (zb2 * bb)

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
            if (bin(row[1] & pz).count("1") + bin(row[2] & px).count("1")) & 1
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
        n = self.n
        # Gaussian elimination over GF(2) on (x|z) with phase tracking.
        work = [list(row) for row in self.rows]
        acc = [0, 0, 0]  # accumulated product of selected rows
        target_x, target_z = px, pz
        cols = [("x", j) for j in range(n)] + [("z", j) for j in range(n)]
        r = 0
        for kind, j in cols:
            bit = 1 << j
            sel = 1 if kind == "x" else 2
            piv = next((i for i in range(r, n) if work[i][sel] & bit), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            for i in range(n):
                if i != r and work[i][sel] & bit:
                    work[i][:] = _row_mul(*work[r], *work[i])
            if (target_x if kind == "x" else target_z) & bit:
                acc[:] = _row_mul(*acc, *work[r])
                target_x ^= work[r][1]
                target_z ^= work[r][2]
            r += 1
        if target_x or target_z:  # pragma: no cover - caller guarantees membership
            raise AssertionError("operator not in stabilizer group despite commuting")
        diff = (acc[0] - rp) & 3
        assert diff in (0, 2)
        return 1 if diff == 0 else -1

    # -- comparison --------------------------------------------------------

    def canonical_rows(self) -> tuple:
        """Phase-tracked RREF of the generator matrix; equal iff same group."""
        n = self.n
        work = [list(row) for row in self.rows]
        r = 0
        for kind in ("x", "z"):
            sel = 1 if kind == "x" else 2
            for j in range(n):
                bit = 1 << j
                piv = next((i for i in range(r, n) if work[i][sel] & bit), None)
                if piv is None:
                    continue
                work[r], work[piv] = work[piv], work[r]
                for i in range(n):
                    if i != r and work[i][sel] & bit:
                        work[i][:] = _row_mul(*work[r], *work[i])
                r += 1
        return tuple(sorted((row[0], row[1], row[2]) for row in work))

    def subsystem_canonical(self, keep) -> tuple:
        """Canonical stabilizer rows of the subsystem on `keep` qubits.

        Valid when the kept qubits are in a pure state (e.g. the others have
        been projectively measured); raises otherwise.
        """
        keep = sorted(keep)
        n = self.n
        drop = [q for q in range(n) if q not in keep]
        work = [list(r) for r in self.rows]
        r = 0
        for sel in (1, 2):
            for j in drop:
                bit = 1 << j
                piv = next((i for i in range(r, n) if work[i][sel] & bit), None)
                if piv is None:
                    continue
                work[r], work[piv] = work[piv], work[r]
                for i in range(n):
                    if i != r and work[i][sel] & bit:
                        work[i][:] = _row_mul(*work[r], *work[i])
                r += 1
        dropmask = sum(1 << j for j in drop)
        sub = [row for row in work if not ((row[1] | row[2]) & dropmask)]
        if len(sub) < len(keep):
            raise ValueError("kept qubits are not in a pure state")
        pos = {q: i for i, q in enumerate(keep)}
        out = DenseStabilizerState(max(len(keep), 1))
        out.rows = []
        for row in sub[: len(keep)]:
            x2 = z2 = 0
            for q in keep:
                if row[1] & (1 << q):
                    x2 |= 1 << pos[q]
                if row[2] & (1 << q):
                    z2 |= 1 << pos[q]
            out.rows.append([row[0], x2, z2])
        return out.canonical_rows()

    def single_qubit_stabilizer(self, q: int) -> tuple[int, int]:
        """(sign, pauli index) stabilizing qubit q alone, if one exists.

        Requires the state to factor as (pure 1-qubit state on q) x rest;
        raises otherwise.
        """
        self._check(q)
        n = self.n
        work = [list(row) for row in self.rows]
        qbit = 1 << q
        # Eliminate on every column except q's two.
        r = 0
        for kind in ("x", "z"):
            sel = 1 if kind == "x" else 2
            for j in range(n):
                if j == q:
                    continue
                bit = 1 << j
                piv = next((i for i in range(r, n) if work[i][sel] & bit), None)
                if piv is None:
                    continue
                work[r], work[piv] = work[piv], work[r]
                for i in range(n):
                    if i != r and work[i][sel] & bit:
                        work[i][:] = _row_mul(*work[r], *work[i])
                r += 1
        for row in work:
            others_x = row[1] & ~qbit
            others_z = row[2] & ~qbit
            if not others_x and not others_z and (row[1] | row[2]) & qbit:
                xb = 1 if row[1] & qbit else 0
                zb = 1 if row[2] & qbit else 0
                p = {(1, 0): 1, (1, 1): 2, (0, 1): 3}[(xb, zb)]
                rp = _PAULI_RXZ[p][0]
                diff = (row[0] - rp) & 3
                assert diff in (0, 2)
                return (1 if diff == 0 else -1), p
        raise ValueError("qubit is entangled with the rest; no local stabilizer")
