"""Dense stabilizer oracle: outputs pinned by a golden recorded before its
row reduction was shared, and its conjugation tables by the search they
were once built with."""

import hashlib
import json
import pathlib
from itertools import product

import numpy as np

from ballistic import clifford as cl
from ballistic.dense import (
    _CZ_CONJ,
    _CZ_FLIPS,
    _LOCAL_CONJ,
    _LOCAL_FLIPS,
    MAX_QUBITS,
    DenseStabilizerState,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "dense_oracle.json").read_text()
)


def oracle_outputs(seed: int) -> list:
    """Everything the oracle reports about one seeded random sequence.

    Each measurement is repeated at once, so the second outcome is always
    the deterministic branch.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    d = DenseStabilizerState(n)
    out = []
    for _ in range(int(rng.integers(0, 16))):
        r = rng.random()
        if r < 0.4 and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            d.apply_cz(int(a), int(b))
        elif r < 0.75:
            d.apply_clifford(int(rng.integers(n)), int(rng.integers(24)))
        else:
            q = int(rng.integers(n))
            basis = "XYZ"[int(rng.integers(3))]
            out.append([d.measure(q, basis, rng), d.measure(q, basis, rng)])
    out.append(d.canonical_rows())
    keep = [q for q in range(n) if rng.random() < 0.5] or [0]
    try:
        out.append(d.subsystem_canonical(keep))
    except ValueError:
        out.append("mixed")
    for q in range(n):
        try:
            out.append(d.single_qubit_stabilizer(q))
        except ValueError:
            out.append("entangled")
    return out


def oracle_digest(sequences: int) -> str:
    h = hashlib.sha256()
    for seed in range(sequences):
        h.update(json.dumps(oracle_outputs(seed)).encode())
    return h.hexdigest()


def cz_conj_table() -> dict:
    return {",".join(map(str, k)): list(v) for k, v in sorted(_CZ_CONJ.items())}


def test_cz_conj_table_golden():
    assert cz_conj_table() == GOLDEN["cz_conj"]


def old_local_op(x: int, z: int) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    if x:
        m = m @ cl.PAULI["X"]
    if z:
        m = m @ cl.PAULI["Z"]
    return m


def old_local_form(m: np.ndarray) -> tuple[int, int, int]:
    """(d, x, z) with m = i^d X^x Z^z, by a search with np.allclose."""
    for d in range(4):
        for x, z in product((0, 1), repeat=2):
            if np.allclose(m, (1j**d) * old_local_op(x, z), atol=1e-9):
                return d, x, z
    raise AssertionError("operator left the Pauli group")


def test_local_conj_table_matches_old_search():
    want = [
        {
            (x, z): old_local_form(c @ old_local_op(x, z) @ c.conj().T)
            for x, z in product((0, 1), repeat=2)
        }
        for c in cl.CLIFFORD_MATS
    ]
    assert _LOCAL_CONJ == want
    assert [list(table) for table in _LOCAL_CONJ] == [list(table) for table in want]
    assert {type(v) for table in _LOCAL_CONJ for form in table.values() for v in form} == {int}


def old_apply_clifford(rows: list, q: int, c: int):
    """The per-row update `apply_clifford` made before its table was read
    by bit pattern: the row's two bits at q as a tuple key of
    `_LOCAL_CONJ[c]`.  Kept as its reference."""
    ent = _LOCAL_CONJ[c]
    bit = 1 << q
    for row in rows:
        d, x2, z2 = ent[(1 if row[1] & bit else 0, 1 if row[2] & bit else 0)]
        row[0] = (row[0] + d) & 3
        row[1] = (row[1] & ~bit) | (x2 * bit)
        row[2] = (row[2] & ~bit) | (z2 * bit)


def old_apply_cz(rows: list, a: int, b: int):
    """`apply_cz`'s old per-row update, the four bits at a and b as a tuple
    key of `_CZ_CONJ`.  Kept as its reference."""
    ba, bb = 1 << a, 1 << b
    for row in rows:
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


def test_updates_match_tuple_keyed_reference():
    """`apply_cz` and `apply_clifford` against the tuple-keyed per-row
    updates, on random tableaux.  The updates act row by row, so a random
    tableau need not be a stabilizer group; every fourth one is
    MAX_QUBITS wide, and each starts with CZs and Cliffords on its first
    and last qubits, both ways round."""
    pairs = set()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n = MAX_QUBITS if seed % 4 == 0 else int(rng.integers(2, MAX_QUBITS + 1))
        d = DenseStabilizerState(n)
        d.rows = [
            [int(rng.integers(4)), int(rng.integers(1 << n)), int(rng.integers(1 << n))]
            for _ in range(n + int(rng.integers(0, 3)))
        ]
        want = [list(row) for row in d.rows]
        ops = [("cz", 0, n - 1), ("cz", n - 1, 0), ("c", 0), ("c", n - 1)]
        for _ in range(12):
            if rng.random() < 0.5:
                ops.append(("cz", *(int(q) for q in rng.choice(n, 2, replace=False))))
            else:
                ops.append(("c", int(rng.integers(n))))
        for op in ops:
            if op[0] == "cz":
                d.apply_cz(op[1], op[2])
                old_apply_cz(want, op[1], op[2])
                pairs.add((op[1] < op[2], n == MAX_QUBITS))
            else:
                c = int(rng.integers(24))
                d.apply_clifford(op[1], c)
                old_apply_clifford(want, op[1], c)
            assert d.rows == want, (seed, op)
    assert pairs == {(True, True), (False, True), (True, False), (False, False)}


def test_flip_tables_match_conj_tables():
    """Entry 2x + z of `_LOCAL_FLIPS[c][q]`, and entry 8xa + 4za + 2xb + zb
    of `_CZ_FLIPS[a][b]`, hold the phase and the flipped bits of the same
    entry of `_LOCAL_CONJ` or `_CZ_CONJ`."""
    assert len(_LOCAL_FLIPS) == 24 and len(_CZ_FLIPS) == MAX_QUBITS
    for c, table in enumerate(_LOCAL_CONJ):
        assert len(_LOCAL_FLIPS[c]) == MAX_QUBITS
        for q, flips in enumerate(_LOCAL_FLIPS[c]):
            assert len(flips) == 4
            for (x, z), (d, x2, z2) in table.items():
                assert flips[2 * x + z] == (d, (x ^ x2) << q, (z ^ z2) << q)
    for a, b in product(range(MAX_QUBITS), repeat=2):
        flips = _CZ_FLIPS[a][b]
        assert len(_CZ_FLIPS[a]) == MAX_QUBITS and len(flips) == 16
        for (xa, za, xb, zb), (d, xa2, za2, xb2, zb2) in _CZ_CONJ.items():
            assert flips[8 * xa + 4 * za + 2 * xb + zb] == (
                d,
                (xa ^ xa2) << a | (xb ^ xb2) << b,
                (za ^ za2) << a | (zb ^ zb2) << b,
            )


def test_dense_oracle_golden():
    assert oracle_digest(GOLDEN["sequences"]) == GOLDEN["sha256"]


def test_subsystem_of_no_qubits_is_empty():
    d = DenseStabilizerState(2)
    d.apply_cz(0, 1)
    assert d.subsystem_canonical([]) == ()
