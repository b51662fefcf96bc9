"""Dense stabilizer oracle: outputs pinned by a golden recorded before its
row reduction was shared, and its conjugation tables by the search they
were once built with."""

import hashlib
import json
import pathlib
from itertools import product

import numpy as np

from ballistic import clifford as cl
from ballistic.dense import _CZ_CONJ, _LOCAL_CONJ, DenseStabilizerState

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


def test_dense_oracle_golden():
    assert oracle_digest(GOLDEN["sequences"]) == GOLDEN["sha256"]


def test_subsystem_of_no_qubits_is_empty():
    d = DenseStabilizerState(2)
    d.apply_cz(0, 1)
    assert d.subsystem_canonical([]) == ()
