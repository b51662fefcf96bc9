"""Graph-state engine: unit behavior plus dense-oracle agreement."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from ballistic import acceptance, clifford as cl
from ballistic.acceptance import fuzz_case
from ballistic.dense import DenseStabilizerState, from_graph_register
from ballistic.errors import CapacityError, VertexStateError
from ballistic.graphstate import GraphRegister, _build_cz_tables, lc_equivalent

CZ_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cz_tables.json").read_text()
)


def rng():
    return np.random.default_rng(7)


def test_cz_builds_edges():
    g = GraphRegister(3)
    g.apply_cz(0, 1).apply_cz(1, 2)
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_cz_twice_cancels():
    g = GraphRegister(2)
    g.apply_cz(0, 1)
    g.apply_cz(0, 1)
    assert not g.has_edge(0, 1)
    assert from_graph_register(g).canonical_rows() == DenseStabilizerState(2).canonical_rows()


def test_local_complement_toggles_neighborhood():
    g = GraphRegister(4)
    for v in (1, 2, 3):
        g.apply_cz(0, v)
    before = from_graph_register(g).canonical_rows()
    g.local_complement(0)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a < b:
                assert g.has_edge(a, b)
    # local complementation is implemented with compensating single-qubit
    # Cliffords, so the physical state is unchanged
    assert from_graph_register(g).canonical_rows() == before


def test_measure_z_removes_vertex():
    g = GraphRegister(3)
    g.apply_cz(0, 1).apply_cz(1, 2)
    out = g.measure_pauli(1, "Z", rng())
    assert out in (1, -1)
    assert not g.is_alive(1)
    assert sorted(g.alive_vertices()) == [0, 2]
    assert not g.has_edge(0, 2)


def test_measure_dead_vertex_raises():
    g = GraphRegister(2)
    g.measure_pauli(0, "Z", rng())
    with pytest.raises(VertexStateError):
        g.measure_pauli(0, "X", rng())


def test_forced_outcome_consistency():
    g = GraphRegister(2)
    g.apply_cz(0, 1)
    out = g.measure_pauli(0, "Z", forced=-1)
    assert out == -1
    # partner collapses to |->: an X measurement is now deterministic -1
    d = from_graph_register(g)
    sign, axis = d.single_qubit_stabilizer(0)
    assert axis == 1 and sign == -1


def test_lc_equivalent_examples():
    # star and complete graph on 4 vertices are one local complementation apart
    star = GraphRegister(4)
    for v in (1, 2, 3):
        star.apply_cz(0, v)
    complete = GraphRegister(4)
    for a in range(4):
        for b in range(a + 1, 4):
            complete.apply_cz(a, b)
    assert lc_equivalent(star, complete)
    # a path and an edgeless graph are not equivalent
    path = GraphRegister(4)
    path.apply_cz(0, 1).apply_cz(1, 2).apply_cz(2, 3)
    assert not lc_equivalent(path, GraphRegister(4))


def test_lc_equivalent_vertex_count_mismatch():
    assert not lc_equivalent(GraphRegister(3), GraphRegister(4))


def test_lc_equivalent_capacity():
    big = GraphRegister(25)
    with pytest.raises(CapacityError):
        lc_equivalent(big, GraphRegister(25))


def _canon_adj(g):
    alive = sorted(g.alive_vertices())
    idx = {v: i for i, v in enumerate(alive)}
    edges = frozenset(
        (idx[u], idx[v]) for u, v in g.edges() if u in idx and v in idx
    )
    return edges, idx


def _lc_at(edges, n, a):
    nbrs = [b for b in range(n) if (min(a, b), max(a, b)) in edges]
    out = set(edges)
    for i, u in enumerate(nbrs):
        for v in nbrs[i + 1 :]:
            e = (min(u, v), max(u, v))
            if e in out:
                out.discard(e)
            else:
                out.add(e)
    return frozenset(out)


def reference_lc_equivalent(g1, g2):
    """lc_equivalent as it searched over frozensets of relabeled edges."""
    n1, n2 = g1.alive_count(), g2.alive_count()
    if n1 != n2:
        return False
    e1, _ = _canon_adj(g1)
    e2, _ = _canon_adj(g2)
    if e1 == e2:
        return True
    seen = {e1}
    frontier = [e1]
    while frontier:
        nxt = []
        for e in frontier:
            for a in range(n1):
                e_new = _lc_at(e, n1, a)
                if e_new == e2:
                    return True
                if e_new not in seen:
                    seen.add(e_new)
                    nxt.append(e_new)
        frontier = nxt
    return False


def _embed(edges, n_alive, dead, r):
    """A register whose alive vertices, in sorted-id order, carry `edges`
    between 0 .. n_alive - 1, with `dead` measured vertices among them."""
    slots = sorted(r.choice(n_alive + dead, size=n_alive, replace=False).tolist())
    g = GraphRegister(n_alive + dead)
    for u, v in edges:
        g.apply_cz(slots[u], slots[v])
    for v in set(range(n_alive + dead)) - set(slots):
        g.measure_pauli(v, "Z", forced=1)  # isolated, so the outcome is free
    return g


def _random_register(r):
    """1-7 alive vertices left by random CZs and Pauli measurements."""
    n = int(r.integers(1, 8))
    dead = int(r.integers(0, 3))
    g = GraphRegister(n + dead)
    for a in range(n + dead):
        for b in range(a + 1, n + dead):
            if r.random() < 0.4:
                g.apply_cz(a, b)
    for v in r.choice(n + dead, size=dead, replace=False).tolist():
        g.measure_pauli(v, "XYZ"[int(r.integers(3))], r)
    return g


def test_lc_equivalent_matches_frozenset_reference():
    r = np.random.default_rng(2006)
    verdicts = []
    for _ in range(400):
        g1 = _random_register(r)
        n = g1.alive_count()
        if r.random() < 0.5:
            # a graph LC-equivalent to g1's, on other vertex ids
            g2 = g1.copy()
            alive = list(g2.alive_vertices())
            for _ in range(int(r.integers(0, 6))):
                g2.local_complement(alive[int(r.integers(n))])
            g2 = _embed(_canon_adj(g2)[0], n, int(r.integers(0, 3)), r)
        else:
            g2 = _random_register(r)
        verdict = lc_equivalent(g1, g2)
        assert verdict == reference_lc_equivalent(g1, g2)
        verdicts.append(verdict)
    assert 100 < sum(verdicts) < 350


def test_copy_is_independent():
    g = GraphRegister(4)
    g.apply_cz(0, 1).apply_cz(1, 2).apply_cz(2, 3)

    def state(reg):
        return (
            sorted(reg.edges()),
            [reg.get_vop(v) for v in range(reg.vertex_count)],
            [reg.get_frame(v) for v in range(reg.vertex_count)],
            list(reg.alive_vertices()),
        )

    before = state(g)
    c = g.copy()
    assert state(c) == before
    c.local_complement(1)  # edges and vops
    c.measure_pauli(3, "Z", forced=-1)  # a frame on 2, and a death
    after = state(c)
    assert all(a != b for a, b in zip(after, before))
    assert state(g) == before


def test_vop_composition_matches_dense():
    r = rng()
    for _ in range(50):
        g = GraphRegister(2)
        g.apply_cz(0, 1)
        d = DenseStabilizerState(2)
        d.apply_cz(0, 1)
        for _ in range(4):
            v = int(r.integers(2))
            c = int(r.integers(24))
            g.apply_local_clifford(v, c)
            d.apply_clifford(v, c)
        assert from_graph_register(g).canonical_rows() == d.canonical_rows()


class RecordingRegister(GraphRegister):
    """A GraphRegister that appends every operation and outcome to `log`."""

    log: list = []

    def apply_cz(self, a, b):
        self.log.append(("cz", a, b))
        return super().apply_cz(a, b)

    def local_complement(self, a):
        self.log.append(("lc", a))
        return super().local_complement(a)

    def apply_local_clifford(self, a, c):
        self.log.append(("clifford", a, c))
        return super().apply_local_clifford(a, c)

    def measure_pauli(self, a, basis, rng=None, forced=None):
        out = super().measure_pauli(a, basis, rng, forced)
        self.log.append(("measure", a, basis, out))
        return out


def old_fuzz_case(seed, max_qubits=10, ops=20):
    """fuzz_case as it drew its vertices with `rng.choice(alive)`."""
    rng = np.random.default_rng(seed)
    nq = int(rng.integers(2, max_qubits + 1))
    g = RecordingRegister(nq)
    d = DenseStabilizerState(nq)
    alive = list(range(nq))
    for _ in range(ops):
        if len(alive) <= 1:
            break
        r = rng.random()
        if r < 0.35 and len(alive) >= 2:
            a, b = rng.choice(alive, size=2, replace=False)
            g.apply_cz(int(a), int(b))
            d.apply_cz(int(a), int(b))
        elif r < 0.50:
            g.local_complement(int(rng.choice(alive)))
        elif r < 0.80:
            a = int(rng.choice(alive))
            c = int(rng.integers(24))
            g.apply_local_clifford(a, c)
            d.apply_clifford(a, c)
        else:
            a = int(rng.choice(alive))
            basis = "XYZ"[int(rng.integers(3))]
            o = g.measure_pauli(a, basis, rng)
            d.measure(a, basis, forced=o)
            alive.remove(a)
    return from_graph_register(g).canonical_rows() == d.subsystem_canonical(alive)


def test_fuzz_case_replays_old_op_draws(monkeypatch):
    # index draws replace rng.choice over the alive list: every seed must
    # still replay the same operations with the same outcomes
    monkeypatch.setattr(acceptance, "GraphRegister", RecordingRegister)
    for seed in range(1000):
        old_log, new_log = [], []
        monkeypatch.setattr(RecordingRegister, "log", old_log)
        old = old_fuzz_case(seed)
        monkeypatch.setattr(RecordingRegister, "log", new_log)
        assert fuzz_case(seed) == old, seed
        assert old_log and new_log == old_log, seed
        assert all(
            type(v) is int for op in new_log for v in op[1:] if not isinstance(v, str)
        ), seed


def test_from_graph_register_orders_alive_vertices():
    g = GraphRegister(4)
    g.apply_cz(0, 1).apply_cz(1, 2).apply_cz(2, 3)
    g.measure_pauli(1, "Z", forced=1)
    d = from_graph_register(g)
    assert d.n == 3
    # alive vertices 0, 2, 3 become qubits 0, 1, 2: |+> on qubit 0 and the
    # edge 2-3 as a CZ between qubits 1 and 2
    direct = DenseStabilizerState(3)
    direct.apply_cz(1, 2)
    assert d.canonical_rows() == direct.canonical_rows()


def test_subsystem_canonical_matches_direct_build():
    g = GraphRegister(5)
    g.apply_cz(0, 1).apply_cz(1, 2).apply_cz(3, 4)
    d = DenseStabilizerState(5)
    for a, b in ((0, 1), (1, 2), (3, 4)):
        d.apply_cz(a, b)
    o = g.measure_pauli(2, "X", rng())
    d.measure(2, "X", forced=o)
    assert from_graph_register(g).canonical_rows() == d.subsystem_canonical([0, 1, 3, 4])
    # unmeasured, qubit 2 leaves qubits 0 and 1 entangled with it: mixed
    e = DenseStabilizerState(3)
    e.apply_cz(0, 1)
    e.apply_cz(1, 2)
    with pytest.raises(ValueError):
        e.subsystem_canonical([0, 1])


def test_pauli_frame_tracked_after_measurement():
    g = GraphRegister(3)
    g.apply_cz(0, 1).apply_cz(1, 2)
    g.measure_pauli(1, "X", forced=1)
    # byproduct operators land on the neighbors but never change the
    # stabilizer group modulo signs tracked in the frame
    assert all(g.get_frame(v) in (0, 1, 2, 3) for v in g.alive_vertices())


def old_conj_tables():
    """CONJ_P and CONJ_S as built by a search over +/-P_q with np.allclose."""
    conj_p = np.empty((24, 4), dtype=np.int8)
    conj_s = np.empty((24, 4), dtype=np.int8)
    for i, a in enumerate(cl.CLIFFORD_MATS):
        conj_p[i, 0] = 0
        conj_s[i, 0] = 1
        for p in (1, 2, 3):
            m = a @ cl.PAULI_MATS[p] @ a.conj().T
            for q in (1, 2, 3):
                if np.allclose(m, cl.PAULI_MATS[q], atol=1e-9):
                    conj_p[i, p], conj_s[i, p] = q, 1
                    break
                if np.allclose(m, -cl.PAULI_MATS[q], atol=1e-9):
                    conj_p[i, p], conj_s[i, p] = q, -1
                    break
            else:
                raise AssertionError("Pauli conjugation fell outside the Pauli group")
    return conj_p, conj_s


def group_index(ops):
    """Index k of the element equal to each op up to a phase: the one with
    |tr(C_k^dag op)| = 2."""
    mats = np.stack(cl.CLIFFORD_MATS)
    overlap = np.abs(np.einsum("kab,nab->nk", mats.conj(), ops))
    k = overlap.argmax(axis=1)
    assert np.allclose(overlap[np.arange(len(ops)), k], 2, atol=1e-9)
    return k


def test_clifford_group_tables():
    mats = np.stack(cl.CLIFFORD_MATS)
    mul = group_index((mats[:, None] @ mats).reshape(-1, 2, 2)).reshape(24, 24)
    adj = group_index(mats.conj().swapaxes(1, 2))
    conj_p, conj_s = old_conj_tables()
    for table, ref in ((cl.MUL, mul), (cl.ADJ, adj), (cl.CONJ_P, conj_p), (cl.CONJ_S, conj_s)):
        assert np.shape(table) == ref.shape
        entries = [v for row in table for v in row] if ref.ndim == 2 else list(table)
        assert {type(v) for v in entries} == {int}
        assert entries == ref.ravel().tolist()
    assert group_index(np.stack(cl.PAULI_MATS)).tolist() == list(cl.PAULI_IDX)
    assert cl.ID == 0 and len(set(cl.PAULI_IDX)) == 4


def cz_table_digest(table: dict) -> str:
    rows = [[list(k), list(v)] for k, v in sorted(table.items())]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_cz_tables_golden():
    tables = _build_cz_tables()
    assert [len(t) for t in tables] == CZ_GOLDEN["entries"]
    assert [cz_table_digest(t) for t in tables] == CZ_GOLDEN["sha256"]
