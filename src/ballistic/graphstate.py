"""Stabilizer engine for graph states with local Clifford decorations.

A register stores a plain graph plus, per vertex, a local Clifford (``vop``)
and a byproduct Pauli (``pauli_frame``).  The represented state is always

    (prod_v  VOP_v) (prod_v FRAME_v) |G>

where |G> is the pure graph state of the adjacency.  Graph updates follow the
standard local-complementation discipline; measurement byproducts are split
into an outcome-independent Clifford part (folded into vops, so the adjacency
evolution is outcome-independent) and an outcome-dependent Pauli part (folded
into the frame, tracked but never applied).

The scheme is Anders & Briegel's (PRA 73, 022334, 2006).  Registers are
small (the largest, in the test oracle's lattice builds, holds under a
thousand vertices), so each vertex keeps a plain entry in three per-vertex
lists: its neighbor set, its vop and its frame.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import clifford as cl
from .errors import CapacityError, VertexStateError

_B = {"X": 1, "Y": 2, "Z": 3}

# Local complementation at a is realized by sqrt(-iX) on a and sqrt(+iZ) on
# each neighbor; the inverse factors below are what each LC multiplies onto
# the existing vops so the physical state is unchanged.
_LC_A = cl.SQRT_IX
_LC_B = cl.SQRT_MIZ
_WORDS = cl.factor_words(_LC_A, _LC_B)

_CZ_TABLES: tuple[dict, dict] | None = None


def _complement(adj: list, a: int) -> None:
    """Local complementation at a: toggle every edge between two neighbors
    of a in the per-vertex neighbor sets `adj`.  The entries may be sets
    (changed in place) or frozensets (replaced)."""
    nbrs = adj[a]
    for u in nbrs:
        adj[u] ^= nbrs - {u}


def _build_cz_tables():
    """CZ update tables for the irreducible case.

    After vop reduction, any vertex still carrying a non-Z-diagonal vop has no
    neighbor besides the CZ partner, i.e. its graph factor is |+> (with the
    partner edge made explicit as CZ^e); the partner may carry any (then
    necessarily diagonal) vop and stay entangled with the rest.  Each entry
    (e, va, vb) -> (e', va', vb') satisfies

        CZ (Va x Vb) CZ^e  ==  phase * (Va' x Vb') CZ^e'

    as operators on the input subspace that can actually occur:
    |+> x C^2 when only a is pinned (table "a"), C^2 x |+> when only b is
    pinned (table "b"), and the single vector |+>|+> when both vops are
    non-diagonal (both vertices then isolated as a pair).

    The 1152 candidates k = (e', va', vb') are indexed, per subspace w, by
    `cl.phase_keys` of their restricted operator m2[k] w, keeping the lowest k
    per key; each target CZ m1 w is then looked up under its own key (a
    missing key raises KeyError).  This equals a scan for the lowest k with
    m2[k]^dag CZ m1 w = lam w: m2[k] is unitary, so that holds exactly when
    CZ m1 w = lam m2[k] w, and both sides then have the same key.
    """
    czm = np.diag([1.0, 1, 1, -1]).astype(complex)
    s2 = 1 / np.sqrt(2)
    plus2 = np.full((4, 1), 0.5, dtype=complex)
    wa = np.array([[s2, 0], [0, s2], [s2, 0], [0, s2]], dtype=complex)  # |+0>,|+1>
    wb_ = np.array([[s2, 0], [s2, 0], [0, s2], [0, s2]], dtype=complex)  # |0+>,|1+>

    triples = list(product((0, 1), range(24), range(24)))
    c = np.stack(cl.CLIFFORD_MATS)
    krons = np.einsum("iab,jcd->ijacbd", c, c).reshape(576, 4, 4)  # C_va x C_vb
    m2 = np.concatenate([krons, krons @ czm])  # (1152, 4, 4), by triple

    def solver(w):
        """k -> solution triple for input m1 = m2[k] on subspace w."""
        restricted = m2 @ w
        lowest: dict[bytes, int] = {}
        for k, key in enumerate(cl.phase_keys(restricted)):
            lowest.setdefault(key, k)
        targets = cl.phase_keys(czm @ restricted)
        return lambda k: triples[lowest[targets[k]]]

    on_a, on_b, on_pair = solver(wa), solver(wb_), solver(plus2)
    table_a, table_b = {}, {}
    for k, triple in enumerate(triples):
        _, va, vb = triple
        table_a[triple] = (on_a if vb in cl.Z_DIAGONAL else on_pair)(k)
        table_b[triple] = (on_b if va in cl.Z_DIAGONAL else on_pair)(k)
    return table_a, table_b


class GraphRegister:
    """Graph state of n qubits with per-vertex local Cliffords."""

    def __init__(self, n: int):
        self._status = bytearray(n)  # 0 alive, 1 dead
        self._adj = [set() for _ in range(n)]
        self._vop = [cl.ID] * n
        self._frame = [0] * n  # 0=I 1=X 2=Y 3=Z

    # -- basic structure ---------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._status)

    def add_vertices(self, k: int) -> range:
        n0 = len(self._status)
        self._status.extend(bytes(k))
        self._adj.extend(set() for _ in range(k))
        self._vop.extend([cl.ID] * k)
        self._frame.extend([0] * k)
        return range(n0, n0 + k)

    def is_alive(self, v: int) -> bool:
        return 0 <= v < len(self._status) and self._status[v] == 0

    def alive_vertices(self):
        return (v for v, s in enumerate(self._status) if s == 0)

    def alive_count(self) -> int:
        return self._status.count(0)

    def _require_alive(self, v: int):
        if not self.is_alive(v):
            raise VertexStateError(f"vertex {v} is dead or out of range")

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self):
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def get_vop(self, v: int) -> int:
        return self._vop[v]

    def get_frame(self, v: int) -> int:
        """Byproduct Pauli index (0=I,1=X,2=Y,3=Z), sign not tracked."""
        return self._frame[v]

    def copy(self) -> "GraphRegister":
        g = GraphRegister.__new__(GraphRegister)
        g._status = bytearray(self._status)
        g._adj = [set(nb) for nb in self._adj]
        g._vop = list(self._vop)
        g._frame = list(self._frame)
        return g

    # -- internal edge/vop/frame plumbing ----------------------------------

    def _toggle_edge(self, u: int, v: int):
        self._adj[u] ^= {v}
        self._adj[v] ^= {u}

    def _mul_vop(self, v: int, c: int):
        self._vop[v] = cl.MUL[self._vop[v]][c]

    def _conj_frame(self, v: int, c: int):
        """frame_v <- C^dag frame_v C (sign dropped)."""
        f = self._frame[v]
        if f:
            self._frame[v] = cl.CONJ_P[cl.ADJ[c]][f]

    def _fold_frame_into_vop(self, v: int):
        f = self._frame[v]
        if f:
            self._mul_vop(v, cl.PAULI_IDX[f])
            self._frame[v] = 0

    def apply_local_clifford(self, v: int, c: int) -> "GraphRegister":
        """Apply single-qubit Clifford C_c to vertex v (absorbs the frame)."""
        self._require_alive(v)
        self._fold_frame_into_vop(v)
        self._vop[v] = cl.MUL[c][self._vop[v]]
        return self

    # -- local complementation --------------------------------------------

    def local_complement(self, a: int) -> "GraphRegister":
        """Complement the neighborhood of a; physical state unchanged."""
        self._require_alive(a)
        _complement(self._adj, a)
        self._mul_vop(a, _LC_A)
        self._conj_frame(a, _LC_A)
        for b in self._adj[a]:  # a's own neighbor set is left as it was
            self._mul_vop(b, _LC_B)
            self._conj_frame(b, _LC_B)
        return self

    def _remove_vop(self, a: int, avoid: int):
        """Reduce vop_a to identity via local complementations, using a
        swapping partner in N(a) \\ {avoid} (caller guarantees one exists)."""
        c = min(self._adj[a] - {avoid})
        for letter in _WORDS[cl.ADJ[self._vop[a]]]:
            self.local_complement(a if letter == _LC_A else c)
        assert self._vop[a] == cl.ID

    # -- CZ ----------------------------------------------------------------

    def _cz_reducible(self, x: int, y: int) -> bool:
        nbrs = self._adj[x]  # reducible with a neighbor besides y
        return self._vop[x] not in cl.Z_DIAGONAL and len(nbrs) > (y in nbrs)

    def apply_cz(self, a: int, b: int) -> "GraphRegister":
        self._require_alive(a)
        self._require_alive(b)
        if a == b:
            raise VertexStateError("CZ needs two distinct vertices")
        # Peel non-diagonal vops off wherever a swapping partner exists.  The
        # second reduction can re-entangle a (LCs at b touch a's edges), hence
        # the third call; b only ever gains diagonal factors from it.
        if self._cz_reducible(a, b):
            self._remove_vop(a, b)
        if self._cz_reducible(b, a):
            self._remove_vop(b, a)
        if self._cz_reducible(a, b):
            self._remove_vop(a, b)
        if self._vop[a] in cl.Z_DIAGONAL and self._vop[b] in cl.Z_DIAGONAL:
            self._cz_diag(a, b)
        else:
            # Any remaining non-diagonal vop sits on a vertex with no
            # neighbor besides the partner; the subspace table is exact here.
            self._cz_pair_table(a, b)
        return self

    def _cz_diag(self, a: int, b: int):
        # Both vops map Z to +/-Z; CZ commutes through up to Z byproducts.
        fa, fb = self._frame[a], self._frame[b]
        if fa in (1, 2):  # X component on a: CZ X_a CZ = X_a Z_b
            self._frame[b] ^= 3
        if fb in (1, 2):
            self._frame[a] ^= 3
        if cl.CONJ_S[cl.ADJ[self._vop[a]]][3] < 0:
            self._frame[b] ^= 3
        if cl.CONJ_S[cl.ADJ[self._vop[b]]][3] < 0:
            self._frame[a] ^= 3
        self._toggle_edge(a, b)

    def _cz_pair_table(self, a: int, b: int):
        global _CZ_TABLES
        if _CZ_TABLES is None:
            _CZ_TABLES = _build_cz_tables()
        self._fold_frame_into_vop(a)
        self._fold_frame_into_vop(b)
        vop = self._vop
        table = _CZ_TABLES[0] if vop[a] not in cl.Z_DIAGONAL else _CZ_TABLES[1]
        e = 1 if self.has_edge(a, b) else 0
        e2, vop[a], vop[b] = table[(e, vop[a], vop[b])]
        if e2 != e:
            self._toggle_edge(a, b)

    # -- measurement -------------------------------------------------------

    def measure_pauli(self, a: int, basis: str, rng=None, forced: int | None = None) -> int:
        """Projective Pauli measurement; vertex dies; returns the +/-1 outcome."""
        self._require_alive(a)
        p = _B[basis]
        va = self._vop[a]
        s0, q = cl.CONJ_S[cl.ADJ[va]][p], cl.CONJ_P[cl.ADJ[va]][p]
        fa = self._frame[a]
        s1 = -1 if (fa and fa != q) else 1  # distinct non-identity Paulis anticommute
        eps = s0 * s1
        nbrs = self.neighbors(a)

        if q == 1 and not nbrs:
            # X on an isolated graph vertex: deterministic +1
            if forced is not None and forced != eps:
                raise ValueError("forced outcome has probability zero")
            self._kill(a)
            return eps

        if forced is not None:
            sg = eps * forced
        else:
            sg = 1 if rng.random() < 0.5 else -1

        if q == 3:
            if sg < 0:
                for b in nbrs:
                    self._frame[b] ^= 3
        elif q == 2:
            # complement neighborhood, sqrt(-iZ) byproduct (extra Z when -1)
            _complement(self._adj, a)
            for b in nbrs:
                self._mul_vop(b, cl.SQRT_MIZ)
                self._conj_frame(b, cl.SQRT_MIZ)
                if sg < 0:
                    self._frame[b] ^= 3
        else:
            b0 = nbrs[0]
            na = set(nbrs)
            nb0 = set(self._adj[b0])
            _complement(self._adj, b0)
            _complement(self._adj, a)
            _complement(self._adj, b0)
            self._mul_vop(b0, cl.SQRT_IY)
            self._conj_frame(b0, cl.SQRT_IY)
            if sg > 0:
                zset = na - nb0 - {b0}
            else:
                self._frame[b0] ^= 2
                zset = nb0 - na - {a}
            for b in zset:
                self._frame[b] ^= 3
        self._kill(a)
        return eps * sg

    def _kill(self, a: int):
        for b in self._adj[a]:
            self._adj[b].discard(a)
        self._adj[a].clear()
        self._status[a] = 1
        self._vop[a] = cl.ID
        self._frame[a] = 0


# -- local-complementation equivalence ------------------------------------

_LC_ORBIT_CAP = 500_000


def _alive_adjacency(g: GraphRegister) -> tuple[frozenset, ...]:
    """Neighbor sets of g's alive vertices, relabeled in sorted-id order."""
    idx = {v: i for i, v in enumerate(g.alive_vertices())}
    return tuple(frozenset(idx[b] for b in g._adj[v]) for v in idx)


def lc_equivalent(g1: GraphRegister, g2: GraphRegister) -> bool:
    """True iff the graphs (on alive vertices, relabeled in sorted-id order)
    are connected by a sequence of local complementations."""
    n1, n2 = g1.alive_count(), g2.alive_count()
    if n1 > 20 or n2 > 20:
        raise CapacityError("lc_equivalent bounded to 20 alive vertices")
    if n1 != n2:
        return False
    start, target = _alive_adjacency(g1), _alive_adjacency(g2)
    if start == target:
        return True
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for adj in frontier:
            for a in range(n1):
                new = list(adj)
                _complement(new, a)
                new = tuple(new)
                if new == target:
                    return True
                if new not in seen:
                    if len(seen) >= _LC_ORBIT_CAP:
                        raise CapacityError("LC orbit search exceeded cap")
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return False
