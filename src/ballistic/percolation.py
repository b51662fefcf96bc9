"""Connectivity analytics on built lattices.

z-crossing checks on the raw or punched-out lattice, left-right
crossing of square-lattice bond samples, and windowed pathfinding of logical
wires through the layered lattice.
"""

from __future__ import annotations

import numbers
from array import array
from dataclasses import dataclass, field

import numpy as np

from .builder import CompLattice
from .errors import SpecError


def _labels(comps: list[CompLattice], punched: bool):
    """Component labels of the disjoint union of same-shape lattices, and
    its alive mask: node v of comps[i] is node i * node_count + v.

    One labelling serves the whole list.  Edges with a dead end are left
    out, so a dead node is a component of its own and only alive nodes'
    labels mean anything.
    """
    # imported here so that `import ballistic` does not load scipy.sparse
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    if len({(c.nx, c.ny, c.nz) for c in comps}) > 1:
        raise SpecError("lattices labelled together must share one shape")
    n = comps[0].node_count
    edges = [np.asarray(c.edges, dtype=np.int64).reshape(-1, 2) for c in comps]
    if len(comps) == 1:
        alive, e = comps[0].alive_flat(punched), edges[0]
    else:
        alive = np.concatenate([c.alive_flat(punched) for c in comps])
        e = np.concatenate([ei + i * n for i, ei in enumerate(edges)])
    e = e.compress(alive[e[:, 0]] & alive[e[:, 1]], axis=0)
    if not len(e):
        return np.arange(len(alive)), alive
    # float64 entries, which the labelling would otherwise convert to
    m = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(len(alive),) * 2)
    return connected_components(m, directed=False)[1], alive


def crossings(lattices, punched: bool = False) -> list[bool]:
    """Whether each lattice has a path of alive nodes from layer 0 to layer
    nz - 1.  The lattices must share one shape; one labelling answers them
    all, since no component spans two of them."""
    comps = [lat.comp for lat in lattices]
    if not comps:
        return []
    labels, alive = _labels(comps, punched)
    c = comps[0]
    shape = (len(comps), c.nx, c.ny, c.nz, 2)
    lab = labels.reshape(shape)
    top = lab[:, :, :, -1][alive.reshape(shape)[:, :, :, -1]]
    # a dead node is a component of its own, so it matches no alive label
    crossed = np.isin(lab[:, :, :, 0], top)
    return crossed.reshape(len(comps), -1).any(axis=1).tolist()


def crossing_exists(lattice, punched: bool = False) -> bool:
    return crossings([lattice], punched)[0]


def largest_component_fraction(lattice) -> float:
    labels, alive = _labels([lattice.comp], False)
    total = int(alive.sum())
    if total == 0:
        return 0.0
    return float(np.bincount(labels[alive]).max()) / total


# -- square-lattice bond percolation ---------------------------------------


def square_lattice_crosses(n: int, p: float, rng) -> bool:
    """Whether one n x n square-lattice bond sample at bond probability p
    has an open left-right crossing.  The exact threshold is 1/2 by
    self-duality.

    The 2m bonds, m = n(n - 1), are drawn as `rng.random(2m) < p`: the
    horizontal ones row by row, then the vertical ones.  Bond connectivity
    is site connectivity on a (2n - 1)^2 grid whose even-even cells are the
    sites (always open), whose cells between two sites are their bonds and
    whose odd-odd cells are closed, labelled with 4-connectivity.
    """
    if n < 2:
        raise SpecError("degenerate square lattice (need n >= 2 sites)")
    # imported here so that `import ballistic` does not load scipy.ndimage
    from scipy.ndimage import label

    m = n * (n - 1)
    keep = rng.random(2 * m) < p
    grid = np.zeros((2 * n - 1, 2 * n - 1), dtype=bool)
    grid[::2, ::2] = True
    grid[::2, 1::2] = keep[:m].reshape(n, n - 1)
    grid[1::2, ::2] = keep[m:].reshape(n - 1, n)
    lab, _ = label(grid)
    return bool(np.isin(lab[::2, 0], lab[::2, -1]).any())


# -- windowed pathfinding ---------------------------------------------------


@dataclass
class PathfindingState:
    paths: list = field(default_factory=list)
    sustained: list = field(default_factory=list)


def _csr_adjacency(comp: CompLattice, punched: bool):
    """Neighbours of the alive subgraph in CSR form, each slice ascending.

    Node u's neighbours are indices[indptr[u]:indptr[u + 1]].  They come
    back as `array("q")` and `array("i")`: reading an item or slice of one
    costs about what a list's does, where a numpy scalar lookup costs
    more, and unlike `tolist()` it builds no int object per entry up
    front, most of which a search never reads.

    The neighbours are the low halves of the sorted keys source << 32 |
    target, so node ids must stay below 2**31; a lattice held in memory
    has far fewer nodes.
    """
    alive = comp.alive_flat(punched)
    n = comp.node_count
    e = np.asarray(comp.edges, dtype=np.int64).reshape(-1, 2)
    keep = alive[e[:, 0]] & alive[e[:, 1]]
    if not keep.all():
        e = e.compress(keep, axis=0)
    a, b = e[:, 0], e[:, 1]
    # Each edge gives one key per direction, written into one array;
    # sorting them orders by source, then target.
    m = len(e)
    keys = np.empty(2 * m, dtype=np.int64)
    np.left_shift(a, 32, out=keys[:m])
    keys[:m] |= b
    np.left_shift(b, 32, out=keys[m:])
    keys[m:] |= a
    keys.sort()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(e.ravel(), minlength=n), out=indptr[1:])
    # the cast keeps each key's low 32 bits, its target; `frombytes` takes
    # a byte view, so each array is filled by one copy
    ptr, indices = array("q"), array("i")
    ptr.frombytes(indptr.view(np.uint8))
    indices.frombytes(keys.astype(np.int32).view(np.uint8))
    return ptr, indices, alive


def _reach_score(indptr, indices, layer, hop, z_lo, z_hi, used, lead):
    """Highest layer reachable from `hop[-1]` inside [z_lo, z_hi], capped at
    z_hi, and a witness path when the cap is reached.

    The search never enters `used` or the hop chain `hop` (the BFS path from
    the wire's head to the candidate, which is its last node).  Its result
    is the top layer of the start's component in what remains, capped at
    z_hi: a capped maximum, so the order in which reachable nodes are
    expanded cannot change it.  Every shortcut below rests on that.

    `lead`, a lattice path that begins next to the start (the previous
    step's witness after this candidate), is checked as a whole: when a
    node of it repeats, lies in `used` or the hop chain, or leaves the
    window, it is dropped and the search starts from the start alone.  A
    lead that reaches z_hi is itself the witness.  Otherwise every lead
    node lies below z_hi and is reachable from the start.

    The tip (the lead's last node, or the start) is tried first: after a
    witness's rest it is the highest node known and often has a neighbour
    in layer z_hi, and that step needs no parent map.  If it has none, the
    search goes best-first over buckets indexed by layer - z_lo.  The start
    and the lead stay a stack, tip on top, popped while its top lies at
    least as high as the highest non-empty bucket, so no lead node is ever
    filed, and the search climbs wherever the component climbs rather than
    diving down from a blocked tip.  The parent of lead node i is the
    marker ~i, which `_chain` turns back into the start and lead[:i].

    Returns (score, witness).  The witness runs from the start to a node of
    layer z_hi, or is empty when the search ran dry below z_hi.
    """
    prev = hop[-1]
    best = layer[prev]
    if best >= z_hi:
        return best, [prev]
    if lead:
        zs = list(map(layer.__getitem__, lead))
        nodes = set(lead)
        z_max = max(zs)
        if (
            len(nodes) == len(lead)
            and nodes.isdisjoint(hop)
            and nodes.isdisjoint(used)
            and z_lo <= min(zs)
            and z_max <= z_hi
        ):
            if z_max >= z_hi:
                return z_max, [prev, *lead[:zs.index(z_max) + 1]]
            best = max(best, z_max)
        else:
            lead = ()
    head = [prev, *lead]
    tip = head[-1]
    for w in indices[indptr[tip]:indptr[tip + 1]]:
        if layer[w] == z_hi and w not in used and w not in hop:
            head.append(w)
            return z_hi, head
    parent = dict.fromkeys(hop)
    parent.update(zip(lead, range(-1, -len(head), -1)))
    buckets = [[] for _ in range(z_lo, z_hi)]
    top = -1  # every bucket above index top is empty
    k = len(head)  # head[k - 1] is the stack's top
    while True:
        while top >= 0 and not buckets[top]:
            top -= 1
        if k and layer[head[k - 1]] - z_lo >= top:
            k -= 1
            u = head[k]
        elif top >= 0:
            u = buckets[top].pop()
        else:
            return best, []
        for w in indices[indptr[u]:indptr[u + 1]]:
            if w in parent or w in used:
                continue
            zw = layer[w]
            if not z_lo <= zw <= z_hi:
                continue
            parent[w] = u
            if zw >= z_hi:
                return zw, _chain(parent, w, head)
            i = zw - z_lo
            buckets[i].append(w)
            if i > top:
                top = i
                if zw > best:
                    best = zw


def _chain(parent, node, head):
    """The parent chain ending at `node`, root first.

    A root's parent is None.  A negative parent ~i splices in head[:i + 1]
    as the chain's start, so a witness walks only the links it added, not
    the lead it was handed.
    """
    out = [node]
    node = parent[node]
    while node is not None and node >= 0:
        out.append(node)
        node = parent[node]
    out.reverse()
    return out if node is None else head[:~node + 1] + out


def find_paths_windowed(
    lattice,
    window: int,
    wires: int = 1,
    punched: bool = False,
) -> PathfindingState:
    """Route logical wires layer by layer with a bounded lookahead.

    Each wire starts at the usable layer-0 node whose window component
    reaches the farthest layer (ties: lowest id) and advances one layer at
    a time.  The step choice uses only layers <= current + window: among
    the layer-(t+1) nodes reachable inside the window, take the one whose
    window component reaches the farthest layer.  Candidates are scored in
    BFS order, depth by depth, and only a strictly higher score replaces
    the best so far, so a tie goes to the earliest BFS depth, then to the
    lowest id within it.  Every search visits a node's neighbours in
    ascending id order, which fixes both that tie-break and the BFS parent
    of each node.  Wires are vertex-disjoint.  A wire that spans all nz
    layers "sustains" nz - 1.

    A score that reaches the window's top comes with a witness path.  The
    next step finds a candidate on the winner's witness with
    `witness.index` and hands the rest of the witness to `_reach_score` as
    its lead.  A lead that checks out ends one layer below the new
    window's top (or at it, once the window meets the last layer), so the
    search's first step, from the lead's tip, often ends it (see
    `_reach_score` for why the scores, and so the routes, stay exact).
    The winner's hop chain, built once to score it, is the hop the step
    commits.
    """
    for name, value in (("window", window), ("wires", wires)):
        if (
            not isinstance(value, numbers.Integral)
            or isinstance(value, bool)
            or value < 1
        ):
            raise SpecError(f"{name} must be an int >= 1, got {value!r}")
    window, wires = int(window), int(wires)
    comp = lattice.comp
    indptr, indices, alive = _csr_adjacency(comp, punched)
    nz = comp.nz
    # node id ((x * ny + y) * nz + z) * 2 + parity lies in layer z
    layer = [z for z in range(nz) for _ in (0, 1)] * (comp.nx * comp.ny)
    ids0 = np.arange(comp.node_count).reshape(-1, nz, 2)[:, 0].ravel()
    layer0 = ids0[alive[ids0]].tolist()
    used: set[int] = set()
    state = PathfindingState()

    for _wire in range(wires):
        start = None
        start_score = -1
        witness = []
        for v in layer0:
            if v in used:
                continue
            score, wit = _reach_score(
                indptr, indices, layer, [v], 0, min(window, nz - 1), used, ()
            )
            if score > start_score:
                start, start_score, witness = v, score, wit
                if score >= min(window, nz - 1):
                    break
        if start is None:
            state.paths.append([])
            state.sustained.append(0)
            continue
        path = [start]
        used.add(start)
        cur = start
        z = 0
        while z < nz - 1:
            z_hi = min(z + window, nz - 1)
            z_lo = max(0, z - window)
            # BFS inside the window for nodes of layer z+1, keeping parents
            # so the committed hop extends the path explicitly.
            parents = {cur: None}
            frontier = [cur]
            best_hop = None
            best_score = -1
            # Expand depth by depth; a candidate whose window component
            # reaches the window edge ends the search immediately, so the
            # full sweep only happens near dead ends.
            while frontier and best_score < z_hi:
                nxt = []
                new_candidates = []
                for u in frontier:
                    for w in indices[indptr[u]:indptr[u + 1]]:
                        if w in parents or w in used:
                            continue
                        zw = layer[w]
                        if not z_lo <= zw <= z_hi:
                            continue
                        parents[w] = u
                        nxt.append(w)
                        if zw == z + 1:
                            new_candidates.append(w)
                for v in sorted(new_candidates):
                    # Score with the would-be hop chain excluded, so the
                    # reach cannot double back through vertices the commit
                    # is about to consume.
                    hop = _chain(parents, v, ())
                    score, wit = _reach_score(
                        indptr, indices, layer, hop, z_lo, z_hi, used,
                        witness[witness.index(v) + 1:] if v in witness else (),
                    )
                    if score > best_score:
                        best_hop, best_score, best_witness = hop, score, wit
                        if score >= z_hi:
                            break
                frontier = nxt
            if best_hop is None:
                break
            hop = best_hop[1:]
            path += hop
            used.update(hop)
            cur = hop[-1]
            witness = best_witness
            z += 1
        state.paths.append(path)
        state.sustained.append(z)
    return state


def sustained_layers(state: PathfindingState) -> int:
    """Number of layer steps the first wire survived (nz-1 when it spans)."""
    return state.sustained[0]
