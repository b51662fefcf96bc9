"""Connectivity analytics on built lattices.

z-crossing checks on the raw or punched-out lattice, left-right
crossing of square-lattice bond samples, and windowed pathfinding of logical
wires through the layered lattice.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .builder import CompLattice
from .errors import SpecError
from .rng import bernoulli


def _labels(comps: list[CompLattice], punched: bool):
    """Component labels of the disjoint union of same-shape lattices, and
    its alive mask: node v of comps[i] is node i * node_count + v.

    One labelling serves the whole list, over the alive links
    `CompLattice.union_links` gives (lower id first), so a dead node is a
    component of its own and only alive nodes' labels mean anything.  Each
    label is a node id of its component: callers compare or index by them.

    Hook and compress (Shiloach & Vishkin, J. Algorithms 3, 57 (1982)):
    every node starts as its own root, and each round hooks the larger root
    of each link between two components onto the smaller one, then jumps
    pointers until every node points at its root.  A hook only ever points a
    root at a smaller id, so no cycle can form: the jumping ends, and each
    round with a link left removes at least one root, so the rounds end.
    """
    if len({(type(c), c.nx, c.ny, c.nz) for c in comps}) > 1:
        raise SpecError("lattices labelled together must share one shape and form")
    # each round's links join the roots of two components
    (lo, hi), alive = comps[0].union_links(comps, punched)
    lab = np.arange(len(alive))
    while len(lo):
        np.minimum.at(lab, hi, lo)
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
        a, b = lab[lo], lab[hi]
        keep = a != b
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    return lab, alive


def _crossed(comps: list[CompLattice], labels, alive):
    """Whether each of `comps` crosses in z, read off `_labels(comps, ...)`."""
    c = comps[0]
    shape = (len(comps), c.nx, c.ny, c.nz, 2)
    lab = labels.reshape(shape)
    # labels are node ids: mark the alive top layer's, read them at layer 0;
    # a dead node is a component of its own, so it matches no alive label
    top = np.zeros(len(labels), dtype=bool)
    top[lab[:, :, :, -1][alive.reshape(shape)[:, :, :, -1]]] = True
    return top[lab[:, :, :, 0]].reshape(len(comps), -1).any(axis=1).tolist()


def crossings(lattices, punched: bool = False) -> list[bool]:
    """Whether each lattice has a path of alive nodes from layer 0 to layer
    nz - 1.  The lattices must share one shape; one labelling answers them
    all, since no component spans two of them."""
    comps = [lat.comp for lat in lattices]
    return _crossed(comps, *_labels(comps, punched)) if comps else []


def crossing_exists(lattice, punched: bool = False) -> bool:
    return crossings([lattice], punched)[0]


def raw_span(lattice) -> tuple[bool, float]:
    """Whether the raw (unpunched) lattice crosses, as `crossing_exists`
    answers, and the share of its alive nodes in its largest component
    (0.0 with none alive), both from one labelling."""
    comps = [lattice.comp]
    labels, alive = _labels(comps, False)
    total = int(alive.sum())
    largest = float(np.bincount(labels[alive]).max()) / total if total else 0.0
    return _crossed(comps, labels, alive)[0], largest


# -- square-lattice bond percolation ---------------------------------------


def square_lattice_crosses(n: int, p: float, rng) -> bool:
    """Whether one n x n square-lattice bond sample at bond probability p
    has an open left-right crossing.  The exact threshold is 1/2 by
    self-duality.

    The 2m bonds, m = n(n - 1), are one `bernoulli(rng, 2m, p)` draw: the
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
    keep = bernoulli(rng, 2 * m, p)
    grid = np.zeros((2 * n - 1, 2 * n - 1), dtype=bool)
    grid[::2, ::2] = True
    grid[::2, 1::2] = keep[:m].reshape(n, n - 1)
    grid[1::2, ::2] = keep[m:].reshape(n - 1, n)
    lab, count = label(grid)
    right = np.zeros(count + 1, dtype=bool)  # labels on the right column
    right[lab[::2, -1]] = True
    return bool(right[lab[::2, 0]].any())


# -- windowed pathfinding ---------------------------------------------------


@dataclass
class PathfindingState:
    paths: list = field(default_factory=list)
    sustained: list = field(default_factory=list)


class _Trail:
    """The witness the router keeps from one step to the next.

    `nodes[start:]` is the live witness, a lattice path that begins at the
    wire's head; `at` maps each live node to its index in `nodes`, and
    `count[z]` is the number of live nodes in layer z.  `nodes[:start]` is
    dead and never read again, so dropping it costs no copy.
    """

    __slots__ = ("nodes", "at", "start", "count", "layer")

    def __init__(self, layer, nz):
        self.nodes, self.at, self.start = [], {}, 0
        self.count, self.layer = [0] * nz, layer

    def leads(self, hop, j, z_lo):
        """Whether nodes[j + 1:], the lead of the candidate nodes[j], keeps
        out of the hop chain `hop` and out of layer z_lo - 1, the only
        layer below the window that the step before's witness can reach.
        The lead's count there is the live count less nodes[start:j]'s."""
        at = self.at
        for h in hop:
            if at.get(h, -1) > j:
                return False
        low = self.count[z_lo - 1] if z_lo else 0
        if low:
            layer = self.layer
            for w in self.nodes[self.start:j]:
                low -= layer[w] == z_lo - 1
        return not low

    def keep(self, j, cut, tail):
        """Make nodes[j:cut] + tail the live witness, for j <= cut.  It costs
        as many steps as nodes it drops and adds."""
        nodes, at, count, layer = self.nodes, self.at, self.count, self.layer
        for w in nodes[self.start:j] + nodes[cut:]:
            del at[w]
            count[layer[w]] -= 1
        del nodes[cut:]
        self.start = j
        at.update(zip(tail, range(cut, cut + len(tail))))
        for w in tail:
            count[layer[w]] += 1
        nodes += tail


def _reach_score(code, offsets, layer, hop, z_lo, z_hi, used, trail, j):
    """Highest layer reachable from `hop[-1]` inside [z_lo, z_hi], capped at
    z_hi, and a witness path when the cap is reached.  Node u's neighbours
    are u + d for d in offsets[code[u]], ascending (`CompLattice.adjacency`).

    The search never enters `used` or the hop chain `hop` (the BFS path from
    the wire's head to the candidate, which is its last node).  Its result
    is the top layer of the start's component in what remains, capped at
    z_hi: a capped maximum, so the order in which reachable nodes are
    expanded cannot change it.  Every shortcut below rests on that.

    The start is `trail.nodes[j]`, or lies off the trail when j is
    len(trail.nodes).  A start on the trail has the lead nodes[j + 1:]: the
    rest of the witness the router kept from the step before, never copied.
    That witness, made by this function in the window one layer down (or
    the same window), holds these invariants, so they need no check:

    - it is a simple path;
    - none of its nodes after the first is in `used`, since the hop the
      router committed never meets the rest of the witness;
    - it lies in [z_lo - 1, z_hi], since the window only rises;
    - its only node in its top layer is its last, so the lead's highest
      layer is that of nodes[-1], and the lead reaches z_hi only once the
      window's top is capped at nz - 1 (then it is itself the witness).

    Two checks are left (`_Trail.leads`): a hop-chain node on the lead, or
    a lead node in layer z_lo - 1, drops the lead, and the search starts
    from the start alone.  A lead that checks out lies below z_hi and is
    reachable from the start.

    The tip (the lead's last node, or the start) is tried first: after a
    witness's rest it is the highest node known and often has a neighbour
    in layer z_hi, and that step needs no parent map.  If it has none, the
    search goes best-first over buckets, buckets[i] holding the filed
    nodes of layer z_hi - 1 - i, grown as deep as the search goes.  A
    lead node counts as seen (its trail index is above j) instead of being
    entered in the parent map.  The start and the lead stay a stack,
    nodes[j:k], tip on top, popped while its top lies at least as high as
    the highest non-empty bucket, so no lead node is ever filed, and the
    search climbs wherever the component climbs rather than diving down
    from a blocked tip.  A node reached from stack node nodes[k] has the
    parent marker ~k, which stands for the witness prefix nodes[j:k + 1].

    A search from off the trail joins it at the first live trail node w =
    nodes[i] it files, when the same two checks pass for w's lead
    nodes[i + 1:].  From there it runs as a start on the trail does: the
    lead is the stack nodes[i + 1:k], its nodes count as seen, and its tip
    is tried first.  Nothing the search filed before w is a trail node, so
    the parent chain to w, then the lead, is a simple path, and a marker
    ~k stands for that chain and nodes[i + 1:k + 1].  A search tries to
    join once: after a refusal it goes on alone, crossing the trail as any
    other node.

    Returns (score, cut, tail): the witness is nodes[j:cut] + tail, from
    the start to the first node it reached in layer z_hi, or empty
    (cut = j, no tail) when the search ran dry below z_hi.  A search that
    joined the trail returns cut = j and its whole witness as a new tail.
    """
    nodes = trail.nodes
    prev = hop[-1]
    best = layer[prev]
    on = j < len(nodes)
    if best >= z_hi:
        return (best, j + 1, ()) if on else (best, j, [prev])
    # nodes[lo:k] is the stack, trail nodes from index lo on count as seen
    # (or, off the trail, as met), and `pre` is the chain to the trail node
    # an off-trail search joined at
    seen, lo, k, pre = {}, j, j + on, None
    if on and k < len(nodes) and trail.leads(hop, j, z_lo):
        z_max = layer[nodes[-1]]
        if z_max >= z_hi:
            return z_max, len(nodes), ()
        best = z_max
        k, seen = len(nodes), trail.at
    tip = nodes[k - 1] if on else prev
    for w in map(tip.__add__, offsets[code[tip]]):
        if layer[w] == z_hi and w not in used and w not in hop:
            return (z_hi, k, [w]) if on else (z_hi, j, [prev, w])
    parent = dict.fromkeys(hop)
    buckets = []
    b = nb = 0  # buckets[:b] are empty; nb = len(buckets)
    if on:
        k -= 1
        src = ~k
    else:
        seen, src = trail.at, prev
        k = lo = trail.start
    u = tip
    while True:
        for w in map(u.__add__, offsets[code[u]]):
            if w in parent or w in used:
                continue
            if w in seen and seen[w] >= lo:
                # a lead node, or the first trail node met off the trail
                if on or pre is not None or layer[w] < z_lo:
                    continue
                i = seen[w]
                if not trail.leads(hop, i, z_lo):
                    seen = {}
                else:
                    pre = _chain(parent, src)[0]
                    pre.append(w)
                    lo, k = i + 1, len(nodes)
                    tip = nodes[-1]
                    z_max = layer[tip]
                    if z_max >= z_hi:
                        return z_max, j, pre + nodes[lo:]
                    for x in map(tip.__add__, offsets[code[tip]]):
                        if layer[x] == z_hi and x not in used and x not in parent:
                            return z_hi, j, pre + nodes[lo:] + [x]
                    if z_max > best:
                        best = z_max
            zw = layer[w]
            if not z_lo <= zw <= z_hi:
                continue
            parent[w] = src
            if zw >= z_hi:
                out, end = _chain(parent, w)
                if end is None:
                    return zw, j, out
                if pre is None:
                    return zw, ~end + 1, out
                return zw, j, pre + nodes[lo:~end + 1] + out
            if zw > best:
                best = zw
            i = z_hi - 1 - zw
            if i < nb:
                buckets[i].append(w)
                if i < b:
                    b = i
            else:
                buckets += [[] for _ in range(nb, i)]
                buckets.append([w])
                nb = i + 1
        while b < nb and not buckets[b]:
            b += 1
        if k > lo and (b == nb or layer[nodes[k - 1]] + b >= z_hi - 1):
            k -= 1
            u = nodes[k]
            src = ~k
        elif b < nb:
            u = src = buckets[b].pop()
        else:
            return best, j, ()


def _chain(parent, node):
    """The parent chain ending at `node`, root first, and what ended it:
    None past a root, or a negative marker ~k past its last node."""
    out = [node]
    node = parent[node]
    while node is not None and node >= 0:
        out.append(node)
        node = parent[node]
    out.reverse()
    return out, node


def find_paths_windowed(
    lattice,
    window: int,
    wires: int = 1,
    punched: bool = False,
) -> PathfindingState:
    """Route logical wires layer by layer with a bounded lookahead.

    Each wire advances one layer at a time.  A step uses only layers <=
    current + window: among the layer-(t+1) nodes reachable inside the
    window, take the one whose window component reaches the farthest
    layer.  The start is the same choice made at layer 0, over the unused
    layer-0 nodes, each a hop of one node.  Candidates are scored in BFS
    order, depth by depth, and only a strictly higher score replaces the
    best so far, so a tie goes to the earliest BFS depth, then to the
    lowest id within it.  Every search visits a node's neighbours in
    ascending id order, which fixes both that tie-break and the BFS parent
    of each node: it reads them from `comp.adjacency`, which a builder
    lattice derives from its bond masks without listing its edges.  Wires
    are vertex-disjoint.  A wire that spans all nz layers "sustains"
    nz - 1.

    A score that reaches the window's top comes with a witness path.  The
    router keeps the winner's witness as a `_Trail`: a list with a map from
    node to index.  A candidate finds itself on it with one lookup, and
    `_reach_score` takes the rest of the list as its lead without a copy.
    A candidate off the trail is searched from scratch until its search
    first reaches the trail, and from there takes the rest of the trail
    as its lead in the same way.  A lead that checks out ends one layer
    below the new window's top (or at it, once the window meets the last
    layer), so the search's first step from the lead's tip often ends it
    (see `_reach_score` for why the scores, and so the routes, stay
    exact).  The step's winner comes back as (cut, tail), and keeping it
    costs as many steps as nodes the witness gained or lost.  The winner's
    hop chain, built once to score it, is the hop the step commits.
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
    code, offsets = comp.adjacency(punched)
    alive = comp.alive_flat(punched)
    nz = comp.nz
    # node id ((x * ny + y) * nz + z) * 2 + parity lies in layer z
    layer = [z for z in range(nz) for _ in (0, 1)] * (comp.nx * comp.ny)
    ids0 = np.arange(comp.node_count).reshape(-1, nz, 2)[:, 0].ravel()
    layer0 = ids0[alive[ids0]].tolist()
    used: set[int] = set()
    state = PathfindingState()

    for _wire in range(wires):
        trail = _Trail(layer, nz)
        path = []
        z = 0
        while not path or z < nz - 1:
            z_hi = min(z + window, nz - 1)
            z_lo = max(0, z - window)
            at, off = trail.at, len(trail.nodes)
            # The start's candidates are the unused layer-0 nodes, each a
            # hop of one node.  A step's come from a BFS inside the window
            # for nodes of layer z+1, keeping parents so the committed hop
            # extends the path explicitly.
            if path:
                candidates, parents, frontier = [], {cur: None}, [cur]
            else:
                candidates = [v for v in layer0 if v not in used]
                parents, frontier = dict.fromkeys(candidates), []
            best_hop = None
            best_score = -1
            # Score depth by depth; a candidate whose window component
            # reaches the window edge ends the search immediately, so the
            # full sweep only happens near dead ends.
            while True:
                for v in candidates:
                    # Score with the would-be hop chain excluded, so the
                    # reach cannot double back through vertices the commit
                    # is about to consume.
                    hop, _ = _chain(parents, v)
                    j = at.get(v, off)
                    score, cut, tail = _reach_score(
                        code, offsets, layer, hop, z_lo, z_hi, used, trail, j
                    )
                    if score > best_score:
                        best_hop, best_score, kept = hop, score, (j, cut, tail)
                        if score >= z_hi:
                            break
                if not frontier or best_score >= z_hi:
                    break
                nxt, candidates = [], []
                for u in frontier:
                    for w in map(u.__add__, offsets[code[u]]):
                        if w in parents or w in used:
                            continue
                        zw = layer[w]
                        if not z_lo <= zw <= z_hi:
                            continue
                        parents[w] = u
                        nxt.append(w)
                        if zw == z + 1:
                            candidates.append(w)
                candidates.sort()
                frontier = nxt
            if best_hop is None:
                break
            hop = best_hop[1:] if path else best_hop
            path += hop
            used.update(hop)
            cur = hop[-1]
            z = layer[cur]
            trail.keep(*kept)
        state.paths.append(path)
        state.sustained.append(z)
    return state


def sustained_layers(state: PathfindingState) -> int:
    """Number of layer steps the first wire survived (nz-1 when it spans)."""
    return state.sustained[0]
