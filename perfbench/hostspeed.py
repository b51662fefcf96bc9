"""Host-speed reference: a fixed kernel timed next to the benchmark's ops.

On a shared host the same code runs at speeds up to 1.65x apart, switching
within seconds and sometimes holding for minutes, as other tenants load the
cores and caches.  Every time behind an end-to-end metric is therefore
scaled by `NOMINAL_S` over the kernel's time measured next to it: an op's by
the samples around that op, set-up time by the median of a whole run's.  A
metric then reads as the time on a host where the kernel takes `NOMINAL_S`.

The kernel mixes interpreter work (a breadth-first search that fills a dict,
as the pathfinding adjacency does) with numpy array work (sort, unique,
bincount, as the builder does).  It never calls the program under test, so a
change to the program cannot move it.
"""

from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter

# About the kernel's time on the host described in README.md when it ran fast.
NOMINAL_S = 0.010

_N = 2000
_rnd = random.Random(1607)
_ADJ = [[_rnd.randrange(_N) for _ in range(4)] for _ in range(_N)]
_ARR = None


def _array():
    # numpy is imported on first use, so that importing this module does not
    # move numpy's import out of a worker's set-up time.
    global _ARR
    if _ARR is None:
        import numpy as np

        _ARR = np.random.default_rng(1607).integers(0, 1 << 30, 50_000)
    return _ARR


def kernel() -> int:
    import numpy as np

    arr = _array()
    seen = {0}
    queue = deque([0])
    edges = {}
    while queue:
        v = queue.popleft()
        for w in _ADJ[v]:
            edges[(min(v, w), max(v, w))] = len(edges)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    a = np.sort(arr)
    return len(edges) + len(np.unique(a % 4099)) + int(np.bincount(a % 997).max())


def sample() -> float:
    """Seconds the kernel takes once, now."""
    _array()
    t = perf_counter()
    kernel()
    return perf_counter() - t


def factor(samples: list[float]) -> float:
    """Scale for a wall time measured among `samples`: nominal over median."""
    return NOMINAL_S / statistics.median(samples)


def op_factors(refs: list[float], ops: int) -> list[float]:
    """Scale for each op of a loop that sampled the kernel around every op.

    `refs[i]` ran just before op `i` and `refs[i + 1]` just after it.  Op `i`
    uses the median of the four samples nearest to it, so one disturbed
    sample moves no op by much.
    """
    assert len(refs) == ops + 1
    return [factor(refs[max(0, i - 1) : i + 3]) for i in range(ops)]
