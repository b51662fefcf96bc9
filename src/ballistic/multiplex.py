"""Source multiplexing models.

Covers the one law of a heralded source tried several times (a block of
2^S time bins, or a cascaded "dump the pump" source of K crystals), a
binary switched-delay network with collision accounting, relative-time
multiplexing, and the switch noise cost model mapping extinction ratio to
a worst-case Pauli-Z rate.

Relative-time multiplexing is one sliding sweep (`_sliding_sweep`) and one
route (`_route`, which also returns its collision log): `yield_curve` runs
them on photon-bin arrays, one sweep and one route for a group of rows,
and the pair-list API wraps them, with `matching_rmux` the
`delivered_pairs` of `sliding_window_match`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import SpecError
from .rng import bernoulli


# -- domain types -----------------------------------------------------------


@dataclass(frozen=True)
class PhotonStream:
    """A clocked stream of time bins, each holding at most one photon."""

    occupancy: tuple[bool, ...]

    @property
    def bin_count(self) -> int:
        return len(self.occupancy)

    @cached_property
    def photon_bins(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.occupancy)), self.occupancy))

    @staticmethod
    def sample(bin_count: int, p: float, rng):
        occ = bernoulli(rng, bin_count, p)
        return PhotonStream(tuple(occ.tolist()))


@dataclass(frozen=True)
class DelayNetwork:
    """Cascade of switched delay lines of length 1, 2, 4, ..., 2^(S-1).

    Each stage also has a bypass branch, so any integer delay in
    {0, ..., 2^S - 1} is reachable by binary decomposition.
    """

    stage_count: int

    def __post_init__(self):
        # routing keeps times and 2 * time + branch keys in int64
        if not 0 <= self.stage_count <= 61:
            raise SpecError("stage count must be in [0, 61]")

    @property
    def max_delay(self) -> int:
        return (1 << self.stage_count) - 1


@dataclass(frozen=True)
class MatchedPair:
    """A pair of photons brought to the same bin by delaying the earlier."""

    bin_a: int
    bin_b: int

    @property
    def delay(self) -> int:
        return abs(self.bin_b - self.bin_a)


# -- closed-form laws -------------------------------------------------------


def herald_success_prob(p: float, attempts: int) -> float:
    """Probability that any of `attempts` independent tries heralds,
    1 - (1 - p)^attempts: a block of 2^S time bins under standard
    multiplexing, or a pump passing K crystals, each emitting with
    probability p, whose photon transits the later crystals without loss."""
    if not 0.0 <= p <= 1.0:
        raise SpecError("p outside [0, 1]")
    if attempts < 1:
        raise SpecError("need at least one attempt")
    return 1.0 - (1.0 - p) ** attempts


def standard_mux_pair_yield(p: float, S: int) -> float:
    """Per-input-bin rate of blocks where both streams deliver a photon."""
    return herald_success_prob(p, 1 << S) ** 2 / (1 << S)


def extinction_to_z_error(extinction_db: float) -> float:
    """Worst-case Pauli-Z rate if all leaked power becomes phase noise."""
    if extinction_db > 0:
        raise SpecError("extinction ratio must be <= 0 dB")
    return 10.0 ** (extinction_db / 10.0)


# -- delay-network transit --------------------------------------------------


def _route(bins, delays, stage_count: int):
    """Send photons at ascending `bins` through a binary delay cascade.

    At stage s a photon takes the delay branch iff bit s of its delay is
    set; delays must lie in [0, 2^stage_count).  Photons meeting in the
    same branch of a stage at the same time, or on the same output bin, are
    all dropped.  Returns the survivors' ascending indices into `bins`,
    their output times and the collision events (label, time, input bins),
    stage by stage, and within a stage in the order of each group's lowest
    input bin.
    """
    pos, t, d = np.arange(len(bins)), bins, delays
    log = []
    # the output is one more stage, on which no delay bit is set
    for s in range(stage_count + 1):
        branch = d & 1
        key = t * 2 + branch
        order = np.argsort(key, kind="stable")
        same = key[order[1:]] == key[order[:-1]]
        t, d = t + (branch << s), d >> 1
        if not same.any():
            continue
        keep = np.ones(len(pos), dtype=bool)
        keep[order[1:][same]] = keep[order[:-1][same]] = False
        groups: dict[int, list[int]] = {}
        for k, b in zip(key[~keep].tolist(), bins[pos[~keep]].tolist()):
            groups.setdefault(k, []).append(b)
        for k, members in groups.items():
            label = f"stage-{s}-{'delay' if k & 1 else 'pass'}"
            label = "output" if s == stage_count else label
            log.append((label, k >> 1, tuple(members)))
        pos, t, d = pos[keep], t[keep], d[keep]
    assert len(bins) == len(pos) + sum(len(m) for _lbl, _t, m in log)
    return pos, t, log


def route_with_delays(stream: PhotonStream, assignments, network: DelayNetwork):
    """Send photons through the binary delay cascade and detect collisions.

    `assignments` maps input bin -> integer delay (bins without an entry
    take delay 0; a value of None discards the photon at the input).  Two
    photons collide when they enter the same branch of the same stage at
    the same time, or land on the same output bin; all photons in a
    collision are dropped and the event logged.

    Returns (output_stream, collisions) where collisions is a list of
    (stage_label, time_bin, input_bins_involved).
    """
    for b, d in assignments.items():
        if d is not None and not (
            isinstance(d, (int, np.integer)) and 0 <= d <= network.max_delay
        ):
            raise SpecError(
                f"delay {d} at bin {b} is not an integer in [0, {network.max_delay}]"
            )
    delays = [assignments.get(b, 0) for b in stream.photon_bins]
    routed = [d is not None for d in delays]
    bins = np.array(stream.photon_bins, dtype=np.int64)[routed]
    delays = np.fromiter(compress(delays, routed), dtype=np.int64)
    _survivors, times, collisions = _route(bins, delays, network.stage_count)
    occ = np.zeros(max(stream.bin_count, times.max(initial=-1) + 1), dtype=bool)
    occ[times] = True
    return PhotonStream(tuple(occ.tolist())), collisions


# -- relative-time multiplexing ---------------------------------------------


def _sliding_sweep(a, b, max_delay):
    """Sliding-window pairs of ascending bin arrays `a` (delayed) and `b`.

    `max_delay` is one int or one per A photon, with window ends
    `a + max_delay` that never decrease.  Each A photon in turn takes the
    earliest B photon in [a, a + max_delay] above every B photon taken
    before it.  The pairs come out ascending in both A and B, and with one
    max_delay they are also the pairs of the sweep over B, in which
    each B photon takes the earliest free A photon in [b - max_delay, b]:
    both sweeps are one rule on the two earliest photons left.  That rule
    drops the B photon if it comes first, pairs the two if the B photon lies
    within max_delay of the A photon, and else drops the A photon.  The
    windows share one width, so Glover's exchange argument makes the plan a
    maximum matching.

    Re-matching can never grow the routed plan.  Split the sweep's pairs
    into P, which route, and C, which collide.  Sweep the photons that P
    leaves.  By induction over A, each A photon of C takes its old partner:
    every B photon in its window below that partner went to an earlier A
    photon, through a pair of P (so it is gone) or of C (so it is taken
    again).  An A photon the sweep left unmatched stays unmatched for the
    same reason.  So the leftover sweep is C, P and C together are the
    sweep again, and routing them delivers P once more.

    The sweep is a scan.  Let y count the B photons taken or passed over,
    and lo_k and hi_k the B photons below photon k's window and up to its
    end.  Photon k moves y to y_k = min(max(y + 1, lo_k + 1), hi_k) and
    takes B photon y_k - 1 exactly when y_k > max(y_{k-1}, lo_k): since
    y_{k-1} <= hi_{k-1} <= hi_k, a photon whose window is used up leaves y
    at hi_k.  In z = y - k - 1 that move is the clamp z -> min(max(z, a), b)
    with a = lo_k - k and b = hi_k - k - 1, and clamp (a1, b1) then clamp
    (a2, b2) is the clamp (max(a1, a2), min(max(b1, a2), b2)).  So doubling
    composes every prefix in ceil(log2 n) rounds, and y_k is the prefix
    applied to z = 0, the value before photon 0, plus k + 1.
    """
    lo = np.searchsorted(b, a)
    hi = np.searchsorted(b, a + max_delay, "right")
    k = np.arange(len(a))
    # photon k's clamp on z = y - k - 1; a prefix of clamps is one clamp
    lift, cap = lo - k, hi - k - 1
    d = 1
    while d < len(k):
        cap[d:] = np.minimum(np.maximum(cap[:-d], lift[d:]), cap[d:])
        lift[d:] = np.maximum(lift[:-d], lift[d:])
        d *= 2
    y = np.minimum(np.maximum(lift, 0), cap) + k + 1
    took = y > np.maximum(np.r_[0, y[:-1]], lo)
    return a[took], b[y[took] - 1]


def sliding_window_match(
    stream_a: PhotonStream, stream_b: PhotonStream, max_delay: int
) -> list[MatchedPair]:
    """Pair photons by repeatedly taking the earliest unmatched one.

    Only stream A carries a delay network, so a pair needs its A photon to
    arrive no later than the B partner and at most `max_delay` bins
    earlier.  The earliest unmatched photon overall is paired with the
    earliest in-range partner if one exists, otherwise discarded; photons
    of stream B that come up first have no one left to meet them and are
    discarded in turn.
    """
    if max_delay < 0:
        raise SpecError("max_delay must be >= 0")
    a, b = (np.array(s.photon_bins, dtype=np.int64) for s in (stream_a, stream_b))
    pa, pb = _sliding_sweep(a, b, max_delay)
    return [MatchedPair(x, y) for x, y in zip(pa.tolist(), pb.tolist())]


def delivered_pairs(delayed: PhotonStream, pairs, network: DelayNetwork):
    """Route a pair set's delays and drop pairs destroyed by collisions.

    The pair list stores the delayed photon's bin in `bin_a`.  Returns the
    surviving pairs and the collision events.
    """
    keys = [pr.bin_a for pr in pairs]
    assignments: dict[int, int | None] = dict.fromkeys(delayed.photon_bins)
    assignments.update(zip(keys, [pr.delay for pr in pairs]))
    _out, collisions = route_with_delays(delayed, assignments, network)
    destroyed = {b for _lbl, _t, members in collisions for b in members}
    kept = [pr for pr, b in zip(pairs, keys) if b not in destroyed]
    return kept, collisions


def matching_rmux(
    stream_a: PhotonStream, stream_b: PhotonStream, max_delay: int
) -> list[MatchedPair]:
    """A collision-free pair plan with delays on stream A only.

    A photon of stream A at t_a may pair with a photon of stream B at t_b
    iff 0 <= t_b - t_a <= max_delay, routed through a delay network of
    `max_delay.bit_length()` stages.  Collisions are a planning problem
    here, since the matcher sets every switch before any photon is sent.
    The plan is the pairs `delivered_pairs` keeps of `sliding_window_match`:
    the sliding-window plan, a maximum matching, pruned to the pairs that
    route, so it is deliverable as-is.  Re-matching the photons that pruning
    frees never adds a pair (see `_sliding_sweep`).
    """
    # the network rejects more stages than routing's int64 times allow
    network = DelayNetwork(max_delay.bit_length())
    pairs = sliding_window_match(stream_a, stream_b, max_delay)
    return delivered_pairs(stream_a, pairs, network)[0]


# -- yield curves -----------------------------------------------------------


# Bins routed in one pass: a yield curve routes consecutive rows together
# while their bins total at most this (a longer row routes alone), so a
# route's arrays stay near the size of one row of this many bins.
ROUTE_BINS = 2**18


def yield_curve(p: float, s_values, bin_count: int, rng) -> list[dict]:
    """Standard vs relative-time pair yields across delay budgets.

    One row per S with the closed-form standard yield and Monte Carlo
    delivered sliding-window / matching yields at max delay 2^S - 1, plus
    the number of collision events hit while routing the sliding assignment
    (the matching pair set is collision-free by construction).  Each row
    draws streams A then B as `PhotonStream.sample` would.  The matching
    plan is the pairs of the sliding plan that route (see `matching_rmux`),
    so both yields are one number; the row equals composing
    `sliding_window_match`, `delivered_pairs` and `matching_rmux` on those
    streams.

    Consecutive rows share one sweep and one route, at most
    ROUTE_BINS // bin_count of them (at least one).  Row i of a group has
    its photons moved bin_count * i bins later, and each A photon's window
    is clipped to its row's last bin.  So the window ends still ascend, no
    window reaches the next row, and the group's sweep is its rows' sweeps
    side by side, each with its own max delay.  A photon's time stays in
    [a, b], the bins of its pair, so each row keeps to its own bin_count
    bins and photons of two rows never meet.  A row of S stages passes the
    route's later stages with branch 0 and unchanged times, which its own
    output stage left distinct.  So each row delivers and collides as if
    routed alone; its output collisions are only labelled as a later
    stage's pass branch.  Rows count their survivors and log entries by
    time // bin_count.
    """
    s_values = list(s_values)
    if bin_count <= 0:
        raise SpecError("bin_count must be positive")
    per_route = max(1, ROUTE_BINS // bin_count)
    rows = []
    for g in range(0, len(s_values), per_route):
        group = s_values[g : g + per_route]
        a_rows, b_rows, reach = [], [], []
        for i, S in enumerate(group):
            D = DelayNetwork(S).max_delay
            a = np.flatnonzero(bernoulli(rng, bin_count, p))
            b = np.flatnonzero(bernoulli(rng, bin_count, p))
            reach.append(np.minimum(D, bin_count - 1 - a))  # the row clip
            a_rows.append(a + i * bin_count)
            b_rows.append(b + i * bin_count)
        a, b, reach = (np.concatenate(r) for r in (a_rows, b_rows, reach))
        pa, pb = _sliding_sweep(a, b, reach)
        _kept, times, log = _route(pa, pb - pa, max(group))
        delivered = np.bincount(times // bin_count, minlength=len(group)).tolist()
        collisions = [0] * len(group)
        for _lbl, t, _members in log:
            collisions[t // bin_count] += 1
        for S, n, c in zip(group, delivered, collisions):
            rows.append(
                {
                    "S": S,
                    "standard_yield": standard_mux_pair_yield(p, S),
                    "sliding_yield": n / bin_count,
                    "matching_yield": n / bin_count,
                    "collisions": c,
                }
            )
    return rows
