"""Source multiplexing models.

Covers the standard block-multiplexing law, a binary switched-delay network
with collision accounting, relative-time multiplexing (sliding-window and
matching variants), cascaded heralded-source ("dump the pump") success
probability, and the switch noise cost model mapping extinction ratio to a
worst-case Pauli-Z rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import SpecError


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
        if not 0.0 <= p <= 1.0:
            raise SpecError("generation probability outside [0, 1]")
        occ = rng.random(bin_count) < p
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
class DtpParams:
    """Cascaded heralded-source parameters.

    A pump passes K crystals in sequence; each emits (and heralds) with
    probability q, and an emitted photon transits the remaining crystals
    without loss.
    """

    per_crystal_emission: float
    crystal_count: int

    def __post_init__(self):
        if not 0.0 <= self.per_crystal_emission <= 1.0:
            raise SpecError("emission probability outside [0, 1]")
        if self.crystal_count < 1:
            raise SpecError("need at least one crystal")


@dataclass(frozen=True)
class MatchedPair:
    """A pair of photons brought to the same bin by delaying the earlier."""

    bin_a: int
    bin_b: int

    @property
    def delay(self) -> int:
        return abs(self.bin_b - self.bin_a)


# -- closed-form laws -------------------------------------------------------


def standard_mux_prob(p: float, S: int) -> float:
    """Per-block success of standard multiplexing over 2^S bins."""
    if not 0.0 <= p <= 1.0:
        raise SpecError("p outside [0, 1]")
    if S < 0:
        raise SpecError("S must be >= 0")
    return 1.0 - (1.0 - p) ** (1 << S)


def standard_mux_pair_yield(p: float, S: int) -> float:
    """Per-input-bin rate of blocks where both streams deliver a photon."""
    return standard_mux_prob(p, S) ** 2 / (1 << S)


def dtp_success_prob(params: DtpParams) -> float:
    """Probability that one of the K crystals emits a heralded photon,
    1 - (1 - q)^K; transit through the later crystals is lossless."""
    return 1.0 - (1.0 - params.per_crystal_emission) ** params.crystal_count


def extinction_to_z_error(extinction_db: float) -> float:
    """Worst-case Pauli-Z rate if all leaked power becomes phase noise."""
    if extinction_db > 0:
        raise SpecError("extinction ratio must be <= 0 dB")
    return 10.0 ** (extinction_db / 10.0)


# -- delay-network transit --------------------------------------------------


def _route(bins, delays, stage_count: int, log):
    """Send photons at ascending `bins` through a binary delay cascade.

    At stage s a photon takes the delay branch iff bit s of its delay is
    set; delays must lie in [0, 2^stage_count).  Photons meeting in the
    same branch of a stage at the same time, or on the same output bin, are
    all dropped.  Returns the survivors' ascending indices into `bins` and
    their output times.  When `log` is a list, collision events are
    appended stage by stage, and within a stage in the order of each
    group's lowest input bin.
    """
    pos, t, d = np.arange(len(bins)), bins, delays
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
        if log is not None:
            groups: dict[int, list[int]] = {}
            for k, b in zip(key[~keep].tolist(), bins[pos[~keep]].tolist()):
                groups.setdefault(k, []).append(b)
            for k, members in groups.items():
                label = f"stage-{s}-{'delay' if k & 1 else 'pass'}"
                label = "output" if s == stage_count else label
                log.append((label, k >> 1, tuple(members)))
        pos, t, d = pos[keep], t[keep], d[keep]
    return pos, t


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
    collisions = []
    survivors, times = _route(bins, delays, network.stage_count, collisions)
    occ = np.zeros(max(stream.bin_count, times.max(initial=-1) + 1), dtype=bool)
    occ[times] = True
    out = PhotonStream(tuple(occ.tolist()))
    dropped = sum(len(m) for _lbl, _t, m in collisions)
    assert len(bins) == len(survivors) + dropped
    return out, collisions


# -- relative-time multiplexing ---------------------------------------------


def _matcher_bins(stream_a, stream_b, max_delay):
    """Check a matcher's max_delay; returns both streams' photon bins."""
    if max_delay < 0:
        raise SpecError("max_delay must be >= 0")
    return (np.array(stream_a.photon_bins, dtype=np.int64),
            np.array(stream_b.photon_bins, dtype=np.int64))


def _window_match(items, slots, low: int, high: int):
    """Match ascending `items` in turn, each to the earliest of the ascending
    `slots` in [item + low, item + high] that lies above every slot taken or
    passed over before.  Returns the matched item and slot indices."""
    lo = np.searchsorted(slots, items + low).tolist()
    hi = np.searchsorted(slots, items + high, "right").tolist()
    matched_items, matched_slots = [], []
    x = 0
    for k in range(len(lo)):
        if x < lo[k]:
            x = lo[k]
        if x < hi[k]:
            matched_items.append(k)
            matched_slots.append(x)
            x += 1
    return matched_items, matched_slots


def _sliding_sweep(a, b, max_delay):
    """Sliding-window pairs of ascending bin arrays `a` (delayed) and `b`."""
    ia, ib = _window_match(a, b, 0, max_delay)
    return a[ia], b[ib]


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
    a_bins, b_bins = _matcher_bins(stream_a, stream_b, max_delay)
    pa, pb = _sliding_sweep(a_bins, b_bins, max_delay)
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


def _greedy_interval_matching(a_bins, b_bins, max_delay):
    """Maximum matching for pairs with 0 <= t_b - t_a <= max_delay.

    Sweep the b photons in time order and give each the earliest compatible
    unmatched a photon.  Compatibility windows are intervals with a common
    width, so the exchange argument applies: any matching can be reordered
    so the earliest b takes the earliest compatible a without losing pairs,
    hence the greedy sweep attains maximum cardinality.  Takes and returns
    ascending bin arrays.
    """
    ib, ia = _window_match(b_bins, a_bins, -max_delay, 0)
    return a_bins[ia], b_bins[ib]


def _deliverable(pa, pb, stage_count: int):
    """The pairs of a plan whose delayed photons route collision-free."""
    order = np.argsort(pa)
    kept, _ = _route(pa[order], (pb - pa)[order], stage_count, None)
    keep = np.sort(order[kept])  # in plan order
    return pa[keep], pb[keep]


def _regrow(a_bins, b_bins, max_delay: int, stage_count: int, sliding):
    """Grow a collision-free pair plan of (delayed, undelayed) bin arrays.

    Start from whichever of `sliding` (the sliding-window plan, already
    pruned to the pairs that route) or the greedy maximum matching delivers
    more after collision pruning, then greedily re-match the still-unpaired
    photons and keep any additions that survive routing.
    """
    greedy = _deliverable(
        *_greedy_interval_matching(a_bins, b_bins, max_delay), stage_count
    )
    plan = sliding if len(sliding[0]) > len(greedy[0]) else greedy
    while True:
        extra = _greedy_interval_matching(
            np.setdiff1d(a_bins, plan[0], assume_unique=True),
            np.setdiff1d(b_bins, plan[1], assume_unique=True),
            max_delay,
        )
        if not len(extra[0]):
            return plan
        candidate = _deliverable(
            np.r_[plan[0], extra[0]], np.r_[plan[1], extra[1]], stage_count
        )
        if len(candidate[0]) <= len(plan[0]):
            return plan
        plan = candidate


def matching_rmux(
    stream_a: PhotonStream, stream_b: PhotonStream, max_delay: int
) -> list[MatchedPair]:
    """Maximum matching with delays on stream A only.

    A photon of stream A at t_a may pair with a photon of stream B at t_b
    iff 0 <= t_b - t_a <= max_delay, routed through a delay network of
    `max_delay.bit_length()` stages.  Collisions are a planning
    problem here — the matcher controls every switch before any photon is
    sent — so the pair plan is pruned and regrown until it routes
    collision-free: start from whichever of the greedy maximum matching or
    the sliding-window plan delivers more after collision pruning, then
    greedily re-match the still-unpaired photons and keep any additions
    that survive routing.  The returned set is deliverable as-is and never
    smaller than the delivered sliding-window set.
    """
    a_bins, b_bins = _matcher_bins(stream_a, stream_b, max_delay)
    # the network rejects more stages than routing's int64 times allow
    S = DelayNetwork(max_delay.bit_length()).stage_count
    sliding = _deliverable(*_sliding_sweep(a_bins, b_bins, max_delay), S)
    pa, pb = _regrow(a_bins, b_bins, max_delay, S, sliding)
    return [MatchedPair(x, y) for x, y in zip(pa.tolist(), pb.tolist())]


def pair_yield(pairs, bin_count: int) -> float:
    """Matched pairs per original time bin."""
    if bin_count <= 0:
        raise SpecError("bin_count must be positive")
    return len(pairs) / bin_count


# -- yield curves -----------------------------------------------------------


def yield_curve(p: float, s_values, bin_count: int, rng) -> list[dict]:
    """Standard vs relative-time pair yields across delay budgets.

    One row per S with the closed-form standard yield and Monte Carlo
    delivered sliding-window / matching yields at max delay 2^S - 1, plus
    the number of collision events hit while routing the sliding assignment
    (the matching pair set is collision-free by construction).  Each row
    draws streams A then B as `PhotonStream.sample` would, sweeps and routes
    the sliding plan once, and seeds the matcher's regrow with the sliding
    pairs that survived routing; it equals composing `sliding_window_match`,
    `delivered_pairs` and `matching_rmux` on those streams.
    """
    rows = []
    for S in s_values:
        D = DelayNetwork(S).max_delay
        a = np.flatnonzero(rng.random(bin_count) < p)
        b = np.flatnonzero(rng.random(bin_count) < p)
        pa, pb = _sliding_sweep(a, b, D)
        collisions = []
        kept, _times = _route(pa, pb - pa, S, collisions)
        assert len(pa) == len(kept) + sum(len(m) for _lbl, _t, m in collisions)
        matched, _ = _regrow(a, b, D, S, (pa[kept], pb[kept]))
        rows.append(
            {
                "S": S,
                "standard_yield": standard_mux_pair_yield(p, S),
                "sliding_yield": pair_yield(kept, bin_count),
                "matching_yield": pair_yield(matched, bin_count),
                "collisions": len(collisions),
            }
        )
    return rows
