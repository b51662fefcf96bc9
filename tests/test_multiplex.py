"""Multiplexing laws, delay-network routing, and relative-time matching."""

import hashlib
import itertools
import json
import pathlib
from collections import deque

import numpy as np
import pytest

from ballistic.errors import SpecError
from ballistic.multiplex import (
    DelayNetwork,
    MatchedPair,
    PhotonStream,
    delivered_pairs,
    extinction_to_z_error,
    herald_success_prob,
    matching_rmux,
    route_with_delays,
    sliding_window_match,
    standard_mux_pair_yield,
    yield_curve,
)
from ballistic import multiplex
from ballistic.multiplex import _route, _sliding_sweep
from ballistic.rng import trial_rng

GOLDEN = pathlib.Path(__file__).parent / "golden"


def stream(bins, n=None):
    n = (max(bins) + 1) if n is None and bins else (n or 1)
    occ = [False] * n
    for b in bins:
        occ[b] = True
    return PhotonStream(tuple(occ))


def test_standard_mux_prob():
    # a block of 2^S bins under standard multiplexing is an any-of-2^S herald
    assert herald_success_prob(0.2, 1 << 0) == pytest.approx(0.2)
    assert herald_success_prob(0.2, 1 << 2) == pytest.approx(1 - 0.8**4)
    with pytest.raises(SpecError):
        herald_success_prob(1.5, 1 << 1)


def test_dtp_closed_forms():
    # a cascaded source of K crystals is an any-of-K herald
    assert herald_success_prob(0.2, 5) == pytest.approx(0.67232, abs=1e-15)
    assert herald_success_prob(0.2, 6) == pytest.approx(0.737856, abs=1e-15)


def test_dtp_validation():
    for p in (1.2, -0.1):
        with pytest.raises(SpecError):
            herald_success_prob(p, 5)
    with pytest.raises(SpecError):
        herald_success_prob(0.2, 0)


def test_standard_pair_yield_curve_values():
    expected = [0.0400, 0.0648, 0.08714304, 0.08657539720888319, 0.059031080392688215]
    got = [standard_mux_pair_yield(0.2, S) for S in range(5)]
    assert got == pytest.approx(expected, abs=1e-12)
    # the curve rises then falls: delay budget beats dilution early on only
    assert got[2] > got[0] and got[4] < got[3]


def test_extinction_mapping():
    assert extinction_to_z_error(-50.0) == pytest.approx(1e-5, rel=1e-12)
    assert extinction_to_z_error(-65.0) == pytest.approx(3.162e-7, rel=1e-3)
    with pytest.raises(SpecError):
        extinction_to_z_error(2.0)


def test_delay_network_geometry():
    assert DelayNetwork(3).max_delay == 7
    assert DelayNetwork(0).max_delay == 0


def test_photon_stream_sampling():
    s = PhotonStream.sample(1000, 0.3, trial_rng(1, 0))
    assert s.bin_count == 1000
    assert 200 < len(s.photon_bins) < 400
    for p in (-0.1, 1.5):
        with pytest.raises(SpecError):
            PhotonStream.sample(4, p, trial_rng(1, 0))


def test_route_with_delays_no_collision():
    s = stream([0, 5], n=8)
    out, collisions = route_with_delays(s, {0: 3}, DelayNetwork(2))
    assert collisions == []
    assert out.photon_bins == (3, 5)


def test_route_with_delays_output_collision():
    s = stream([0, 3], n=6)
    out, collisions = route_with_delays(s, {0: 3}, DelayNetwork(2))
    assert len(collisions) == 1
    assert collisions[0][0] == "output"
    assert out.photon_bins == ()


def test_route_with_delays_branch_collision():
    # both photons take the length-1 delay line in the same time slot
    s = stream([0], n=4)
    s2 = stream([0, 1], n=4)
    _out, collisions = route_with_delays(s2, {0: 1, 1: 0}, DelayNetwork(1))
    # photon 0 delayed to t=1 meets photon 1 at the output
    assert collisions


def test_route_with_delays_validation_and_discard():
    s = stream([0, 2], n=4)
    with pytest.raises(SpecError):
        route_with_delays(s, {0: 9}, DelayNetwork(2))
    with pytest.raises(SpecError):
        route_with_delays(s, {0: 2.5}, DelayNetwork(2))
    with pytest.raises(SpecError):
        DelayNetwork(62)
    out, collisions = route_with_delays(s, {0: None}, DelayNetwork(2))
    assert collisions == [] and out.photon_bins == (2,)


def test_sliding_window_match_examples():
    pairs = sliding_window_match(stream([0, 5], n=8), stream([2, 3], n=8), 2)
    assert pairs == [MatchedPair(0, 2)]
    # a photon of the undelayed stream arriving first is discarded
    pairs = sliding_window_match(stream([4], n=8), stream([1, 4], n=8), 3)
    assert pairs == [MatchedPair(4, 4)]
    with pytest.raises(SpecError):
        sliding_window_match(stream([0]), stream([0]), -1)


def test_matched_pair_delay():
    assert MatchedPair(3, 7).delay == 4


def test_delivered_pairs_prunes_collisions():
    a = stream([0, 3], n=8)
    pairs = [MatchedPair(0, 3), MatchedPair(3, 3)]
    kept, collisions = delivered_pairs(a, pairs, DelayNetwork(2))
    # both delayed photons land on bin 3: output collision kills both
    assert kept == [] and collisions


def plain_sliding_match(a_bins, b_bins, max_delay):
    """The rule of `sliding_window_match`'s docstring, photon by photon.

    Take the earliest unmatched photon, an A photon before a B photon in
    the same bin.  An A photon pairs with the earliest B photon at most
    `max_delay` bins later, or is discarded; a B photon is discarded.
    """
    a, b = deque(a_bins), deque(b_bins)
    pairs = []
    while a and b:
        if b[0] < a[0]:
            b.popleft()
        elif b[0] <= a[0] + max_delay:
            pairs.append(MatchedPair(a.popleft(), b.popleft()))
        else:
            a.popleft()
    return pairs


def test_matching_dominates_sliding_fuzz():
    net = DelayNetwork(3)
    for t in range(30):
        r = trial_rng(13, t)
        a = PhotonStream.sample(64, 0.2, r)
        b = PhotonStream.sample(64, 0.2, r)
        sliding = sliding_window_match(a, b, 7)
        assert sliding == plain_sliding_match(a.photon_bins, b.photon_bins, 7)
        kept, _ = delivered_pairs(a, sliding, net)
        matched = matching_rmux(a, b, 7)
        assert matched == kept
        # the matched plan routes collision-free as promised
        again, coll = delivered_pairs(a, matched, net)
        assert len(again) == len(matched)
    # more stages than routing's int64 times allow are rejected
    with pytest.raises(SpecError):
        matching_rmux(stream([0]), stream([0]), 2**62)


# -- the matcher as it was, when it re-matched the photons pruning freed ----


def photon_bins(s):
    return np.array(s.photon_bins, dtype=np.int64)


def _old_greedy_interval_matching(a_bins, b_bins, max_delay):
    """Maximum matching for pairs with 0 <= t_b - t_a <= max_delay.

    Sweep the b photons in time order and give each the earliest compatible
    unmatched a photon.  Compatibility windows are intervals with a common
    width, so the exchange argument applies: any matching can be reordered
    so the earliest b takes the earliest compatible a without losing pairs,
    hence the greedy sweep attains maximum cardinality.  Takes and returns
    ascending bin arrays.  The window [b - max_delay, b] of each b photon is
    the sliding sweep's window of b - max_delay, so this is that sweep with
    the b photons moved max_delay bins earlier and back.
    """
    pb, pa = _sliding_sweep(b_bins - max_delay, a_bins, max_delay)
    return pa, pb + max_delay


def _old_deliverable(pa, pb, stage_count: int):
    """The pairs of a plan whose delayed photons route collision-free."""
    order = np.argsort(pa)
    kept, _times, _collisions = _route(pa[order], (pb - pa)[order], stage_count)
    keep = np.sort(order[kept])  # in plan order
    return pa[keep], pb[keep]


def _old_regrow(a_bins, b_bins, max_delay: int, stage_count: int, sliding):
    """Grow a collision-free pair plan of (delayed, undelayed) bin arrays.

    Start from whichever of `sliding` (the sliding-window plan, already
    pruned to the pairs that route) or the greedy maximum matching delivers
    more after collision pruning, then greedily re-match the still-unpaired
    photons and keep any additions that survive routing.
    """
    greedy = _old_deliverable(
        *_old_greedy_interval_matching(a_bins, b_bins, max_delay), stage_count
    )
    plan = sliding if len(sliding[0]) > len(greedy[0]) else greedy
    while True:
        extra = _old_greedy_interval_matching(
            np.setdiff1d(a_bins, plan[0], assume_unique=True),
            np.setdiff1d(b_bins, plan[1], assume_unique=True),
            max_delay,
        )
        if not len(extra[0]):
            return plan
        candidate = _old_deliverable(
            np.r_[plan[0], extra[0]], np.r_[plan[1], extra[1]], stage_count
        )
        if len(candidate[0]) <= len(plan[0]):
            return plan
        plan = candidate


def old_matching_rmux(
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
    a_bins, b_bins = photon_bins(stream_a), photon_bins(stream_b)
    # the network rejects more stages than routing's int64 times allow
    S = DelayNetwork(max_delay.bit_length()).stage_count
    sliding = _old_deliverable(*_sliding_sweep(a_bins, b_bins, max_delay), S)
    pa, pb = _old_regrow(a_bins, b_bins, max_delay, S, sliding)
    return [MatchedPair(x, y) for x, y in zip(pa.tolist(), pb.tolist())]


def plain_greedy_by_b(a_bins, b_bins, max_delay):
    """Each B photon in turn takes the earliest free A photon in
    [b - max_delay, b]; returns the (a, b) pairs in B order."""
    free, pairs, i = deque(), [], 0
    for b in b_bins:
        while i < len(a_bins) and a_bins[i] <= b:
            free.append(a_bins[i])
            i += 1
        while free and free[0] < b - max_delay:
            free.popleft()
        if free:
            pairs.append((free.popleft(), b))
    return pairs


def test_matching_rmux_matches_old_regrow():
    """The sweep routed once is the old prune-and-regrow plan, pair for pair,
    and the sliding sweep is the sweep over B.

    Every pattern pair of 5 bins, with every max_delay up to 5, stands for
    all stream pairs of up to 5 bins: a shorter stream has the same photon
    bins as its padded copy.  The long random streams reach the delay
    budgets and photon densities where the sliding plan collides most.
    """
    patterns = [PhotonStream(occ) for occ in itertools.product((False, True), repeat=5)]
    cases = [(sa, sb, D) for sa in patterns for sb in patterns for D in range(6)]
    rng = np.random.default_rng(1967)
    for _ in range(300):
        bins, p = int(rng.integers(1, 3001)), float(rng.uniform(0.0, 1.0))
        D = int(rng.integers(0, 301))
        cases.append(
            (PhotonStream.sample(bins, p, rng), PhotonStream.sample(bins, p, rng), D)
        )
    for sa, sb, D in cases:
        assert matching_rmux(sa, sb, D) == old_matching_rmux(sa, sb, D)
        pa, pb = _sliding_sweep(photon_bins(sa), photon_bins(sb), D)
        assert list(zip(pa.tolist(), pb.tolist())) == plain_greedy_by_b(
            sa.photon_bins, sb.photon_bins, D
        )


def test_sliding_sweep_rows_side_by_side_match_greedy_by_b():
    """One sweep over rows laid side by side, each A photon's window clipped
    to its row's last bin, pairs every row as the sweep over B pairs it
    alone, with each row's own max_delay passed per photon.  Unclipped, most
    windows would reach later rows.  Rows may be empty or hold one photon,
    bins start below zero and max_delay reaches 2^61 - 1."""
    rng = np.random.default_rng(38)
    empty = np.array([], dtype=np.int64)
    for D in (0, 3, 2**61 - 1):
        for a, b in [(empty, empty), (empty, [4]), ([4], empty), ([-9], [-9]),
                     ([-9], [-2]), ([5], [4])]:
            a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
            for reach in (D, np.full(len(a), D)):
                pa, pb = _sliding_sweep(a, b, reach)
                assert list(zip(pa.tolist(), pb.tolist())) == plain_greedy_by_b(
                    a.tolist(), b.tolist(), D
                )
    densities = (0.0, 0.1, 0.5, 1.0)
    for _ in range(700):
        width = int(rng.integers(1, 40))
        start = int(rng.integers(-100, 100))
        delays = [0, 1, 2, 7, width, 2**61 - 1]
        rows = [(start + i * width, int(rng.choice(delays)))
                for i in range(int(rng.integers(1, 6)))]
        a_rows, b_rows, reach, want = [], [], [], []
        for first, D in rows:
            a = first + np.flatnonzero(rng.random(width) < rng.choice(densities))
            b = first + np.flatnonzero(rng.random(width) < rng.choice(densities))
            a_rows.append(a)
            b_rows.append(b)
            reach.append(np.minimum(D, first + width - 1 - a))
            want += plain_greedy_by_b(a.tolist(), b.tolist(), D)
        a, b, reach = (np.concatenate(r) for r in (a_rows, b_rows, reach))
        pa, pb = _sliding_sweep(a, b, reach)
        assert list(zip(pa.tolist(), pb.tolist())) == want


def test_yield_curve_rows():
    rows = yield_curve(0.2, range(3), 2000, trial_rng(5, 0))
    assert [r["S"] for r in rows] == [0, 1, 2]
    for r in rows:
        assert set(r) == {
            "S", "standard_yield", "sliding_yield", "matching_yield", "collisions"
        }
        assert r["matching_yield"] >= r["sliding_yield"]


def pair_yield(pairs, bin_count: int) -> float:
    """Matched pairs per original time bin."""
    if bin_count <= 0:
        raise SpecError("bin_count must be positive")
    return len(pairs) / bin_count


def test_pair_yield():
    assert pair_yield([MatchedPair(0, 0)], 10) == pytest.approx(0.1)
    with pytest.raises(SpecError):
        pair_yield([], 0)


def reference_yield_curve(p, s_values, bin_count, rng):
    """`yield_curve` composed from the plain sliding matcher and the public
    pair-list functions."""
    rows = []
    for S in s_values:
        a = PhotonStream.sample(bin_count, p, rng)
        b = PhotonStream.sample(bin_count, p, rng)
        D = (1 << S) - 1
        sliding = plain_sliding_match(a.photon_bins, b.photon_bins, D)
        sliding_kept, collisions = delivered_pairs(a, sliding, DelayNetwork(S))
        matched = matching_rmux(a, b, D)
        rows.append(
            {
                "S": S,
                "standard_yield": standard_mux_pair_yield(p, S),
                "sliding_yield": pair_yield(sliding_kept, bin_count),
                "matching_yield": pair_yield(matched, bin_count),
                "collisions": len(collisions),
            }
        )
    return rows


@pytest.mark.parametrize("p", [0.0, 0.05, 0.2, 0.5, 1.0])
@pytest.mark.parametrize("bins", [1, 2, 17, 256, 2000])
def test_yield_curve_matches_pair_list_pipeline(p, bins):
    # S runs to 10, so the delay budget exceeds the stream at small bins
    for seed in range(4):
        got = yield_curve(p, range(11), bins, trial_rng(41, seed))
        want = reference_yield_curve(p, range(11), bins, trial_rng(41, seed))
        assert repr(got) == repr(want)


@pytest.mark.parametrize("group", [1, 2, None])
def test_yield_curve_routes_rows_together_exactly(group, monkeypatch):
    """Rows routed together equal rows routed alone, in groups of one, two
    or the whole curve, with unsorted and sparse S; the draws are the
    reference's, down to the generator's final state."""
    for s_values in [(3, 0, 5), (20, 2), (6,), (61, 0, 1)]:
        for p in (0.0, 0.5, 1.0):
            for bins in (1, 17, 2000):
                per_route = len(s_values) if group is None else group
                monkeypatch.setattr(multiplex, "ROUTE_BINS", per_route * bins)
                got_rng, want_rng = trial_rng(43, bins), trial_rng(43, bins)
                got = yield_curve(p, s_values, bins, got_rng)
                want = reference_yield_curve(p, s_values, bins, want_rng)
                assert repr(got) == repr(want)
                # the Philox state holds arrays, which repr spells out
                assert repr(got_rng.bit_generator.state) == repr(
                    want_rng.bit_generator.state
                )
    assert yield_curve(0.5, [], 17, trial_rng(43, 0)) == []
    with pytest.raises(SpecError):
        yield_curve(0.5, [0], 0, trial_rng(43, 0))


def oracle_route_with_delays(stream, assignments, network):
    """Reference router: one dict of (branch, time) slots per stage.

    Collision events come out stage by stage, and within a stage in the
    order of each group's lowest input bin.
    """
    for b, d in assignments.items():
        if d is None:
            continue
        if not 0 <= d <= network.max_delay:
            raise SpecError(
                f"delay {d} at bin {b} outside [0, {network.max_delay}]"
            )
    # (input_bin, current_time, remaining-delay bits) per live photon
    live = {}
    discarded = 0
    for b in stream.photon_bins:
        d = assignments.get(b, 0)
        if d is None:
            discarded += 1
            continue
        live[b] = (b, d)
    collisions = []

    for s in range(network.stage_count):
        seg = 1 << s
        occupancy = {}
        for b, (t, d) in live.items():
            branch = 1 if d & seg else 0
            occupancy.setdefault((branch, t), []).append(b)
        for (branch, t), members in occupancy.items():
            if len(members) > 1:
                collisions.append((f"stage-{s}-{'delay' if branch else 'pass'}",
                                   t, tuple(sorted(members))))
                for b in members:
                    del live[b]
        for b in list(live):
            t, d = live[b]
            if d & seg:
                live[b] = (t + seg, d & ~seg)

    out_bins = {}
    for b, (t, _d) in live.items():
        out_bins.setdefault(t, []).append(b)
    for t, members in out_bins.items():
        if len(members) > 1:
            collisions.append(("output", t, tuple(sorted(members))))
            for b in members:
                del live[b]

    n_out = max(
        [stream.bin_count] + [t + 1 for t, _ in (v for v in live.values())]
    )
    occ = [False] * n_out
    for _b, (t, _d) in live.items():
        occ[t] = True
    out = PhotonStream(tuple(occ))
    dropped = sum(len(m) for _lbl, _t, m in collisions)
    assert len(stream.photon_bins) == len(live) + dropped + discarded
    return out, collisions


def random_routing(rng):
    """A seeded (stream, assignments, network) case: 0-7 stages, 0-96 bins.

    Each photon gets no entry (delay 0), None, the network's maximum
    delay or a uniform delay; some cases also assign a bin holding no
    photon, which routing must ignore.
    """
    stages = int(rng.integers(0, 8))
    max_delay = (1 << stages) - 1
    s = PhotonStream.sample(
        int(rng.integers(0, 97)), float(rng.choice([0.1, 0.3, 0.6, 1.0])), rng
    )
    assignments = {}
    for b in s.photon_bins:
        kind = int(rng.integers(0, 5))
        if kind == 1:
            assignments[b] = None
        elif kind == 2:
            assignments[b] = max_delay
        elif kind > 2:
            assignments[b] = int(rng.integers(0, max_delay + 1))
    if rng.random() < 0.2:
        assignments[s.bin_count + 3] = int(rng.integers(0, max_delay + 1))
    return s, assignments, DelayNetwork(stages)


def test_route_matches_dict_oracle():
    rng = np.random.default_rng(2017)
    cases = [random_routing(rng) for _ in range(300)]
    for stages in range(8):
        net = DelayNetwork(stages)
        full = stream(range(24))
        cases += [
            (stream([], n=16), {}, net),
            (stream([5], n=8), {5: net.max_delay}, net),
            (full, {}, net),
            (full, {b: net.max_delay for b in range(24)}, net),
            (full, {b: b % (net.max_delay + 1) for b in range(24)}, net),
            (full, {b: None if b % 3 else 0 for b in range(24)}, net),
        ]
    for case in cases:
        got = route_with_delays(*case)
        want = oracle_route_with_delays(*case)
        # repr also tells a numpy integer from a Python int
        assert repr(got) == repr(want)


def golden_yield_rows(spec):
    return [
        [
            {k: repr(v) if isinstance(v, float) else v for k, v in row.items()}
            for row in yield_curve(
                spec["p"], spec["s_values"], spec["bins"],
                trial_rng(spec["seed"], t),
            )
        ]
        for t in range(spec["trials"])
    ]


def golden_routes(spec):
    rng = np.random.default_rng(spec["seed"])
    out_bins, digests = [], []
    for _ in range(spec["cases"]):
        out, collisions = route_with_delays(*random_routing(rng))
        out_bins.append(list(out.photon_bins))
        digests.append(hashlib.sha256(repr(collisions).encode()).hexdigest())
    return out_bins, digests


def test_multiplex_golden():
    golden = json.loads((GOLDEN / "multiplex.json").read_text())
    assert golden_yield_rows(golden["yield_curve"]) == golden["yield_curve"]["rows"]
    out_bins, digests = golden_routes(golden["routing"])
    assert out_bins == golden["routing"]["out_bins"]
    assert digests == golden["routing"]["collisions_digest"]
