"""Loss-tolerant encoded wires and spliceable gadgets."""

import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ballistic
from ballistic import losstol
from ballistic.errors import CapacityError, SpecError
from ballistic.graphstate import lc_equivalent
from ballistic.losstol import (
    CrazyGraphSpec,
    TeleportReport,
    build_crazy_graph,
    build_ring_block,
    build_s_gadget,
    column_block,
    exact_flip_prob,
    simulate_teleport,
    teleport_success_prob,
    verify_ring_block_equivalence,
    verify_s_gadget,
)
from ballistic.rng import CHUNK, trial_rng


def test_spec_validation():
    with pytest.raises(SpecError):
        CrazyGraphSpec(0, 3)
    with pytest.raises(SpecError):
        CrazyGraphSpec(3, 0)
    with pytest.raises(SpecError):
        CrazyGraphSpec(3, 3, loss=1.5)
    # the analytic oracle takes the same column and probabilities
    for L, loss, z_flip in ((0, 0.1, 0.1), (3, 1.5, 0.1), (3, 0.1, -0.1),
                            (3, 0.1, float("nan"))):
        with pytest.raises(SpecError):
            exact_flip_prob(L, loss, z_flip)


def test_build_edge_count_and_degenerate_wire():
    g = build_crazy_graph(CrazyGraphSpec(5, 3))
    assert len(list(g.edges())) == (5 - 1) * 3 * 3
    wire = build_crazy_graph(CrazyGraphSpec(6, 1))
    assert sorted(wire.edges()) == [(i, i + 1) for i in range(5)]


def test_teleport_success_closed_form():
    spec = CrazyGraphSpec(50, 3, loss=0.1)
    assert teleport_success_prob(spec) == pytest.approx((1 - 1e-3) ** 50)
    assert teleport_success_prob(spec) == pytest.approx(0.95121, abs=1e-5)


def test_simulated_success_matches_closed_form():
    spec = CrazyGraphSpec(50, 3, loss=0.1)
    trials = 20000
    rep = simulate_teleport(spec, trial_rng(21, 0), trials)
    p = teleport_success_prob(spec)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(rep.success_rate - p) <= 3 * sigma


def test_flip_rate_matches_analytic_oracle():
    spec = CrazyGraphSpec(1, 5, loss=0.2, z_flip=0.1)
    trials = 50000
    rep = simulate_teleport(spec, trial_rng(22, 0), trials)
    p = exact_flip_prob(5, 0.2, 0.1)
    n_succ = rep.success_rate * trials
    sigma = math.sqrt(p * (1 - p) / n_succ)
    assert abs(rep.flip_rate - p) <= 3 * sigma


def test_even_flip_rate_matches_analytic_oracle():
    # a column of 4 ties when 2 or 4 carriers survive and half of them
    # flip: the coin settles about one successful trial in nine
    spec = CrazyGraphSpec(1, 4, loss=0.2, z_flip=0.2)
    trials = 50000
    rep = simulate_teleport(spec, trial_rng(24, 0), trials)
    p = exact_flip_prob(4, 0.2, 0.2)
    n_succ = rep.success_rate * trials
    sigma = math.sqrt(p * (1 - p) / n_succ)
    assert abs(rep.flip_rate - p) <= 3 * sigma


def test_exact_flip_prob_lossless_is_binomial_tail():
    # 7 redundant carriers at 10% flip: majority wrong iff >= 4 flips
    tail = sum(
        math.comb(7, k) * 0.1**k * 0.9 ** (7 - k) for k in range(4, 8)
    )
    assert exact_flip_prob(7, 0.0, 0.1) == pytest.approx(tail)
    assert tail == pytest.approx(0.002728, abs=1e-6)


def scipy_flip_prob(L: int, loss: float, z_flip: float) -> float:
    """`exact_flip_prob` with its binomial terms from scipy.stats."""
    from scipy.stats import binom

    norm = 1.0 - loss**L
    if norm == 0.0:
        return 0.0
    total = 0.0
    for s in range(1, L + 1):
        p_s = math.comb(L, s) * (1 - loss) ** s * loss ** (L - s)
        flip = binom.sf(s // 2, s, z_flip)
        if s % 2 == 0:
            flip += 0.5 * binom.pmf(s // 2, s, z_flip)
        total += p_s * flip
    return total / norm


@pytest.mark.parametrize("L", range(1, 16))
def test_exact_flip_prob_matches_scipy_binom(L):
    for loss in (0.0, 0.2, 0.5, 0.9, 1.0):
        for z_flip in (0.0, 0.1, 0.5, 0.9):
            got = exact_flip_prob(L, loss, z_flip)
            assert type(got) is float
            assert got == pytest.approx(scipy_flip_prob(L, loss, z_flip), rel=1e-12, abs=0)


def test_import_leaves_scipy_stats_unloaded():
    code = (
        "import sys, ballistic; "
        "print('scipy.stats' in sys.modules, 'scipy.sparse' in sys.modules, "
        "'scipy.ndimage' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=pathlib.Path(ballistic.__file__).parents[1],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False False False\n"


def test_even_columns_produce_ties():
    spec = CrazyGraphSpec(4, 2, z_flip=0.2)
    rep = simulate_teleport(spec, trial_rng(23, 0), 5000)
    assert rep.tie_frequency > 0
    assert rep.success_rate == 1.0


def plain_teleport(spec, rng, trials):
    """`simulate_teleport` with its column counts as plain int sums."""
    N, L = spec.columns, spec.column_size
    lost = rng.random((trials, N, L)) < spec.loss
    survivors = (~lost).sum(axis=2)
    flips = ((rng.random((trials, N, L)) < spec.z_flip) & ~lost).sum(axis=2)
    tie = (2 * flips == survivors) & (survivors > 0)
    col_wrong = (2 * flips > survivors) | (tie & (rng.random((trials, N)) < 0.5))
    success = (survivors > 0).all(axis=1)
    n_success = int(success.sum())
    if n_success == 0:
        return TeleportReport(0.0, 0.0, 0.0)
    return TeleportReport(
        n_success / trials,
        int((col_wrong.any(axis=1) & success).sum()) / n_success,
        int((tie.any(axis=1) & success).sum()) / n_success,
    )


def test_column_counts_match_plain_sums():
    """Columns of 256 or more, whose counts overflow a byte (or twice a
    count a signed byte), and the default width, with flips and ties."""
    ties = 0
    for i, (N, L, loss, z_flip) in enumerate((
        (50, 3, 0.1, 0.0), (4, 3, 0.3, 0.3), (3, 256, 0.0, 0.5),
        (2, 300, 0.1, 0.5), (2, 300, 0.95, 0.45), (2, 1000, 0.5, 0.5),
    )):
        spec = CrazyGraphSpec(N, L, loss=loss, z_flip=z_flip)
        rep = simulate_teleport(spec, trial_rng(25, i), 40)
        assert rep == plain_teleport(spec, trial_rng(25, i), 40), spec
        ties += rep.tie_frequency > 0 and L >= 256
    assert ties >= 2


def test_teleport_blocks_match_one_block(monkeypatch):
    """Counting and voting in blocks of trials gives the report of one
    block: blocks of one trial, of three trials with a short last block,
    and a column wider than a block.  The draws do not move, since
    `rng.bernoulli` keeps its own chunk size."""
    specs = (CrazyGraphSpec(50, 3, 0.1, 0.2), CrazyGraphSpec(4, 2, 0.3, 0.3),
             CrazyGraphSpec(2, 300, 0.1, 0.5))
    for i, spec in enumerate(specs):
        cells = spec.columns * spec.column_size
        monkeypatch.setattr(losstol, "CHUNK", 1 << 40)
        want = simulate_teleport(spec, trial_rng(26, i), 40)
        assert want.flip_rate > 0 and want.tie_frequency > 0, spec
        for chunk in (1, 3 * cells):
            monkeypatch.setattr(losstol, "CHUNK", chunk)
            assert simulate_teleport(spec, trial_rng(26, i), 40) == want, (spec, chunk)


def stream_state(rng) -> tuple:
    """A Philox generator's state, less the buffered words already used
    (stepping past a block leaves them zero, sampling it leaves them set)."""
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"][s["buffer_pos"]:].tolist(), s["buffer_pos"],
            s["has_uint32"], s["uinteger"])


@pytest.mark.parametrize("trials", [100, 10_000])
def test_teleport_without_flips_steps_past_the_coins(trials):
    """At z_flip 0 the tie coins are stepped over, not sampled: the report
    and the stream's end state equal those of the plain reference, which
    samples them, with the coin draw under and over `rng.CHUNK` words."""
    spec = CrazyGraphSpec(4, 2, loss=0.3)
    assert (trials * spec.columns > CHUNK) == (trials > 100)
    rng, ref = trial_rng(27, trials), trial_rng(27, trials)
    rep = simulate_teleport(spec, rng, trials)
    assert rep == plain_teleport(spec, ref, trials)
    assert 0 < rep.success_rate < 1 and rep.flip_rate == rep.tie_frequency == 0
    assert stream_state(rng) == stream_state(ref)
    assert rng.random(5).tolist() == ref.random(5).tolist()


def test_simulate_validation():
    with pytest.raises(SpecError):
        simulate_teleport(CrazyGraphSpec(2, 2), trial_rng(0, 0), 0)


def test_s_gadget_structure():
    for L in (1, 2, 3, 4):
        reg, central = build_s_gadget(L)
        assert central == 3 * L
        assert reg.vertex_count == 3 * L + 1
        assert all(reg.get_vop(v) == 0 for v in range(3 * L + 1))
        cols = [range(c * L, (c + 1) * L) for c in range(3)]
        expected = {(i, j) for c in (0, 1) for i in cols[c] for j in cols[c + 1]}
        expected |= {(i, 3 * L) for i in cols[1]}
        assert set(reg.edges()) == expected
    with pytest.raises(SpecError):
        build_s_gadget(0)


def test_verify_s_gadget():
    for L in (1, 2, 3):
        assert verify_s_gadget(L, np.random.default_rng(0))
    with pytest.raises(CapacityError):
        verify_s_gadget(4, np.random.default_rng(0))


def test_ring_block_degrees_are_bounded():
    for L in (2, 3, 4):
        g, pair = build_ring_block(L)
        assert pair == (0, 1)
        degs = {v: len(g.neighbors(v)) for v in g.alive_vertices()}
        assert max(degs.values()) <= 3  # vs 2L for the unpacked block
    with pytest.raises(SpecError):
        build_ring_block(1)


def test_ring_block_unpacks_to_column_block():
    for L in (2, 3, 4):
        assert verify_ring_block_equivalence(L, np.random.default_rng(0))


def test_column_block_is_complete_bipartite():
    g = column_block(2)
    alive = sorted(g.alive_vertices())
    assert len(alive) == 4
    assert len(list(g.edges())) == 4
    # and it is not trivially the ring block before measurement
    ring, _ = build_ring_block(2)
    assert not lc_equivalent(ring, g)
