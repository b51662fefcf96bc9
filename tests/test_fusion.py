"""Graph-level fusion operations."""

import numpy as np
import pytest

from ballistic.errors import SpecError
from ballistic.fusion import (
    FAILURE,
    LOSS_HERALD,
    SUCCESS,
    FusionParams,
    fuse,
)
from ballistic.graphstate import GraphRegister


def rng():
    return np.random.default_rng(11)


def chain_pair():
    """Two 3-chains a0-a1-a2 and b0-b1-b2."""
    g = GraphRegister(6)
    g.apply_cz(0, 1).apply_cz(1, 2)
    g.apply_cz(3, 4).apply_cz(4, 5)
    return g


def test_default_success_probs():
    assert FusionParams("TypeI").success_prob == 0.5
    assert FusionParams("TypeII").success_prob == 0.5
    assert FusionParams("BoostedTypeII").success_prob == 0.75


def test_unknown_kind_rejected():
    with pytest.raises(SpecError):
        FusionParams("TypeIII")


def test_same_photon_rejected():
    g = chain_pair()
    with pytest.raises(SpecError):
        fuse(g, 1, 1, FusionParams(), rng())


def test_success_joins_neighborhoods():
    g = chain_pair()
    out = fuse(g, 2, 3, FusionParams("TypeII", success_prob=1.0), rng(), forced=SUCCESS)
    assert out.result == SUCCESS
    assert not g.is_alive(2) and not g.is_alive(3)
    # chain-end fusion splices the chains: 1 bonds to 4
    assert g.has_edge(1, 4)


def test_failure_removes_both_cleanly():
    g = chain_pair()
    out = fuse(g, 2, 3, FusionParams(), rng(), forced=FAILURE)
    assert out.result == FAILURE
    assert not g.is_alive(2) and not g.is_alive(3)
    assert not g.has_edge(1, 4)
    # Z removal does not damage the rest of either chain
    assert g.has_edge(0, 1) and g.has_edge(4, 5)


def test_loss_herald_drops_photons_as_lost():
    g = chain_pair()
    out = fuse(g, 2, 3, FusionParams(transmission=0.5), rng(), forced=LOSS_HERALD)
    assert out.result == LOSS_HERALD
    assert not g.is_alive(2) and not g.is_alive(3)
    assert [v for v, _ in g.loss_log] == [2, 3]


def test_transmission_one_never_heralds():
    params = FusionParams("TypeII", transmission=1.0)
    r = rng()
    for _ in range(200):
        g = chain_pair()
        assert fuse(g, 2, 3, params, r).result in (SUCCESS, FAILURE)


def test_loss_herald_rate_matches_transmission():
    params = FusionParams("TypeII", transmission=0.8)
    r = rng()
    n = 4000
    heralds = 0
    for _ in range(n):
        g = chain_pair()
        heralds += fuse(g, 2, 3, params, r).result == LOSS_HERALD
    expected = 1 - 0.8**2
    assert heralds / n == pytest.approx(expected, abs=4 * (expected * (1 - expected) / n) ** 0.5)


def test_ancilla_accounting():
    assert FusionParams("TypeII").ancillas_per_fusion == 0
    assert FusionParams("BoostedTypeII").ancillas_per_fusion == 2
    g = chain_pair()
    out = fuse(g, 2, 3, FusionParams("BoostedTypeII"), rng(), forced=SUCCESS)
    assert out.ancillas == 2


def test_type1_keeps_one_photon():
    g = chain_pair()
    out = fuse(g, 2, 3, FusionParams("TypeI"), rng(), forced=SUCCESS)
    assert out.result == SUCCESS
    assert g.is_alive(2) and not g.is_alive(3)
    assert g.has_edge(2, 4)
