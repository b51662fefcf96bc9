"""Fusion parameters, and the graph-level fusion of the test oracle."""

import numpy as np
import pytest

from ballistic.errors import SpecError
from ballistic.fusion import FusionParams
from ballistic.graphstate import GraphRegister
from graph_oracle import fuse


def rng():
    return np.random.default_rng(11)


def chain_pair():
    """Two 3-chains a0-a1-a2 and b0-b1-b2."""
    g = GraphRegister(6)
    g.apply_cz(0, 1).apply_cz(1, 2)
    g.apply_cz(3, 4).apply_cz(4, 5)
    return g


def test_unknown_kind_rejected():
    # no build models Type-I fusion, so asking for it is an error too
    for kind in ("TypeIII", "TypeI"):
        with pytest.raises(SpecError, match=f"unknown fusion kind '{kind}'"):
            FusionParams(kind, success_prob=0.5)


def test_same_photon_rejected():
    g = chain_pair()
    with pytest.raises(SpecError):
        fuse(g, 1, 1, True, rng())


def test_success_joins_neighborhoods():
    g = chain_pair()
    assert fuse(g, 2, 3, True, rng()) is None
    assert not g.is_alive(2) and not g.is_alive(3)
    # chain-end fusion splices the chains: 1 bonds to 4
    assert g.has_edge(1, 4)


def test_failure_removes_both_cleanly():
    g = chain_pair()
    fuse(g, 2, 3, False, rng())
    assert not g.is_alive(2) and not g.is_alive(3)
    assert not g.has_edge(1, 4)
    # Z removal does not damage the rest of either chain
    assert g.has_edge(0, 1) and g.has_edge(4, 5)


def test_ancilla_accounting():
    assert FusionParams("TypeII", success_prob=0.5).ancillas_per_fusion == 0
    assert FusionParams("BoostedTypeII", success_prob=0.75).ancillas_per_fusion == 2


def test_success_toggles_existing_edges():
    # 0-1 and 2-3 fused at 1 and 3: the complement removes the 0-2 edge
    g = GraphRegister(4)
    g.apply_cz(0, 1).apply_cz(2, 3).apply_cz(0, 2)
    fuse(g, 1, 3, True, rng())
    assert sorted(g.edges()) == []
    assert g.is_alive(0) and g.is_alive(2)
