"""Small-photon-number linear-optics oracle."""

import math

import numpy as np
import pytest

from ballistic.errors import CapacityError, ShapeError
from ballistic.fock import (
    FockState,
    Interferometer,
    apply_interferometer,
    detection_probability,
    type2_fusion_success_probability,
)


def balanced_bs():
    return Interferometer(2).beamsplitter(0, 1, math.pi / 4)


def test_identity_interferometer_is_noop():
    state = FockState.basis((2, 1))
    out = apply_interferometer(state, Interferometer(2))
    assert out.amplitudes.keys() == state.amplitudes.keys()
    for k, v in state.amplitudes.items():
        assert out.amplitudes[k] == pytest.approx(v)


def test_single_photon_beamsplitter_convention():
    out = apply_interferometer(FockState.basis((1, 0)), balanced_bs())
    a10 = out.amplitudes[(1, 0)]
    a01 = out.amplitudes[(0, 1)]
    assert a10 == pytest.approx(1 / math.sqrt(2))
    assert a01 == pytest.approx(1j / math.sqrt(2))


def test_beamsplitter_needs_two_modes():
    # one mode coupled to itself would not be unitary
    with pytest.raises(ShapeError):
        Interferometer(2).beamsplitter(0, 0, math.pi / 4)


def test_hom_dip():
    out = apply_interferometer(FockState.basis((1, 1)), balanced_bs())
    assert detection_probability(out, {0: 1, 1: 1}) < 1e-12
    # photons bunch: both outputs carry the pair with probability 1/2 each
    assert detection_probability(out, {0: 2, 1: 0}) == pytest.approx(0.5)
    assert detection_probability(out, {0: 0, 1: 2}) == pytest.approx(0.5)


def test_norm_preserved_random_interferometers():
    rng = np.random.default_rng(3)
    for _ in range(20):
        itf = Interferometer(3)
        for _ in range(4):
            m1, m2 = rng.choice(3, size=2, replace=False)
            itf.beamsplitter(int(m1), int(m2), rng.uniform(0, math.pi))
        out = apply_interferometer(FockState.basis(rng.integers(0, 3, size=3)), itf)
        norm = math.sqrt(sum(abs(a) ** 2 for a in out.amplitudes.values()))
        assert norm == pytest.approx(1.0, abs=1e-10)


def test_dimension_mismatch_raises():
    with pytest.raises(ShapeError):
        apply_interferometer(FockState.basis((1, 0, 0)), Interferometer(2))


def test_photon_capacity():
    with pytest.raises(CapacityError):
        apply_interferometer(FockState.basis((4, 3)), Interferometer(2))


def test_fusion_success_probabilities():
    assert type2_fusion_success_probability() == pytest.approx(0.5, abs=1e-9)
    assert type2_fusion_success_probability(distinguishable=True) == pytest.approx(
        0.25, abs=1e-9
    )
