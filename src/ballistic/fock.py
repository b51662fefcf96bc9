"""Dense bosonic linear-optics oracle: <= 6 photons in <= 12 modes.

Used to verify interference-based probabilities (Hong-Ou-Mandel dip, Type-II
fusion success rate) independently of the graph-level machinery.

Beamsplitter convention: symmetric, i on reflection —

    U(theta) = [[cos t,   i sin t],
                [i sin t, cos t  ]]

All phases quoted in examples are relative to this choice; only probabilities
are contract.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .errors import CapacityError, ShapeError

MAX_PHOTONS = 6
MAX_MODES = 12


class FockState:
    """Sparse amplitude map over occupation vectors of fixed mode count."""

    def __init__(self, mode_count: int, amplitudes: dict[tuple[int, ...], complex]):
        if mode_count > MAX_MODES:
            raise CapacityError(f"at most {MAX_MODES} modes, got {mode_count}")
        self.mode_count = mode_count
        self.amplitudes = dict(amplitudes)
        for occ in self.amplitudes:
            if len(occ) != mode_count:
                raise ShapeError("occupation length != mode count")
            if sum(occ) > MAX_PHOTONS:
                raise CapacityError(f"at most {MAX_PHOTONS} photons")

    @classmethod
    def basis(cls, occupation) -> "FockState":
        occ = tuple(int(x) for x in occupation)
        return cls(len(occ), {occ: 1.0 + 0j})


class Interferometer:
    """Mode unitary composed from beamsplitters and waveguide crossings."""

    def __init__(self, mode_count: int):
        if mode_count > MAX_MODES:
            raise CapacityError(f"at most {MAX_MODES} modes")
        self.mode_count = mode_count
        self.unitary = np.eye(mode_count, dtype=complex)

    def beamsplitter(self, m1: int, m2: int, theta: float):
        if m1 == m2:
            raise ShapeError("a beamsplitter couples two distinct modes")
        u2 = np.array(
            [
                [math.cos(theta), 1j * math.sin(theta)],
                [1j * math.sin(theta), math.cos(theta)],
            ]
        )
        e = np.eye(self.mode_count, dtype=complex)
        e[np.ix_([m1, m2], [m1, m2])] = u2
        self.unitary = e @ self.unitary
        return self

    def swap(self, m1: int, m2: int):
        """Waveguide crossing (exact mode exchange)."""
        e = np.eye(self.mode_count, dtype=complex)
        e[[m1, m2]] = e[[m2, m1]]
        self.unitary = e @ self.unitary
        return self


def apply_interferometer(state: FockState, itf: Interferometer) -> FockState:
    """Transform creation operators a_i^dag -> sum_j U_ji a_j^dag."""
    if itf.mode_count != state.mode_count:
        raise ShapeError("mode counts differ")
    m = state.mode_count
    u = itf.unitary
    zero = (0,) * m
    # Polynomial in creation operators: coeff c_occ with
    # amplitude(occ) = c_occ * sqrt(prod occ_j!).
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.amplitudes.items():
        poly = {zero: amp / math.sqrt(math.prod(math.factorial(n) for n in occ))}
        for i, n_i in enumerate(occ):
            col = u[:, i]
            for _ in range(n_i):
                nxt: dict[tuple[int, ...], complex] = {}
                for mono, c in poly.items():
                    for j in range(m):
                        cj = col[j]
                        if abs(cj) < 1e-14:
                            continue
                        key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                        nxt[key] = nxt.get(key, 0) + c * cj
                poly = nxt
        for mono, c in poly.items():
            out[mono] = out.get(mono, 0) + c
    amps = {
        occ: c * math.sqrt(math.prod(math.factorial(n) for n in occ))
        for occ, c in out.items()
        if abs(c) > 1e-14
    }
    return FockState(m, amps)


def detection_probability(state: FockState, pattern: dict) -> float:
    """Born probability of a count pattern.

    `pattern` maps mode index -> required photon count.  Unlisted modes are
    unconstrained.
    """
    total = 0.0
    for occ, amp in state.amplitudes.items():
        if all(occ[mode] == want for mode, want in pattern.items()):
            total += abs(amp) ** 2
    return total


# -- Type-II fusion scenario ------------------------------------------------

# Dual-rail layout for the self-contained fusion check: qubits A(0,1) B(2,3)
# C(4,5) D(6,7); Bell pairs (A,B) and (C,D); B and C enter the fusion network,
# so an outcome's A and D rails are its counts on modes 1 and 7.
# A distinguishable C photon never meets B's: it travels a copy of the network
# on modes 8-11, fusion mode m's copy being m + _COPY, and a detector counts
# a mode and its copy together.
_FUSION_MODES = (2, 3, 4, 5)
_COPY = 6


def _fused_state(distinguishable: bool) -> FockState:
    """The Bell pairs (A,B) and (C,D) after the Type-II network.

    Polarization picture of the balanced 4-mode network: a PBS in the rotated
    basis followed by rotated-basis detection — rotate both qubits by 45
    degrees, exchange the second rails, rotate both by 45 degrees again.  It
    acts alike on the fusion modes and on their copy.
    """
    c0 = 4 + _COPY * distinguishable  # C's rail-0 mode
    amps = {}
    for a, d in product((0, 1), (0, 1)):
        occ = [0] * MAX_MODES
        occ[a] = occ[2 + a] = occ[c0 + d] = occ[6 + d] = 1
        amps[tuple(occ)] = 0.5
    itf = Interferometer(MAX_MODES)
    for b, c in ((2, 4), (2 + _COPY, 4 + _COPY)):
        itf.beamsplitter(b, b + 1, math.pi / 4)
        itf.beamsplitter(c, c + 1, math.pi / 4)
        itf.swap(b + 1, c + 1)
        itf.beamsplitter(b, b + 1, math.pi / 4)
        itf.beamsplitter(c, c + 1, math.pi / 4)
    return apply_interferometer(FockState(MAX_MODES, amps), itf)


def _detected(occ) -> tuple[int, ...]:
    """Counts on the four fusion detectors, each summing a mode and its copy."""
    return tuple(occ[m] + occ[m + _COPY] for m in _FUSION_MODES)


def _success_heralds() -> dict[tuple[int, ...], int]:
    """{pattern: parity} for the success heralds of the fusion network.

    Success patterns are the coincidence heralds (one photon on each side)
    whose conditional (A, D) state, with indistinguishable photons, is
    maximally entangled.  `parity` is the (A rail) XOR (D rail) value the
    heralded Bell state fixes: 0 for a correlated pair, 1 for an
    anti-correlated one.
    """
    conditional = {}
    for occ, amp in _fused_state(False).amplitudes.items():
        mmat = conditional.setdefault(_detected(occ), np.zeros((2, 2), complex))
        mmat[occ[1], occ[7]] += amp
    heralds = {}
    for fused, mmat in conditional.items():
        frob = np.sum(np.abs(mmat) ** 2)
        bell = abs(2 * abs(np.linalg.det(mmat)) / frob - 1.0) < 1e-9
        if bell and fused[0] + fused[1] == 1 and fused[2] + fused[3] == 1:
            diag = abs(mmat[0, 0]) + abs(mmat[1, 1])
            heralds[fused] = int(abs(mmat[0, 1]) + abs(mmat[1, 0]) > diag)
    return heralds


def type2_fusion_success_probability(distinguishable: bool = False) -> float:
    """Probability of a success herald with the (A, D) rails it heralds.

    With `distinguishable=True` the fused photons do not interfere: the
    herald still fires, but the heralded correlation only holds on the
    outcomes that happen to produce it, so only those count as success.
    """
    heralds = _success_heralds()
    return sum(
        abs(amp) ** 2
        for occ, amp in _fused_state(distinguishable).amplitudes.items()
        if heralds.get(_detected(occ)) == occ[1] ^ occ[7]
    )
