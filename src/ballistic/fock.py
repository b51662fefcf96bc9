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
# C(4,5) D(6,7); Bell pairs (A,B) and (C,D); B and C enter the fusion network.
_FUSION_MODES = (2, 3, 4, 5)


def _bell_pair(q1_modes, q2_modes) -> FockState:
    amps = {}
    for bit in (0, 1):
        occ = [0] * 8
        occ[q1_modes[bit]] = 1
        occ[q2_modes[bit]] = 1
        amps[tuple(occ)] = 1 / math.sqrt(2)
    return FockState(8, amps)


def _fusion_network() -> Interferometer:
    """Balanced 4-mode Type-II network on the fused dual-rail pair.

    Polarization picture: a PBS in the rotated basis followed by rotated-basis
    detection — rotate both qubits by 45 degrees, exchange the second rails,
    rotate both by 45 degrees again.
    """
    itf = Interferometer(8)
    itf.beamsplitter(2, 3, math.pi / 4)
    itf.beamsplitter(4, 5, math.pi / 4)
    itf.swap(3, 5)
    itf.beamsplitter(2, 3, math.pi / 4)
    itf.beamsplitter(4, 5, math.pi / 4)
    return itf


def _herald_classes():
    """Partition 2-photon patterns on the fusion modes into success /
    failure / degenerate, by the entanglement of the conditional (A, D) state.

    Success patterns are the coincidence heralds (one photon on each side)
    whose conditional state is maximally entangled.  For those, `parity` is
    the (A rail) XOR (D rail) value the heralded Bell state fixes (0 for a
    correlated pair, 1 for an anti-correlated one).

    Returns {pattern: (class, probability, parity)} with parity None outside
    the success class.
    """
    s1 = _bell_pair((0, 1), (2, 3))
    s2 = _bell_pair((4, 5), (6, 7))
    amps = {}
    for o1, a1 in s1.amplitudes.items():
        for o2, a2 in s2.amplitudes.items():
            occ = tuple(x + y for x, y in zip(o1, o2))
            amps[occ] = amps.get(occ, 0) + a1 * a2
    state = apply_interferometer(FockState(8, amps), _fusion_network())

    patterns = {}
    for occ, amp in state.amplitudes.items():
        fused = tuple(occ[m] for m in _FUSION_MODES)
        patterns.setdefault(fused, []).append((occ, amp))
    classes = {}
    for fused, terms in patterns.items():
        p = sum(abs(a) ** 2 for _, a in terms)
        if sum(fused) != 2 or p < 1e-12:
            classes[fused] = ("degenerate", p, None)
            continue
        coincidence = (fused[0] + fused[1] == 1) and (fused[2] + fused[3] == 1)
        # conditional amplitude matrix over (A rail, D rail)
        mmat = np.zeros((2, 2), dtype=complex)
        for occ, amp in terms:
            a_rail = 0 if occ[0] else 1
            d_rail = 0 if occ[6] else 1
            mmat[a_rail, d_rail] += amp
        frob = np.sum(np.abs(mmat) ** 2)
        bell = frob > 1e-12 and abs(
            2 * abs(np.linalg.det(mmat)) / frob - 1.0
        ) < 1e-9
        if coincidence and bell:
            diag = abs(mmat[0, 0]) + abs(mmat[1, 1])
            anti = abs(mmat[0, 1]) + abs(mmat[1, 0])
            parity = None if (diag > 1e-9 and anti > 1e-9) else int(anti > diag)
            classes[fused] = ("success", p, parity)
        else:
            classes[fused] = ("failure", p, None)
    return classes


def type2_fusion_success_probability(distinguishable: bool = False) -> float:
    """Total probability of the success heralds in the Bell-pair scenario.

    With `distinguishable=True` the two fused photons occupy disjoint mode
    pairs and do not interfere: each transits the network alone, so every
    outcome is an ordered routing with a definite rail history.  Success then
    additionally requires the (A, D) rail parity fixed by the heralded Bell
    state — without interference the herald still fires, but the heralded
    correlation only holds on the routings that happen to produce it.
    """
    classes = _herald_classes()
    if not distinguishable:
        return sum(p for cls, p, _ in classes.values() if cls == "success")
    success = {
        fused: parity
        for fused, (cls, _, parity) in classes.items()
        if cls == "success"
    }
    u = _fusion_network().unitary
    total = 0.0
    # Rail choices (rb, rc) are the which-path record: each Bell pair pins its
    # outer qubit's rail to its fused photon's input rail.
    for rb, rc in product((0, 1), (0, 1)):
        for i, j in product(range(4), range(4)):
            pr = (
                0.25
                * abs(u[_FUSION_MODES[i], 2 + rb]) ** 2
                * abs(u[_FUSION_MODES[j], 4 + rc]) ** 2
            )
            if pr < 1e-15:
                continue
            fused = tuple(
                (1 if k == i else 0) + (1 if k == j else 0) for k in range(4)
            )
            if fused not in success:
                continue
            parity = success[fused]
            if parity is None:
                total += 0.5 * pr
            elif (rb ^ rc) == parity:
                total += pr
    return total
