"""Acceptance checks: one function per shipped guarantee.

Each check is self-seeded, runs a fixed workload and is deterministic;
`run_all` executes the suite and returns structured results.  The same
functions back the CLI `verify` command and the acceptance test module.
"""

from __future__ import annotations

import functools
import hashlib
import math
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .builder import WaferSpec, build_batches, build_wafer, optical_depth_report
from .cli import CONFIG_VERSION, run_experiment, validate_config
from .dense import DenseStabilizerState, from_graph_register
from .fock import (
    FockState,
    Interferometer,
    apply_interferometer,
    detection_probability,
    type2_fusion_success_probability,
)
from .fusion import FusionParams
from .graphstate import GraphRegister
from .losstol import (
    CrazyGraphSpec,
    exact_flip_prob,
    simulate_teleport,
    teleport_success_prob,
    verify_ring_block_equivalence,
    verify_s_gadget,
)
from .multiplex import (
    extinction_to_z_error,
    herald_success_prob,
    standard_mux_pair_yield,
    yield_curve,
)
from .percolation import (
    crossings,
    find_paths_windowed,
    square_lattice_crosses,
    sustained_layers,
)
from .rng import bernoulli, run_rng, trial_rng


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    details: str
    seconds: float


# -- oracle-comparison helpers ----------------------------------------------


def fuzz_case(seed: int) -> bool:
    """One random op sequence (2-10 qubits, up to 20 ops) replayed in both
    engines; True iff they agree."""
    rng = np.random.default_rng(seed)
    nq = int(rng.integers(2, 11))
    g = GraphRegister(nq)
    d = DenseStabilizerState(nq)
    alive = list(range(nq))
    for _ in range(20):
        if len(alive) <= 1:
            break
        r = rng.random()
        if r < 0.35 and len(alive) >= 2:
            i, j = rng.choice(len(alive), 2, replace=False)
            a, b = alive[i], alive[j]
            g.apply_cz(a, b)
            d.apply_cz(a, b)
        elif r < 0.50:
            g.local_complement(alive[int(rng.integers(len(alive)))])
        elif r < 0.80:
            a = alive[int(rng.integers(len(alive)))]
            c = int(rng.integers(24))
            g.apply_local_clifford(a, c)
            d.apply_clifford(a, c)
        else:
            a = alive[int(rng.integers(len(alive)))]
            basis = "XYZ"[int(rng.integers(3))]
            o = g.measure_pauli(a, basis, rng)
            d.measure(a, basis, forced=o)
            alive.remove(a)
    return from_graph_register(g).canonical_rows() == d.subsystem_canonical(alive)


# -- individual criteria ----------------------------------------------------


def check_hom() -> tuple[bool, str]:
    state = FockState.basis((1, 1))
    itf = Interferometer(2).beamsplitter(0, 1, math.pi / 4)
    out = apply_interferometer(state, itf)
    p = detection_probability(out, {0: 1, 1: 1})
    return p < 1e-12, f"coincidence probability {p:.3e}"


def check_fusion_oracle() -> tuple[bool, str]:
    p = type2_fusion_success_probability()
    pd = type2_fusion_success_probability(distinguishable=True)
    ok = abs(p - 0.5) < 1e-9 and abs(pd - 0.25) < 1e-9
    return ok, f"indistinguishable {p:.12f}, distinguishable {pd:.12f}"


def check_engine_fuzz() -> tuple[bool, str]:
    cases = 10_000
    failures = [s for s in range(cases) if not fuzz_case(s)]
    return not failures, f"{cases} sequences, {len(failures)} disagreements"


def check_mux_block_mc() -> tuple[bool, str]:
    p, S, blocks = 0.2, 3, 1_000_000
    rng = trial_rng(1004, 0)
    hits = bernoulli(rng, (blocks, 1 << S), p).any(axis=1).mean()
    exact = herald_success_prob(p, 1 << S)
    sigma = math.sqrt(exact * (1 - exact) / blocks)
    ok = abs(hits - exact) < 3 * sigma
    return ok, f"MC {hits:.5f} vs closed form {exact:.5f} (3s = {3*sigma:.5f})"


def check_yield_curve() -> tuple[bool, str]:
    bins = 100_000
    stated = [0.0400, 0.0648, 0.0872, 0.0866, 0.0590]
    closed = [standard_mux_pair_yield(0.2, S) for S in range(5)]
    if any(abs(c - s) > 1e-4 for c, s in zip(closed, stated)):
        return False, f"closed-form mismatch: {closed}"
    if not (closed[2] > closed[0] and closed[4] < closed[3]):
        return False, "closed-form shape violated"
    rows = yield_curve(0.2, range(7), bins, trial_rng(1005, 0))
    for row in rows:
        slack = 3 * math.sqrt(max(row["standard_yield"], 1e-9) / bins)
        if row["sliding_yield"] < row["standard_yield"] - slack:
            return False, f"sliding below standard at S={row['S']}: {row}"
    return True, f"closed {closed}; MC dominance over S=0..6 holds"


def check_crazy_graph_law() -> tuple[bool, str]:
    trials = 100_000
    spec = CrazyGraphSpec(50, 3, loss=0.1)
    rep = simulate_teleport(spec, trial_rng(1006, 0), trials)
    exact = teleport_success_prob(spec)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    if abs(rep.success_rate - exact) > 3 * sigma:
        return False, f"headline point off: {rep.success_rate} vs {exact}"
    grid_trials = 20_000
    for i, eps in enumerate((0.05, 0.1, 0.2)):
        for j, L in enumerate((2, 3, 4)):
            s = CrazyGraphSpec(50, L, loss=eps)
            r = simulate_teleport(s, trial_rng(1006, 1 + 3 * i + j), grid_trials)
            e = teleport_success_prob(s)
            sg = math.sqrt(max(e * (1 - e), 1e-9) / grid_trials)
            if abs(r.success_rate - e) > 3 * sg:
                return False, f"grid point eps={eps} L={L} off: {r.success_rate} vs {e}"
    return True, f"headline {rep.success_rate:.5f} vs {exact:.5f}; 3x3 grid within 3s"


def check_majority_vote() -> tuple[bool, str]:
    trials = 1_000_000
    spec = CrazyGraphSpec(1, 7, z_flip=0.1)
    rep = simulate_teleport(spec, trial_rng(1007, 0), trials)
    exact = exact_flip_prob(7, 0.0, 0.1)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    # the analytic oracle must also give the stated tail
    ok = abs(exact - 0.002728) < 1e-6
    ok = ok and abs(rep.flip_rate - exact) < 3 * sigma
    return ok, f"flip rate {rep.flip_rate:.6f} vs binomial tail {exact:.6f}"


def _bisect_half(frac, lo, hi, rising):
    """Five bisection steps for where `frac` crosses 1/2 in [lo, hi].

    `rising` says whether the fraction grows with x.  `frac(x, i)` is told
    the probe's ordinal i: 0 for lo, 1 for hi, 2 + k for step k.  Returns
    the final bracket (a, b), or None when the ends do not bracket 1/2.
    """
    f_lo, f_hi = frac(lo, 0), frac(hi, 1)
    if not ((f_lo < 0.5 < f_hi) if rising else (f_lo > 0.5 > f_hi)):
        return None
    a, b = lo, hi
    for k in range(5):
        mid = 0.5 * (a + b)
        if (frac(mid, 2 + k) >= 0.5) == rising:
            b = mid
        else:
            a = mid
    return a, b


def _no_bracket(what, frac, lo, hi) -> str:
    # `frac` is cached, so this reads the end probes back without redrawing
    return f"no bracket: {what} {frac(lo, 0):.2f}@{lo}, {frac(hi, 1):.2f}@{hi}"


def check_bond_threshold() -> tuple[bool, str]:
    rng = run_rng(1008)

    @functools.cache
    def frac(p, _i):
        return sum(square_lattice_crosses(128, p, rng) for _ in range(400)) / 400

    found = _bisect_half(frac, 0.3, 0.7, True)
    if found is None:
        return False, _no_bracket("crossing", frac, 0.3, 0.7)
    lo, hi = found
    mid = 0.5 * (lo + hi)
    ok = 0.48 <= mid <= 0.52
    return ok, f"threshold bracket [{lo:.4f}, {hi:.4f}], midpoint {mid:.4f}"


_BOOSTED = FusionParams(kind="BoostedTypeII", success_prob=0.75)


def _spanning_fraction(
    spec: WaferSpec, trials: int, seed: int, punched: bool = False
) -> float:
    rngs = [trial_rng(seed, t) for t in range(trials)]
    runs = build_batches([spec] * trials, rngs)
    return sum(sum(crossings(lats, punched)) for lats in runs) / trials


def check_wafer_spanning() -> tuple[bool, str]:
    trials = 100
    spec = WaferSpec(12, 6, 50, fusion_params=_BOOSTED)
    frac = _spanning_fraction(spec, trials, 1009)
    ok = frac >= 0.99
    return ok, f"z-crossing in {frac:.0%} of {trials} trials"


def check_filter_critical() -> tuple[bool, str]:
    @functools.cache
    def frac(f, i):
        spec = WaferSpec(12, 6, 50, fusion_params=_BOOSTED, filter_fidelity=f)
        return _spanning_fraction(spec, 60, 1010 + i)

    found = _bisect_half(frac, 0.90, 0.99, True)
    if found is None:
        return False, _no_bracket("spanning", frac, 0.90, 0.99)
    return True, f"critical filter fidelity = {0.5 * sum(found):.3f}"


def check_punchout_threshold() -> tuple[bool, str]:
    @functools.cache
    def frac(eps, i):
        spec = WaferSpec(12, 6, 50, fusion_params=_BOOSTED, photon_loss=eps)
        return _spanning_fraction(spec, 60, 1020 + i, punched=True)

    found = _bisect_half(frac, 0.005, 0.08, False)
    if found is None:
        return False, _no_bracket("recovered spanning", frac, 0.005, 0.08)
    return True, f"recovered-spanning loss threshold = {0.5 * sum(found):.4f}"


def check_dtp() -> tuple[bool, str]:
    trials = 100_000
    vals = {}
    for K, stated in ((5, 0.67232), (6, 0.73786)):
        closed = herald_success_prob(0.2, K)
        if abs(closed - stated) > 5e-6:
            return False, f"closed form K={K}: {closed} vs {stated}"
        rng = trial_rng(1012, K)
        emits = bernoulli(rng, (trials, K), 0.2)
        mc = emits.any(axis=1).mean()
        sigma = math.sqrt(closed * (1 - closed) / trials)
        if abs(mc - closed) > 3 * sigma:
            return False, f"MC K={K}: {mc} vs {closed}"
        vals[K] = closed
    ok = all(2 / 3 - 0.01 < v < 3 / 4 + 0.01 for v in vals.values())
    return ok, f"K=5: {vals[5]:.5f}, K=6: {vals[6]:.5f} (MC within 3s)"


def check_extinction() -> tuple[bool, str]:
    a = extinction_to_z_error(-50.0)
    b = extinction_to_z_error(-65.0)
    ok = a == 1e-5 and abs(b - 3.162e-7) / 3.162e-7 < 1e-3
    return ok, f"-50 dB -> {a}, -65 dB -> {b:.4e}"


def check_resource_report() -> tuple[bool, str]:
    spec = WaferSpec(1, 1, 1, fusion_params=_BOOSTED)
    lat = build_wafer(spec, rng=trial_rng(1014, 0))
    rep = lat.resource_report
    no_anc = rep["photons_per_computational_no_ancilla"]
    with_anc = rep["photons_per_computational_with_ancilla"]
    # each photon passes a small, constant number of components
    depth = optical_depth_report()["max"]
    ok = no_anc == 9 and with_anc <= 20 and depth <= 12
    return ok, (
        f"photons per computational qubit: {no_anc} bare, {with_anc} with"
        f" ancillas; optical depth at most {depth} components"
    )


def check_gadgets() -> tuple[bool, str]:
    rng = run_rng(1015)
    s_ok = [verify_s_gadget(L, rng) for L in (1, 2, 3)]
    r_ok = [verify_ring_block_equivalence(L, rng) for L in (2, 3, 4)]
    ok = all(s_ok) and all(r_ok)
    return ok, f"phase gadget L=1..3: {s_ok}; ring block L=2..4: {r_ok}"


def pathfinding_trial(trial: int) -> int:
    spec = WaferSpec(12, 6, 600, fusion_params=_BOOSTED)
    lat = build_wafer(spec, rng=trial_rng(1016, trial))
    state = find_paths_windowed(lat, window=15, wires=1)
    return sustained_layers(state)


def check_pathfinding() -> tuple[bool, str]:
    trials = 100
    sustained = [pathfinding_trial(t) for t in range(trials)]
    good = sum(s >= 500 for s in sustained)
    ok = good >= 0.95 * trials
    return ok, (
        f"{good}/{trials} trials sustained >= 500 layers "
        f"(min {min(sustained)}, max {max(sustained)})"
    )


def check_determinism() -> tuple[bool, str]:
    """Same config at 1 vs 8 workers must give byte-identical outputs."""
    configs = [
        {"scenario": "mux-yield", "trials": 16, "params": {"bins": 400}},
        {"scenario": "wafer-span", "trials": 16, "params": {"nz": 10}},
        {"scenario": "crazy-teleport", "trials": 16, "params": {"batch": 200}},
        {"scenario": "loss-sweep", "trials": 8, "params": {"nz": 10}},
        {"scenario": "threshold-scan", "trials": 8, "params": {"n": 32}},
    ]
    for base in configs:
        digests = []
        for threads in (1, 8):
            with tempfile.TemporaryDirectory() as tmp:
                cfg = validate_config(
                    {
                        "version": CONFIG_VERSION,
                        "seed": 123,
                        "out": tmp,
                        "threads": threads,
                        **base,
                    }
                )
                paths = run_experiment(cfg)
                h = hashlib.sha256()
                for key in ("results", "summary"):
                    with open(paths[key], "rb") as f:
                        h.update(f.read())
                digests.append(h.hexdigest())
        if digests[0] != digests[1]:
            return False, f"scenario {base['scenario']}: outputs differ across parallelism"
    return True, f"{len(configs)} scenarios byte-identical at 1 vs 8 workers"


CHECKS = [
    (1, "balanced-beamsplitter coincidence suppression", check_hom),
    (2, "fusion success probability via photon-level oracle", check_fusion_oracle),
    (3, "sparse engine vs dense oracle fuzz", check_engine_fuzz),
    (4, "multiplexed block success closed form vs MC", check_mux_block_mc),
    (5, "pair-yield curve values and dominance", check_yield_curve),
    (6, "encoded-wire success law", check_crazy_graph_law),
    (7, "majority-vote flip rate", check_majority_vote),
    (8, "square-lattice bond threshold", check_bond_threshold),
    (9, "wafer z-spanning", check_wafer_spanning),
    (10, "filter critical fidelity", check_filter_critical),
    (11, "punch-out loss threshold", check_punchout_threshold),
    (12, "cascaded-source delivery probability", check_dtp),
    (13, "extinction-ratio error mapping", check_extinction),
    (14, "per-qubit photon resource counts", check_resource_report),
    (15, "phase gadget and ring-block equivalence", check_gadgets),
    (16, "windowed pathfinding sustained layers", check_pathfinding),
    (17, "parallelism-independent outputs", check_determinism),
]


def run_all(criteria=None) -> list[CheckResult]:
    results = []
    for num, name, fn in CHECKS:
        if criteria is not None and num not in criteria:
            continue
        t0 = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:  # surface, don't hide, broken checks
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            CheckResult(num, name, bool(passed), details, time.perf_counter() - t0)
        )
    return results
