"""Graph-level probabilistic fusion of photonic cluster fragments.

Fusions are destructive two-photon measurements. At the graph level a
successful Type-II fusion joins the neighborhoods of the two consumed
photons (biadjacency complement); failure Z-measures both photons out; an
undetected photon yields a loss herald. The interferometric justification
of the success probability lives in the fock module; here it is a
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import SpecError
from .graphstate import GraphRegister

KINDS = ("TypeI", "TypeII", "BoostedTypeII")
_DEFAULT_SUCCESS = {"TypeI": 0.5, "TypeII": 0.5, "BoostedTypeII": 0.75}

SUCCESS = "Success"
FAILURE = "Failure"
LOSS_HERALD = "LossHerald"


@dataclass(frozen=True)
class FusionParams:
    kind: str = "TypeII"
    success_prob: float | None = None
    transmission: float = 1.0
    ancilla_cost: int = 2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown fusion kind {self.kind!r}")
        if self.success_prob is None:
            object.__setattr__(
                self, "success_prob", _DEFAULT_SUCCESS[self.kind]
            )
        if not 0.0 <= self.success_prob <= 1.0:
            raise SpecError("success_prob outside [0, 1]")
        if not 0.0 <= self.transmission <= 1.0:
            raise SpecError("transmission outside [0, 1]")
        if self.ancilla_cost < 0:
            raise SpecError("ancilla_cost must be >= 0")

    @property
    def ancillas_per_fusion(self) -> int:
        """Ancilla photons consumed per attempt (boosting only)."""
        return self.ancilla_cost if self.kind == "BoostedTypeII" else 0


@dataclass(frozen=True)
class FusionOutcome:
    result: str
    consumed: tuple[int, ...]
    ancillas: int = 0


def fuse(
    reg: GraphRegister,
    a: int,
    b: int,
    params: FusionParams,
    rng,
    forced: str | None = None,
) -> FusionOutcome:
    """Attempt a fusion of photons `a` and `b` in place.

    Branches: with probability transmission**2 the two detectors click and
    the attempt resolves to Success (success_prob) or Failure; otherwise it
    is a LossHerald and both photons are dropped as lost.  `forced` pins the
    branch (used by deterministic tests and the multiplexed formation stage).
    """
    if a == b:
        raise SpecError("fusion needs two distinct photons")
    eta2 = params.transmission**2
    if forced is None:
        if rng.random() >= eta2:
            result = LOSS_HERALD
        elif rng.random() < params.success_prob:
            result = SUCCESS
        else:
            result = FAILURE
    else:
        if forced not in (SUCCESS, FAILURE, LOSS_HERALD):
            raise SpecError(f"unknown forced branch {forced!r}")
        result = forced

    ancillas = params.ancillas_per_fusion
    if result == LOSS_HERALD:
        reg.remove_lost(a)
        reg.remove_lost(b)
        return FusionOutcome(LOSS_HERALD, (a, b), ancillas)
    if result == FAILURE:
        reg.measure_pauli(a, "Z", rng)
        reg.measure_pauli(b, "Z", rng)
        return FusionOutcome(FAILURE, (a, b), ancillas)

    # Success.
    na = [v for v in reg.neighbors(a) if v != b]
    nb = [v for v in reg.neighbors(b) if v != a]
    if params.kind == "TypeI":
        reg.measure_pauli(b, "Z", rng)
        for v in nb:
            if reg.is_alive(v):
                reg.toggle_edge(a, v)
        return FusionOutcome(SUCCESS, (b,), ancillas)
    reg.measure_pauli(a, "Z", rng)
    reg.measure_pauli(b, "Z", rng)
    for u, v in product(na, nb):
        if u != v and reg.is_alive(u) and reg.is_alive(v):
            reg.toggle_edge(u, v)
    return FusionOutcome(SUCCESS, (a, b), ancillas)
