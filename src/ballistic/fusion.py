"""Graph-level heralded Type-II fusion of photonic cluster fragments.

A fusion is a destructive two-photon measurement that either succeeds or
fails, and says which.  At the graph level a success joins the
neighbourhoods of the two consumed photons (biadjacency complement); a
failure Z-measures both photons out.  Photon loss is a separate per-photon
draw made by the builder.  The interferometric justification of the
success probability lives in the fock module; here it is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import SpecError
from .graphstate import GraphRegister

KINDS = ("TypeII", "BoostedTypeII")
_DEFAULT_SUCCESS = {"TypeII": 0.5, "BoostedTypeII": 0.75}
# Ancilla photons a boosted fusion consumes per attempt.
ANCILLA_COST = 2


@dataclass(frozen=True)
class FusionParams:
    kind: str = "TypeII"
    success_prob: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown fusion kind {self.kind!r}")
        if self.success_prob is None:
            object.__setattr__(
                self, "success_prob", _DEFAULT_SUCCESS[self.kind]
            )
        if not 0.0 <= self.success_prob <= 1.0:
            raise SpecError("success_prob outside [0, 1]")

    @property
    def ancillas_per_fusion(self) -> int:
        """Ancilla photons consumed per attempt (boosting only)."""
        return ANCILLA_COST if self.kind == "BoostedTypeII" else 0


def fuse(reg: GraphRegister, a: int, b: int, success: bool, rng) -> None:
    """Fuse photons `a` and `b` in place, with the heralded outcome `success`.

    Both photons are Z-measured, `a` first; on success every edge between
    N(a)\\{b} and N(b)\\{a} is then toggled.
    """
    if a == b:
        raise SpecError("fusion needs two distinct photons")
    na = [v for v in reg.neighbors(a) if v != b]
    nb = [v for v in reg.neighbors(b) if v != a]
    reg.measure_pauli(a, "Z", rng)
    reg.measure_pauli(b, "Z", rng)
    if success:
        for u, v in product(na, nb):
            if u != v and reg.is_alive(u) and reg.is_alive(v):
                reg.toggle_edge(u, v)
