"""Heralded Type-II fusion: its kind, success probability and ancilla cost.

A fusion is a destructive two-photon measurement that either succeeds or
fails, and says which; the builder draws each outcome with the success
probability.  Photon loss is a separate per-photon draw made by the
builder.  The interferometric justification of the success probability
lives in the fock module; here it is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpecError

KINDS = ("TypeII", "BoostedTypeII")
# Ancilla photons a boosted fusion consumes per attempt.
ANCILLA_COST = 2


@dataclass(frozen=True)
class FusionParams:
    kind: str
    success_prob: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown fusion kind {self.kind!r}")
        if not 0.0 <= self.success_prob <= 1.0:
            raise SpecError("success_prob outside [0, 1]")

    @property
    def ancillas_per_fusion(self) -> int:
        """Ancilla photons consumed per attempt (boosting only)."""
        return ANCILLA_COST if self.kind == "BoostedTypeII" else 0
