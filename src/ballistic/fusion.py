"""Boosted Type-II fusion: its success probability and ancilla cost.

A fusion is a destructive two-photon measurement that either succeeds or
fails, and says which; the builder draws each outcome with the success
probability.  Photon loss is a separate per-photon draw made by the
builder.  The interferometric justification of the success probability
lives in the fock module; here it is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpecError

# Ancilla photons a boosted fusion consumes per attempt.
ANCILLA_COST = 2


@dataclass(frozen=True)
class FusionParams:
    # always "BoostedTypeII": the field stays only because the benchmark's
    # workloads (`perfbench/workloads.py`) pass `kind=`
    kind: str
    success_prob: float

    def __post_init__(self):
        # success_prob sets every fusion outcome, so another kind would
        # change nothing but its name
        if self.kind != "BoostedTypeII":
            raise SpecError(
                f"fusion_kind must stay 'BoostedTypeII', got {self.kind!r}; "
                "vary success_prob instead"
            )
        if not 0.0 <= self.success_prob <= 1.0:
            raise SpecError("success_prob outside [0, 1]")
