"""Counter-based splittable random streams for reproducible Monte Carlo.

Trial i's stream is a pure function of (seed, i): parallel runs produce
byte-identical results regardless of how trials are scheduled.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial, keyed by (seed, trial)."""
    key = np.array(
        [int(seed) & _MASK64, int(trial) & _MASK64], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def run_rng(seed: int) -> np.random.Generator:
    """Generator for non-trial (run-level) sampling."""
    return trial_rng(seed, _MASK64)


def bernoulli(gen: np.random.Generator, shape, p: float) -> np.ndarray:
    """`gen.random(shape) < p`, with the same array and stream position.

    Outside 0 < p < 1 every comparison has a fixed outcome, so a Philox
    stream is moved past the uniforms instead of sampling them: each
    uniform consumes one 64-bit word, and the counter advances in O(1) by
    whole blocks of words.  Other bit generators, and a Philox holding a
    spare 32-bit half word (which `advance` would discard), are sampled.
    """
    bitgen = gen.bit_generator
    if 0.0 < p < 1.0 or not isinstance(bitgen, np.random.Philox):
        return gen.random(shape) < p
    state = bitgen.state
    if state["has_uint32"]:
        return gen.random(shape) < p
    words = int(np.prod(shape, dtype=np.int64))
    block = len(state["buffer"])
    # finish the buffered block, skip whole blocks, start the next one
    head = min(words, block - state["buffer_pos"])
    steps, tail = divmod(words - head, block)
    if head:
        bitgen.random_raw(head)
    if steps:
        bitgen.advance(steps)
    if tail:
        bitgen.random_raw(tail)
    return np.full(shape, p >= 1)
