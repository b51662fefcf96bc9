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


# Words per raw draw when a large array is filled: 256 KB of uint64 at a time.
CHUNK = 1 << 15


def bernoulli(gen: np.random.Generator, shape, p: float) -> np.ndarray:
    """`gen.random(shape) < p`, with the same array and stream position.

    A Philox stream is compared on its raw 64-bit words.  Its `random()` is
    `(word >> 11) * 2^-53`, so `random() < p` is `word < ceil(p * 2^53) <<
    11`; both read whole words and leave a spare 32-bit half word alone.  A
    draw of more than CHUNK words fills its bool array one chunk at a time,
    so it holds 1 B per draw and one chunk of words, not 8 B per draw of
    float64 uniforms.

    Outside 0 < p < 1 every comparison has a fixed outcome, so a Philox
    stream is moved past the uniforms instead of sampling them: each
    uniform consumes one 64-bit word, and the counter advances in O(1) by
    whole blocks of words.  Other bit generators, and a Philox holding a
    spare 32-bit half word (which `advance` would discard), are sampled.
    """
    bitgen = gen.bit_generator
    if not isinstance(bitgen, np.random.Philox):
        return gen.random(shape) < p
    words = 1
    for n in shape if isinstance(shape, tuple) else (shape,):
        words *= n
    if 0.0 < p < 1.0:
        limit = -int(-p * 2.0**53 // 1) << 11  # ceil(p * 2^53) << 11
        if words <= CHUNK:
            return bitgen.random_raw(shape) < limit
        flat = np.empty(words, dtype=bool)
        for lo in range(0, words, CHUNK):
            hi = min(lo + CHUNK, words)
            np.less(bitgen.random_raw(hi - lo), limit, out=flat[lo:hi])
        return flat.reshape(shape)
    state = bitgen.state
    if state["has_uint32"]:
        return gen.random(shape) < p
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
