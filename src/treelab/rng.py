"""Counter-based splittable randomness.

Every keyed draw in this package is a pure function of a 64-bit key and a
counter, in the counter-based design of Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC'11).  The counters of one draw are a step-1
`range` of ids in [0, 2**64): in the BFS layout every set of vertices a draw
covers (the non-root ids, one level, one child group) is such a range.
Samples are therefore independent of traversal order, chunking, and worker
count, and any single replicate can be regenerated in isolation.  The mixer
is the splitmix64 finalizer, which has full avalanche and is the standard
choice for stateless keyed streams.  Walk steps are keyed too, by (seed,
walk, step) in blocks of steps (`rwre._walk_streams`).  Only the trials of a
homogeneous percolation chain use `generator`, a PCG64 stream per trial
seeded from `derive`, so they too are reproducible and independent of
worker count.

`_prefinal_chunks` hashes a range a fixed-size chunk at a time with in-place
operations on reused scratch arrays, so no temporary grows with the number of
draws.  The prologue (c + 1) * golden + key over a chunk is one pass: a
read-only table of i * golden plus one constant per chunk, with wrapping
uint64 arithmetic.  It stops one step short of the hash: it yields the state
z after the second multiply, and the hash is z ^ (z >> 31).  Since z >> 31
is zero in its top 31 bits, the top 31 bits of the hash are z's, so a reader
of at most that many top bits (a guide-table bucket of a gap-0 law in
`Distribution.sample_values`, at most 16 bits) skips the final xor-shift.
`mantissa_chunks` finishes each chunk into the 53-bit mantissas m = hash >>
11, and `uniforms` returns u = m * 2**-53.  Because u = m * 2**-53 exactly,
a comparison u >= w against a double w in [0, 1] holds exactly when m >=
ceil(w * 2**53): inverse-CDF sampling compares integers and never forms u.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1_INT, _MIX2_INT = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MIX1, _MIX2 = np.uint64(_MIX1_INT), np.uint64(_MIX2_INT)

MANTISSA_BITS = 53
CHUNK = 1 << 16  # draws per kernel pass; every scratch array stays in cache


def _finalize(z: int) -> int:
    """splitmix64 finalizer on a Python int, wrapped to 64 bits."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


@functools.cache
def _steps() -> np.ndarray:
    """i * golden for i < CHUNK, the prologue table: one read-only table per
    process, made on the first draw and filled in place (threads drawing
    first at once may each make it, with the same values)."""
    steps = np.arange(CHUNK, dtype=np.uint64)
    steps *= _GOLDEN
    steps.flags.writeable = False
    return steps


def _counter_count(counters) -> int:
    """The number of counters in a step-1 range in [0, 2**64)."""
    if not isinstance(counters, range):
        raise TypeError("counters must be a step-1 range of ids, "
                        f"not {type(counters).__name__}")
    if counters.step != 1 or (counters and (counters.start < 0
                                            or counters.stop > _MASK64 + 1)):
        raise ValueError("a counter range must have step 1 and lie in [0, 2**64)")
    return len(counters)


def _prefinal_chunks(key: int, counters: range):
    """Yield (slice, z, scratch) over CHUNK-sized pieces of `counters`, a
    step-1 range: z is the splitmix64 state of key + (c + 1) * golden after
    its second multiply, as uint64, so the hash is z ^ (z >> 31).

    z and scratch, of equal length, are reused buffers, valid only until the
    next step; the caller may overwrite both.
    """
    n = _counter_count(counters)
    z = np.empty(min(n, CHUNK), dtype=np.uint64)
    t = np.empty_like(z)
    k = int(key) & _MASK64
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        zc, tc = z[:hi - lo], t[:hi - lo]
        # (start + lo + i + 1) * golden + key = i * golden + this constant
        base = ((counters.start + lo + 1) * _GOLDEN_INT + k) & _MASK64
        np.add(_steps()[:hi - lo], np.uint64(base), out=zc)
        for s, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zc, s, out=tc)
            np.bitwise_xor(zc, tc, out=zc)
            np.multiply(zc, mix, out=zc)
        yield slice(lo, hi), zc, tc


def mantissa_chunks(key: int, counters: range):
    """Yield (slice, m) over CHUNK-sized pieces of `counters`, a step-1
    range, with m = splitmix64(key + (c + 1) * golden) >> 11 as int64.

    Each m is a reused scratch buffer (0 <= m < 2**53), valid only until the
    next step.
    """
    for sl, z, t in _prefinal_chunks(key, counters):
        np.right_shift(z, 31, out=t)
        np.bitwise_xor(z, t, out=z)
        np.right_shift(z, 64 - MANTISSA_BITS, out=z)
        yield sl, z.view(np.int64)


def uniforms(key: int, counters: range) -> np.ndarray:
    """Uniform doubles in [0, 1), one per counter of a step-1 range,
    reproducible by (key, counter)."""
    out = np.empty(_counter_count(counters))
    for sl, m in mantissa_chunks(key, counters):
        np.multiply(m, 2.0 ** -MANTISSA_BITS, out=out[sl])
    return out


def derive(key: int, *tags: int) -> int:
    """Derive an independent subkey from a key and integer tags.

    Used to split one user-facing seed into streams for distinct purposes
    (edge values, walk steps, replicate indices) without correlation.
    """
    k = int(key) & _MASK64
    for t in tags:
        k = _finalize(((k ^ _finalize(int(t) & _MASK64)) + _GOLDEN_INT) & _MASK64)
    return k


def generator(key: int, *tags: int) -> np.random.Generator:
    """A numpy Generator seeded from (key, tags); for sequential sampling."""
    return np.random.Generator(np.random.PCG64(derive(key, *tags)))
