"""Counter-based splittable randomness.

Every random quantity in this package is a pure function of a 64-bit key and
a counter (usually a vertex id or a replicate index), in the counter-based
design of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC'11).  Samples are therefore independent of traversal order, chunking, and
worker count, and any single replicate can be regenerated in isolation.  The
mixer is the splitmix64 finalizer, which has full avalanche and is the
standard choice for stateless keyed streams.

One kernel hashes counters a fixed-size chunk at a time with in-place
operations on reused scratch arrays, so no temporary grows with the number of
draws.  Counters are a uint64 array or a step-1 `range`; for a range the
prologue (c + 1) * golden + key is one pass, a read-only table of i * golden
plus one constant per chunk, with the same wrapping uint64 arithmetic.
`mantissa_chunks` yields its 53-bit mantissas m = hash_u64(key, c) >>
11 chunk by chunk; `hash_u64` (before the shift) and `uniforms`
(u = m * 2**-53) are whole-array views of it.  Because u = m * 2**-53
exactly, a comparison u >= w against a double w in [0, 1] holds exactly when
m >= ceil(w * 2**53): inverse-CDF sampling (`Distribution.sample_values`)
compares integers and never forms u.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1_INT, _MIX2_INT = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MIX1, _MIX2 = np.uint64(_MIX1_INT), np.uint64(_MIX2_INT)
_ONE = np.uint64(1)

MANTISSA_BITS = 53
CHUNK = 1 << 16  # draws per kernel pass; every scratch array stays in cache


def _finalize(z: int) -> int:
    """splitmix64 finalizer on a Python int, wrapped to 64 bits."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


@functools.cache
def _steps() -> np.ndarray:
    """i * golden for i < CHUNK, the counter-range prologue: one read-only
    table per process, made on the first range draw and filled in place
    (threads drawing first at once may each make it, with the same values)."""
    steps = np.arange(CHUNK, dtype=np.uint64)
    steps *= _GOLDEN
    steps.flags.writeable = False
    return steps


def _counter_count(counters) -> int:
    """The number of counters: a 1-D uint64 array or a step-1 range in
    [0, 2**64)."""
    if not isinstance(counters, range):
        return counters.size
    if counters.step != 1 or (counters and (counters.start < 0
                                            or counters.stop > _MASK64 + 1)):
        raise ValueError("a counter range must have step 1 and lie in [0, 2**64)")
    return len(counters)


def _hash_chunks(key: int, counters, shift: int):
    """Yield (slice, hash >> shift) over CHUNK-sized pieces of `counters`, a
    1-D uint64 array or a step-1 range.

    The yielded array is a reused scratch buffer, valid until the next step.
    """
    n = _counter_count(counters)
    z = np.empty(min(n, CHUNK), dtype=np.uint64)
    t = np.empty_like(z)
    k = int(key) & _MASK64
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        zc, tc = z[:hi - lo], t[:hi - lo]
        if isinstance(counters, range):
            # (start + lo + i + 1) * golden + key = i * golden + this constant
            base = ((counters.start + lo + 1) * _GOLDEN_INT + k) & _MASK64
            np.add(_steps()[:hi - lo], np.uint64(base), out=zc)
        else:
            np.add(counters[lo:hi], _ONE, out=zc)
            np.multiply(zc, _GOLDEN, out=zc)
            np.add(zc, np.uint64(k), out=zc)
        for s, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zc, s, out=tc)
            np.bitwise_xor(zc, tc, out=zc)
            np.multiply(zc, mix, out=zc)
        np.right_shift(zc, 31, out=tc)
        np.bitwise_xor(zc, tc, out=zc)
        if shift:
            np.right_shift(zc, shift, out=zc)
        yield slice(lo, hi), zc


def mantissa_chunks(key: int, counters):
    """Yield (slice, m) with m = hash_u64(key, counters[slice]) >> 11 as int64.

    `counters` must be a 1-D uint64 array or a step-1 range.  Each m is a
    reused scratch buffer (0 <= m < 2**53), valid only until the next step.
    """
    for sl, z in _hash_chunks(key, counters, 64 - MANTISSA_BITS):
        yield sl, z.view(np.int64)


def flat_counters(counters) -> tuple[range | np.ndarray, tuple]:
    """`counters` as the kernel takes them (a step-1 range as it is, anything
    else as a flat uint64 array) and the shape of the values drawn for them."""
    if isinstance(counters, range):
        return counters, (len(counters),)
    c = np.asarray(counters, dtype=np.uint64)
    return c.reshape(-1), c.shape


def _map_chunks(key: int, counter, shift: int, dtype, scale=None) -> np.ndarray:
    c, shape = flat_counters(counter)
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for sl, z in _hash_chunks(key, c, shift):
        if scale is None:
            flat[sl] = z
        else:
            np.multiply(z, scale, out=flat[sl])
    return out if out.ndim else out[()]


def hash_u64(key: int, counter) -> np.ndarray:
    """Hash (key, counter) pairs to uint64.  `counter` may be a scalar, an
    array or a step-1 range."""
    return _map_chunks(key, counter, 0, np.uint64)


def uniforms(key: int, counter) -> np.ndarray:
    """Uniform doubles in [0, 1), one per counter, reproducible by (key,
    counter).  `counter` may be a scalar, an array or a step-1 range."""
    return _map_chunks(key, counter, 64 - MANTISSA_BITS, np.float64,
                       2.0 ** -MANTISSA_BITS)


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
