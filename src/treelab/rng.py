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
draws.  `mantissa_chunks` yields its 53-bit mantissas m = hash_u64(key, c) >>
11 chunk by chunk; `hash_u64` (before the shift) and `uniforms`
(u = m * 2**-53) are whole-array views of it.  Because u = m * 2**-53
exactly, a comparison u >= w against a double w in [0, 1] holds exactly when
m >= ceil(w * 2**53): inverse-CDF sampling (`Distribution.sample_values`)
compares integers and never forms u.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)

MANTISSA_BITS = 53
CHUNK = 1 << 16  # draws per kernel pass; every scratch array stays in cache


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 scalars or arrays (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _hash_chunks(key: int, counters: np.ndarray, shift: int):
    """Yield (slice, hash >> shift) over CHUNK-sized pieces of 1-D `counters`.

    The yielded array is a reused scratch buffer, valid until the next step.
    """
    n = counters.size
    z = np.empty(min(n, CHUNK), dtype=np.uint64)
    t = np.empty_like(z)
    k = np.uint64(key & _MASK64)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        zc, tc = z[:hi - lo], t[:hi - lo]
        np.add(counters[lo:hi], _ONE, out=zc)
        np.multiply(zc, _GOLDEN, out=zc)
        np.add(zc, k, out=zc)
        for s, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zc, s, out=tc)
            np.bitwise_xor(zc, tc, out=zc)
            np.multiply(zc, mix, out=zc)
        np.right_shift(zc, 31, out=tc)
        np.bitwise_xor(zc, tc, out=zc)
        if shift:
            np.right_shift(zc, shift, out=zc)
        yield slice(lo, hi), zc


def mantissa_chunks(key: int, counters: np.ndarray):
    """Yield (slice, m) with m = hash_u64(key, counters[slice]) >> 11 as int64.

    `counters` must be a 1-D uint64 array.  Each m is a reused scratch buffer
    (0 <= m < 2**53), valid only until the next step.
    """
    for sl, z in _hash_chunks(key, counters, 64 - MANTISSA_BITS):
        yield sl, z.view(np.int64)


def _map_chunks(key: int, counter, shift: int, dtype, scale=None) -> np.ndarray:
    c = np.asarray(counter, dtype=np.uint64)
    out = np.empty(c.shape, dtype=dtype)
    flat = out.reshape(-1)
    for sl, z in _hash_chunks(key, c.reshape(-1), shift):
        if scale is None:
            flat[sl] = z
        else:
            np.multiply(z, scale, out=flat[sl])
    return out if out.ndim else out[()]


def hash_u64(key: int, counter) -> np.ndarray:
    """Hash (key, counter) pairs to uint64.  `counter` may be a scalar or array."""
    return _map_chunks(key, counter, 0, np.uint64)


def uniforms(key: int, counter) -> np.ndarray:
    """Uniform doubles in [0, 1), one per counter, reproducible by (key, counter)."""
    return _map_chunks(key, counter, 64 - MANTISSA_BITS, np.float64,
                       2.0 ** -MANTISSA_BITS)


def derive(key: int, *tags: int) -> int:
    """Derive an independent subkey from a key and integer tags.

    Used to split one user-facing seed into streams for distinct purposes
    (edge values, walk steps, replicate indices) without correlation.
    """
    k = np.uint64(key & _MASK64)
    for t in tags:
        with np.errstate(over="ignore"):
            k = _finalize((k ^ _finalize(np.uint64(t & _MASK64))) + _GOLDEN)
    return int(k)


def generator(key: int, *tags: int) -> np.random.Generator:
    """A numpy Generator seeded from (key, tags); for sequential sampling."""
    return np.random.Generator(np.random.PCG64(derive(key, *tags)))
