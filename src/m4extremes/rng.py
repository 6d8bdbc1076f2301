"""Deterministic counter-mode pseudo-random numbers (SplitMix64).

Draw i of the stream keyed by a 64-bit seed is

    out(seed, i) = mix64((seed + (i + 1) * GOLDEN_GAMMA) mod 2**64)

where mix64 is the SplitMix64 finalizer (xor-shift/multiply avalanche,
constants from Steele, Lea & Flood's SplittableRandom).  Uniform variates
map the top 53 bits to the midpoint of a dyadic cell,

    u = ((out >> 11) + 0.5) * 2**-53,

so u lies strictly inside (0, 1); exact 0.0 and 1.0 cannot occur.  Because
out is a pure function of (seed, i), any block of the stream can be
generated independently, in any chunking, in any order, and the stream is the
same on every platform — which is what replicate-level parallelism and
reproducibility need.  Sample bits follow numpy's CPU dispatch in `frechet_block` alone.

Substreams for higher-level replication (one per Monte Carlo repetition)
are derived by hashing the substream index against a second Weyl constant;
the derived keys behave as independent seeds.
"""

from __future__ import annotations

from ._numpy import np

U64_MASK = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB
_STREAM_GAMMA = 0xD1B54A32D192ED03

_TO_UNIT = 2.0**-53


def mix64(value: int) -> int:
    """SplitMix64 finalizer (scalar reference implementation)."""
    z = value & U64_MASK
    z = ((z ^ (z >> 30)) * _MIX_MUL_1) & U64_MASK
    z = ((z ^ (z >> 27)) * _MIX_MUL_2) & U64_MASK
    return z ^ (z >> 31)


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws `start` .. `start + count - 1` of the stream keyed by `seed`.

    Returns float64 values in the open interval (0, 1).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN_GAMMA)
    z += np.uint64(seed & U64_MASK)
    shifted = np.empty_like(z)  # the one temporary: every step works in place
    for shift, multiplier in ((30, _MIX_MUL_1), (27, _MIX_MUL_2)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(multiplier)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    z >>= np.uint64(11)
    u = np.add(z, 0.5, out=z.view(np.float64))  # each draw becomes its float in place
    return np.multiply(u, _TO_UNIT, out=u)


def frechet_block(seed: int, start: int, count: int) -> np.ndarray:
    """Unit-Fréchet draws `-1 / log(u)` of `uniform_block(seed, start, count)`, in place."""
    u = uniform_block(seed, start, count)
    return np.divide(-1.0, np.log(u, out=u), out=u)


def substream(seed: int, index: int) -> int:
    """A 64-bit seed for substream `index` of the stream keyed by `seed`."""
    return mix64((seed + (index + 1) * _STREAM_GAMMA) & U64_MASK)
