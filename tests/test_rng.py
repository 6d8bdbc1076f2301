import warnings

import numpy as np
import pytest

from m4extremes import LatticePoint, simulate_m4
from m4extremes.rng import GOLDEN_GAMMA, frechet_block, mix64, substream, uniform_block

U64 = (1 << 64) - 1


def reference_mix(x: int) -> int:
    """Textbook SplitMix64 finalizer, written independently of rng.mix64."""
    z = x & U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64
    return z ^ (z >> 31)


def test_mix64_known_values():
    # first output of the published SplitMix64 stream seeded with 0
    assert mix64(GOLDEN_GAMMA) == 0xE220A8397B1DCDAF
    assert mix64(1) == 0x5692161D100B05E5
    assert mix64(2**64 - 1) == 0xB4D055FCF2CBBD7B


def test_mix64_matches_reference():
    for x in (0, 1, 12345, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert mix64(x) == reference_mix(x)


def test_uniforms_match_scalar_path():
    seed = 987654321
    block = uniform_block(seed, 5, 16)
    for offset, got in enumerate(block):
        raw = reference_mix((seed + (5 + offset + 1) * GOLDEN_GAMMA) & U64)
        expected = min(((raw >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)
        assert got == expected


def test_uniforms_open_interval_and_pinned():
    u = uniform_block(0, 0, 4)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert u.tolist() == [
        0.8833108082136427,
        0.43152799704851,
        0.0264337715925978,
        0.9708819781538285,
    ]


def unmix(out: int) -> int:
    """The input that `mix64` maps to `out`: each xor-shift undone, each multiply
    undone by its constant's inverse mod 2**64."""
    def unshift(z, shift):
        x = z
        for _ in range(64 // shift):  # each pass fixes `shift` more top bits
            x = z ^ (x >> shift)
        return x

    z = unshift(out, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & U64, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & U64, 30)


# draw 0 of this seed is out = 2**64 - 1, whose top 53 bits k = 2**53 - 1 give
# fl(k + 0.5) = 2**53: a uniform of 1.0 and a Fréchet draw of -inf, unless clamped
TOP_SEED = (unmix(U64) - GOLDEN_GAMMA) & U64


def test_top_draw_stays_below_one():
    assert mix64((TOP_SEED + GOLDEN_GAMMA) & U64) == U64
    assert TOP_SEED == 3558559446808474027
    u = uniform_block(TOP_SEED, 0, 3)
    assert u[0] == 1.0 - 2.0**-53 and np.all((0.0 < u) & (u < 1.0))
    z = frechet_block(TOP_SEED, 0, 1)[0]
    assert np.isfinite(z) and z > 0  # -1 / log(1 - 2**-53), about 2**53
    assert z == pytest.approx(2.0**53, rel=1e-6)


def test_top_draw_simulates_under_the_error_filter(one_pattern_spec):
    points = [LatticePoint(3, 3), LatticePoint(4, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = simulate_m4(one_pattern_spec, points, 2, TOP_SEED).values
    # replicate 0 holds the top draw in its first slot, which both locations weight
    assert np.all(np.isfinite(values)) and np.all(values[0] > 1e15)


def test_uniforms_chunk_invariant():
    whole = uniform_block(42, 0, 100)
    pieces = np.concatenate([uniform_block(42, 0, 37), uniform_block(42, 37, 63)])
    assert np.array_equal(whole, pieces)


def test_frechet_block_is_the_inline_transform_in_any_chunking():
    # draws 0 .. 2 x 10^6 - 1 of seed 1, of which 5901 Fréchet values take other last
    # bits where numpy's log dispatches to another loop (README)
    n = 2 * 10**6
    u = uniform_block(1, 0, n)
    inline = np.divide(-1.0, np.log(u, out=u), out=u)
    whole = frechet_block(1, 0, n)
    assert whole.tobytes() == inline.tobytes()
    for cuts in (range(0, n, 1 << 16), [0, 7, 4099, 999_983, 1_000_001, n - 1]):
        edges = [*cuts, n]
        chunks = [frechet_block(1, a, b - a) for a, b in zip(edges, edges[1:])]
        assert np.concatenate(chunks).tobytes() == whole.tobytes()


def test_uniforms_seed_sensitivity():
    assert not np.array_equal(uniform_block(1, 0, 8), uniform_block(2, 0, 8))


def test_substream_deterministic_and_distinct():
    assert substream(0, 0) == 9370218965779684112
    assert substream(0, 1) == 7792259576135971849
    assert substream(123, 7) == 11952924405258345801
    streams = {substream(99, k) for k in range(1000)}
    assert len(streams) == 1000
    assert all(0 <= s <= U64 for s in streams)


def test_negative_seed_wraps():
    assert np.array_equal(uniform_block(-1, 0, 4), uniform_block(U64, 0, 4))


def test_negative_count_rejected():
    with pytest.raises(ValueError, match="^count must be non-negative$"):
        uniform_block(1, 0, -1)
