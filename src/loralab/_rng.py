"""Counter-based deterministic random numbers.

The generator is SplitMix64 run in counter mode: output ``k`` of the stream
named by ``seed`` is

    mix64((seed + (k + 1) * GAMMA) mod 2**64)

where GAMMA = 0x9E3779B97F4A7C15 and ``mix64`` is the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2**64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2**64)
    z ^= z >> 31

This is equivalent to calling the classic sequential SplitMix64 ``next()``
starting from state ``seed``, but any output index can be produced directly,
so independent callers never share hidden state.

Uniform doubles take the top 53 bits of an output: u = (z >> 11) * 2**-53,
giving values in [0, 1). Gaussians use the Box-Muller transform on counter
pairs (2k, 2k+1); the first uniform is shifted into (0, 1] so log() is safe:

    u1 = ((z_{2k} >> 11) + 1) * 2**-53
    u2 = (z_{2k+1} >> 11) * 2**-53
    g_{2k}   = sqrt(-2 ln u1) * cos(2 pi u2)
    g_{2k+1} = sqrt(-2 ln u1) * sin(2 pi u2)

Sub-streams are derived from a user seed and a short ASCII label:
``derive_seed(seed, label) = mix64(seed XOR fnv1a64(label))``.

Integer outputs are bit-portable across platforms; Gaussian values depend on
the platform's libm rounding in the last couple of ulps.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

SEED_RULE = "not an unsigned 64-bit integer"  # check_seed's wording, which parse_seed reuses
_TWO53 = 2.0 ** -53
_PAIR_BLOCK = 1 << 15  # Gaussian pairs per pass of gaussian_block


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


def raw64(seed: int, counter: int) -> int:
    """Output ``counter`` of stream ``seed`` (scalar reference path)."""
    return mix64((seed + (counter + 1) * GAMMA) & MASK64)


def uniform(seed: int, counter: int) -> float:
    """Uniform double in [0, 1) from one output."""
    return (raw64(seed, counter) >> 11) * _TWO53


def gaussian_pair(seed: int, pair_index: int) -> tuple[float, float]:
    """Scalar Box-Muller reference for outputs (2k, 2k+1)."""
    z1 = raw64(seed, 2 * pair_index)
    z2 = raw64(seed, 2 * pair_index + 1)
    u1 = ((z1 >> 11) + 1) * _TWO53
    u2 = (z2 >> 11) * _TWO53
    radius = math.sqrt(-2.0 * math.log(u1))
    angle = 2.0 * math.pi * u2
    return radius * math.cos(angle), radius * math.sin(angle)


def fnv1a64(label: str) -> int:
    """FNV-1a hash of an ASCII label, used only for sub-stream derivation."""
    h = _FNV_OFFSET
    for byte in label.encode("ascii"):
        h ^= byte
        h = (h * _FNV_PRIME) & MASK64
    return h


def check_seed(seed: int) -> int:
    """``seed`` itself if it fits the generator's 64 bits, which would wrap
    any other integer; otherwise a ValueError that names it."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed {seed} is {SEED_RULE}")
    return seed


def derive_seed(seed: int, label: str) -> int:
    """Deterministic sub-stream seed for ``label`` under a master seed."""
    return mix64(check_seed(seed) ^ fnv1a64(label))


def raw64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized outputs [start, start + count) of stream ``seed``."""
    counters = np.arange(start + 1, start + 1 + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(check_seed(seed)) + counters * np.uint64(GAMMA)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    return (raw64_block(seed, start, count) >> np.uint64(11)).astype(np.float64) * _TWO53


def gaussian_block(n: int, seed: int) -> np.ndarray:
    """n standard normals, filled in output order from counter 0.

    Pairs are drawn ``_PAIR_BLOCK`` at a time, so the temporaries stay small
    whatever n is; every value is the one a single full-length pass gives.
    """
    pairs = (n + 1) // 2
    out = np.empty(2 * pairs, dtype=np.float64)
    for start in range(0, pairs, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, pairs)
        z = raw64_block(seed, 2 * start, 2 * (stop - start))
        u1 = (z[0::2] >> np.uint64(11)).astype(np.float64)
        u1 += 1.0
        u1 *= _TWO53
        radius = np.log(u1, out=u1)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = (z[1::2] >> np.uint64(11)).astype(np.float64)
        angle *= _TWO53
        angle *= 2.0 * math.pi
        even, odd = out[2 * start:2 * stop:2], out[2 * start + 1:2 * stop:2]
        np.cos(angle, out=even)
        even *= radius
        np.sin(angle, out=odd)
        odd *= radius
    return out[:n]


def randint_block(n: int, bound: int, seed: int, start: int = 0) -> np.ndarray:
    """n integers uniform on [0, bound), via floor(u * bound)."""
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    u = uniform_block(seed, start, n)
    return np.minimum((u * bound).astype(np.int64), bound - 1)
