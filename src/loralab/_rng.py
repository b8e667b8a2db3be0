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

Because any output can be drawn alone, ``gaussian_block`` shares its blocks
of ``_PAIR_BLOCK`` pairs among the calling thread and the helpers of a
``ThreadPoolExecutor`` made for the call, up to one thread per CPU the
process may run on (``run_parts``, which ``matcore.solve``,
``model.forward_pass`` and ``trainer.loss_and_grads`` use for their chunks
too, with OpenBLAS held to one thread while the pool runs); each value is
computed by the same operations whatever thread draws it, so the bytes do
not depend on the number of threads.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import os
import threading
from typing import Callable, Iterator, Sequence

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
    """``seed`` as a Python int if it is an integer that fits the generator's
    64 bits; otherwise a ValueError that names it (another integer would
    wrap, and a float would be truncated)."""
    if not (_is_int(seed) and 0 <= seed <= MASK64):
        raise ValueError(f"seed {seed!r} is {SEED_RULE}")
    return int(seed)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(name: str, value: int, low: int) -> None:
    """A ValueError that names ``value`` unless it is an integer (bool
    excluded) of at least ``low``: the rule for counts, starts, sizes and
    bounds."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


_SIGNS = {  # check_real's sign rules: (wording, test)
    None: ("finite", lambda value: True),
    "positive": ("positive and finite", lambda value: value > 0),
    "non-negative": ("finite and non-negative", lambda value: value >= 0),
}


def check_real(name: str, value: float, sign: str | None = None) -> None:
    """A ValueError that names ``value`` unless it is a real number (a Python
    or numpy one; bool and str excluded) that is finite and, with ``sign``
    "positive" or "non-negative", above or at least 0: the rule for scales
    and rates."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    rule, holds = _SIGNS[sign]
    try:
        ok = math.isfinite(value) and holds(value)
    except OverflowError:  # an int beyond float's range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value}")


def derive_seed(seed: int, label: str) -> int:
    """Deterministic sub-stream seed for ``label`` under a master seed."""
    return mix64(check_seed(seed) ^ fnv1a64(label))


def raw64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized outputs [start, start + count) of stream ``seed``."""
    seed = check_seed(seed)
    check_int("start", start, 0)
    check_int("count", count, 0)
    z = np.empty(count, dtype=np.uint64)
    _mix(z, np.empty_like(z), seed, start, np.arange(1, count + 1, dtype=np.uint64))
    return z


def _mix(z: np.ndarray, tmp: np.ndarray, seed: int, start: int, steps: np.ndarray) -> None:
    """Write outputs [start, start + z.size) into z, given steps = 1, 2, ...
    (at least z.size of them) and tmp, a scratch array of z's size.

    Output start + k - 1 mixes seed + (start + k) * GAMMA, that is
    (seed + start * GAMMA) + k * GAMMA (mod 2**64).
    """
    with np.errstate(over="ignore"):
        np.multiply(steps[:z.size], np.uint64(GAMMA), out=z)
        z += np.uint64((seed + start * GAMMA) & MASK64)
        np.right_shift(z, np.uint64(30), out=tmp)
        z ^= tmp
        z *= np.uint64(_MIX1)
        np.right_shift(z, np.uint64(27), out=tmp)
        z ^= tmp
        z *= np.uint64(_MIX2)
        np.right_shift(z, np.uint64(31), out=tmp)
        z ^= tmp


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    return (raw64_block(seed, start, count) >> np.uint64(11)).astype(np.float64) * _TWO53


def gaussian_block(n: int, seed: int, scale: tuple[float, float] | None = None) -> np.ndarray:
    """n standard normals, filled in output order from counter 0; with
    ``scale`` = (mean, std), each value g becomes g * std + mean (rounded
    after the product and after the sum) while its block is in cache.

    Pairs are drawn ``_PAIR_BLOCK`` at a time into buffers each worker
    allocates once, so the temporaries stay small whatever n is; every value
    is the one a single full-length pass gives. The blocks are independent,
    and ``run_parts`` shares them among the CPUs.
    """
    check_int("n", n, 0)
    seed = check_seed(seed)
    pairs = (n + 1) // 2
    out = np.empty(2 * pairs, dtype=np.float64)
    size = min(_PAIR_BLOCK, pairs)
    run_parts(range(-(-pairs // _PAIR_BLOCK)),
              lambda block, buffers: _fill(out, seed, block, buffers, scale),
              lambda worker: _fill_buffers(size))
    return out[:n]


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one, else the CPU count."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def run_parts(parts: Sequence, work: Callable[[object, object], object],
              workspace: Callable[[int], object],
              fold: Callable[[object], object] | None = None) -> None:
    """``fold(work(part, space))`` for every part, the folds in part order.

    With w = min(len(parts), ``usable_cpus()``), worker i makes its space
    ``workspace(i)`` once and takes parts i, i + w, ... in it. The calling
    thread is worker 0 and a ``ThreadPoolExecutor`` of w - 1 helpers runs
    the others; leaving the pool joins every helper, also when the caller's
    own parts fail. With w = 1 (one part, or one CPU) no pool is made. While
    the pool runs, OpenBLAS runs on one thread (``_one_blas_thread``).

    A worker that finishes a part folds every finished result whose earlier
    parts are all folded, so the folds run in part order whatever w is, one
    at a time, and no worker waits for another; a result is held only until
    the parts before it are folded. A worker stops at its first failing
    part, and the error raised is that of the lowest-indexed failing part,
    whichever worker finished first, so it is the same on any number of CPUs.
    """
    done: dict[int, object] = {}  # finished parts not yet folded: result or error
    folded = 0
    lock = threading.Lock()

    def share(first: int, step: int) -> None:
        nonlocal folded
        space = workspace(first)
        for index in range(first, len(parts), step):
            try:
                result = work(parts[index], space)
            except Exception as exc:
                result = exc
            with lock:
                done[index] = result
                while folded in done and not isinstance(done[folded], Exception):
                    ready = done.pop(folded)
                    if fold is not None:
                        fold(ready)
                    folded += 1
            if isinstance(result, Exception):
                return

    workers = min(len(parts), usable_cpus()) if len(parts) > 1 else 1
    if workers == 1:
        share(0, 1)
    else:
        # imported here: concurrent.futures loads logging (about 12 ms and
        # 0.7 MB), which a process of one-part calls never needs
        from concurrent.futures import ThreadPoolExecutor
        with _one_blas_thread(), ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(share, first, workers) for first in range(1, workers)]
            share(0, workers)
            for helper in helpers:
                helper.result()
    if folded < len(parts):  # every earlier part was folded, so this one failed
        raise done[folded]


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """OpenBLAS on one thread within, and on as many as before after.

    A pool of ``run_parts`` already keeps every usable CPU busy; an OpenBLAS
    that also splits each product among threads of its own oversubscribes
    them, and at its default of one thread per CPU a batch-256 training step
    ran at about 60% of its one-thread speed (``BENCH_chunk_budget.json``).
    A product has the same bits at any BLAS thread count, so no output
    changes; a LAPACK factorization does not (``matcore`` holds one thread
    around each of its calls for that reason). Where numpy's BLAS is not the
    OpenBLAS of its wheel, nothing is done.
    """
    blas = _openblas()
    threads = blas.scipy_openblas_get_num_threads64_() if blas else 1
    if threads > 1:
        blas.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        if threads > 1:
            blas.scipy_openblas_set_num_threads64_(threads)


@functools.cache
def _openblas():
    """The scipy-openblas64 bundled with numpy's wheel (in ``numpy.libs``),
    as a ``ctypes.CDLL`` whose thread-count getter and setter are typed, or
    None where there is none."""
    import ctypes
    import glob

    here = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(here, "..", "numpy.libs", "*openblas*"))):
        lib = ctypes.CDLL(os.path.realpath(path))  # the copy numpy loaded, not a second one
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return lib
    return None


def _fill_buffers(size: int) -> tuple[np.ndarray, ...]:
    """One worker's block buffers for ``_fill``, for blocks of up to ``size``
    pairs: the steps 1, 2, ... of ``_mix``, its output and scratch, and the
    radii and angles."""
    return (np.arange(1, 2 * size + 1, dtype=np.uint64), np.empty(2 * size, dtype=np.uint64),
            np.empty(2 * size, dtype=np.uint64), np.empty(size), np.empty(size))


def _fill(out: np.ndarray, seed: int, block: int, buffers: tuple[np.ndarray, ...],
          scale: tuple[float, float] | None) -> None:
    """Draw block ``block`` of out's pairs into out, through one worker's
    ``buffers`` (``_fill_buffers``)."""
    steps, z_buf, tmp_buf, radius_buf, angle_buf = buffers
    start = block * _PAIR_BLOCK
    count = min(_PAIR_BLOCK, out.size // 2 - start)
    z, tmp = z_buf[:2 * count], tmp_buf[:2 * count]
    radius, angle = radius_buf[:count], angle_buf[:count]
    _mix(z, tmp, seed, 2 * start, steps)
    bits = tmp[:count]  # the mix's scratch, free again
    np.right_shift(z[0::2], np.uint64(11), out=bits)
    radius[...] = bits
    radius += 1.0
    radius *= _TWO53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.right_shift(z[1::2], np.uint64(11), out=bits)
    angle[...] = bits
    angle *= _TWO53
    angle *= 2.0 * math.pi
    values = out[2 * start:2 * (start + count)]
    even, odd = values[0::2], values[1::2]
    np.cos(angle, out=even)
    even *= radius
    np.sin(angle, out=odd)
    odd *= radius
    if scale is not None:
        mean, std = scale
        values *= std
        values += mean


def randint_block(n: int, bound: int, seed: int, start: int = 0) -> np.ndarray:
    """n integers uniform on [0, bound), via floor(u * bound); bound is an
    integer in [1, 2**53], since above that u's 53 bits miss integers."""
    check_int("n", n, 0)
    check_seed(seed)
    check_int("start", start, 0)
    check_int("bound", bound, 1)
    if bound > 1 << 53:
        raise ValueError(f"bound must be <= 2**53, got {bound}")
    u = uniform_block(seed, start, n)
    return np.minimum((u * bound).astype(np.int64), bound - 1)
