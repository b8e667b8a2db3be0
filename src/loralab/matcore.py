"""Dense float64 matrix primitives with explicit error contracts.

Everything downstream (the encoder, adapters, the similarity toolkit) moves
matrices around as 2-D C-contiguous float64 numpy arrays, or stacks of them. This module owns
the operations that carry correctness contracts:

* ``matmul`` rejects mismatched shapes, naming both operands.
* ``solve(a, rhs)`` factors ``a`` once with partial pivoting by rows, and
  substitutes on the columns of ``rhs`` only. Every LU finishes, and one
  gate (``_gate``), read once per chunk on both routes, refuses a matrix
  whose pivot ratio exceeds ``COND_LIMIT`` (1e12; an exact zero pivot reads
  as inf) and reports a pivot that overflowed as such. ``a`` may be a
  stack, solved in chunks of as many matrices as fit ``_LU_WORKSPACE`` bytes
  that are shared among the CPUs the process may run on
  (``_rng.run_parts``). The chunking depends on the bytes only, so every
  output is the same on one CPU or many, each matrix gets the bits of its
  own 2-D solve, and the error names the lowest-indexed rejected matrix.
  There are two routes:

  - Where the OpenBLAS bundled with numpy's wheel (``_rng._openblas``)
    exports LAPACK's ``dgetrf`` and ``dgetrs``, each matrix of a chunk is
    factored by one getrf call on a column-major copy in a one-matrix
    workspace per worker (``_LapackSpace``), and substituted by one getrs
    call. Both are bound once with raw-address arguments and get only the
    workspace's own buffers, so a call converts no array and a desk W0
    costs about what LAPACK's work on it costs. ``np.linalg.solve`` calls
    dgesv, which in this OpenBLAS runs the same getrf and getrs kernels, so
    on one OpenBLAS thread the bits agree with it (a fact of the library
    that a test pins). ctypes releases the GIL, so the chunks really run at
    once; OpenBLAS is held to one thread for each chunk
    (``_rng._one_blas_thread``), also where no pool runs, since its getrf
    gave other bytes at two threads than at one. 12 paper-dim W0s took
    about 0.1 s on two CPUs (``BENCH_lapack_lu.json``).
  - Elsewhere (numpy 1.x wheels, conda or distro builds, Accelerate) a
    recursive LU in numpy calls factors a whole chunk at once in a workspace
    of its own size: the structure of LAPACK's dgetrf2 (halves of the
    columns, one triangular solve and one GEMM per split, panels of at most
    ``_LU_BASE`` columns factored column by column on a contiguous
    transposed copy) and substitution recursively with GEMMs. ``_LU_BASE``
    governs this route only. Its thousands of small numpy calls hold the GIL,
    so two chunks barely overlap.

  The constants come from measured sweeps of the numpy route: a base of 32
  keeps a desk W0 (d=32) in one base case (``BENCH_recursive_lu.json``), and
  27 MiB holds six 768x768 matrices, so that the 12 W0s of a paper-dim
  module are two chunks, one per CPU of a two-CPU host
  (``BENCH_parallel_solve.json``); a desk stack is one chunk and starts no
  thread. ``invert(a)`` is ``solve(a, I)``; ``condition_estimate`` reads the
  pivots of the same LU.
* ``svd`` factors one matrix or a stack, with a deterministic sign convention:
  the largest-magnitude entry of every left singular vector is non-negative.
* ``gaussian`` draws from the counter-based generator in ``_rng`` so that a
  (seed, shape) pair always produces bit-identical matrices.

A matrix is serialized as the text line ``MATRIX <name> <rows> <cols> <f8``
followed by its rows*cols*8 bytes of raw little-endian float64, so a round
trip is bit-exact by construction and a load runs at memory speed. Model and
adapter checkpoints are one ``<TAG> key=value ...`` text line followed by
MATRIX blocks; ``write_checkpoint`` writes them to a binary file and
``load_checkpoint`` reads them block by block, checking every block against
the layout the header implies and every value for finiteness. Load errors
name the file, then ``line 1`` for the header or the byte offset and tensor
for a block. A text checkpoint of the pre-raw format (rows of digits after a
MATRIX line without the ``<f8`` marker) is reported as such, not read. Each
caller describes its file with one ``CheckpointFormat``, whose header is a
``Fields`` table as the experiment file's is; ``read_fields`` reads both.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Mapping

import numpy as np

from . import _rng

COND_LIMIT = 1e12
_LU_BASE = 32  # columns, or rows, that a recursion's base case takes one by one
_LU_WORKSPACE = 27 << 20  # bytes of the LU workspace of a stacked solve's chunk
_HEADER_LIMIT = 1 << 20  # bytes a checkpoint's header line may take, its newline included


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class NumericError(ArithmeticError):
    """A numeric contract was violated (non-finite values, no convergence)."""


def _label(name: str | None, index: int | None) -> str:
    """The prefix naming a rejected matrix: its name, else ``matrix <index>``, else none."""
    if name is None and index is not None:
        name = f"matrix {index}"
    return "" if name is None else f"{name}: "


class RejectedMatrixError(NumericError):
    """A matrix that the LU gate (``_gate``) refused, for ``reason``.

    ``index`` is the rejected matrix's place in a stacked solve (None for one
    matrix); ``name``, or else the index, labels the message.
    """

    def __init__(self, reason: str, index: int | None = None, name: str | None = None):
        super().__init__(_label(name, index) + reason)
        self.reason = reason
        self.index = index

    def named(self, name: str) -> RejectedMatrixError:
        """This rejection, its message relabelled with name (in place)."""
        self.args = (_label(name, self.index) + self.reason,)
        return self


class SingularMatrixError(RejectedMatrixError):
    """Inversion rejected: pivot-ratio condition estimate too large."""

    def __init__(self, condition: float, index: int | None = None, name: str | None = None):
        super().__init__(f"singular matrix: condition estimate {condition:.3e} exceeds "
                         f"{COND_LIMIT:.0e}", index, name)
        self.condition = condition


class OverflowedLUError(RejectedMatrixError):
    """Inversion rejected: a pivot of the LU overflowed to inf or NaN, as it
    can for entries near the float64 limit at any condition."""

    def __init__(self, index: int | None = None, name: str | None = None):
        super().__init__("LU overflowed: a pivot is not finite", index, name)


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    a = np.asarray(obj, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {a.ndim}-D")
    return a


def _require_nonempty(shape: tuple[int, ...], op: str) -> None:
    if 0 in shape:
        raise ShapeError(f"{op} requires a non-empty matrix, got {'x'.join(map(str, shape))}")


def _require_square(a: np.ndarray, op: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op} requires a square matrix, got {a.shape[0]}x{a.shape[1]}")
    _require_nonempty(a.shape, op)


def _require_finite(a: np.ndarray, what: str) -> None:
    # np.count_nonzero has less per-call overhead than .all()
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise NumericError(f"{what} contains non-finite entries")


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    out = a @ b
    _require_finite(out, "matmul result")
    return out


def gaussian(rows: int, cols: int, mean: float = 0.0, std: float = 1.0, seed: int = 0) -> np.ndarray:
    """rows x cols matrix of i.i.d. normal(mean, std) entries, row-major fill.

    Entry k is g_k * std + mean, g_k being ``_rng.gaussian_block``'s value k,
    rounded after the product and after the sum (also at std 1, mean 0).
    """
    _rng.check_int("rows", rows, 1)
    _rng.check_int("cols", cols, 1)
    _rng.check_real("mean", mean)
    _rng.check_real("std", std, "non-negative")
    return _rng.gaussian_block(rows * cols, seed, (mean, std)).reshape(rows, cols)


def _rows(a: np.ndarray) -> np.ndarray:
    """View of a stack (k, n, m) whose [i] is row i of every matrix, shaped (k, 1, m)."""
    return a.swapaxes(0, 1)[:, :, None]


def _subtract_products(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """c[s] -= a[s] @ b[s] for every matrix s, one product at a time, so that
    the temporary is one matrix's product and not the stack's."""
    for cs, as_, bs in zip(c, a, b):
        cs -= as_ @ bs


def _unit_lower_solve(l: np.ndarray, x: np.ndarray) -> None:
    """Overwrite every x[s] with L[s]^{-1} x[s], L[s] unit lower triangular (diagonal not read).

    Recursive on the rows: solve the top half, subtract its contribution from
    the bottom half with one GEMM, solve the bottom half; rows are
    substituted one by one only in blocks of at most _LU_BASE rows.
    """
    n = x.shape[1]
    if n > _LU_BASE:
        h = n // 2
        _unit_lower_solve(l[:, :h, :h], x[:, :h])
        _subtract_products(x[:, h:], l[:, h:, :h], x[:, :h])
        _unit_lower_solve(l[:, h:, h:], x[:, h:])
        return
    l_rows, x_rows = _rows(l), _rows(x)
    for i in range(1, n):
        row = x_rows[i]
        row -= l_rows[i, :, :, :i] @ x[:, :i]


def _upper_solve(u: np.ndarray, x: np.ndarray) -> None:
    """Overwrite every x[s] with U[s]^{-1} x[s], U[s] upper triangular.

    Recursive on the rows as _unit_lower_solve, bottom half first.
    """
    n = x.shape[1]
    if n > _LU_BASE:
        h = n // 2
        _upper_solve(u[:, h:, h:], x[:, h:])
        _subtract_products(x[:, :h], u[:, :h, h:], x[:, h:])
        _upper_solve(u[:, :h, :h], x[:, :h])
        return
    u_rows, x_rows = _rows(u), _rows(x)
    for i in range(n - 1, -1, -1):
        row = x_rows[i]
        row -= u_rows[i, :, :, i + 1 :] @ x[:, i + 1 :]
        row /= u_rows[i, :, :, i : i + 1]


def _reorder(a: np.ndarray, order: np.ndarray) -> None:
    """Row i of every a[s] becomes its row order[s, i]; only the rows that
    move are touched, one matrix at a time, so that the gathered copy is one
    matrix's moved rows."""
    rows = np.arange(order.shape[1])
    for m, o in zip(a, order):
        i = np.flatnonzero(o != rows)
        m[i] = m[o[i]]


def _lu_base(a: np.ndarray) -> np.ndarray:
    """Partial-pivot LU of the panels a (k, m, w), w <= m, column by column, in place.

    Left-looking (Crout): column j is first brought up to date with one GEMV
    over the columns before it, then pivoted and scaled, and row j of U is
    finished with one small GEMV. It works on a transposed copy, so that each
    column is a contiguous row of it; the copy's extra last row holds each
    row's index, so swapping columns of the copy also records the row order
    (k, m) that is returned.
    """
    count, m, w = a.shape
    t = np.empty((count, w + 1, m))
    t[:, :w] = a.transpose(0, 2, 1)
    t[:, w] = np.arange(m)
    flat = t.reshape(-1)
    starts = np.arange(0, t.size, m).reshape(count, w + 1)  # flat offset of every row of t
    for j in range(w):
        col = t[:, j, None, j:]
        col -= t[:, j, None, :j] @ t[:, :j, j:]  # A[j:, j] -= L[j:, :j] U[:j, j]
        # swap column j of each t[s] with its pivot column, at j + argmax in flat[j:]
        at = starts + np.abs(col[:, 0]).argmax(axis=1)[:, None]
        from_j = flat[j:]
        pivot_rows = from_j[at]
        from_j[at] = t[:, :, j]
        t[:, :, j] = pivot_rows
        pivots = pivot_rows[:, j]
        pivots[pivots == 0.0] = 1.0  # as getrf: U keeps the 0, and the column below it is 0
        u_row = t[:, j + 1 : w, j, None]
        u_row -= t[:, j + 1 : w, :j] @ t[:, :j, j, None]  # U[j, j+1:] -= L[j, :j] U[:j, j+1:]
        col = t[:, j, j + 1 :]
        col /= pivots[:, None]
    a[...] = t[:, :w].transpose(0, 2, 1)
    return t[:, w].astype(np.intp)


def _lu_factor(a: np.ndarray) -> np.ndarray:
    """Recursive partial-pivot LU of a stack of panels (k, m, w), m >= w, in place.

    Returns the row orders (k, m): row i of every factored a[s] is row
    order[s, i] of the input, so for a square stack they are the row
    permutations. The structure of LAPACK's dgetrf2 (Toledo, SIAM J. Matrix
    Anal. Appl. 18(4), 1997): factor the left half of the columns
    recursively, apply its row order to the right half, solve the unit-lower
    block for U12, update the lower-right block with one GEMM and factor it
    recursively, then apply its row order to the left half's multipliers.
    Panels of at most _LU_BASE columns are factored column by column
    (_lu_base). The pivot is the largest-magnitude entry of the column, as in
    the unblocked algorithm, so both produce the same permutation. Each step
    runs on the whole stack, and gives every matrix the bits it would get
    alone. Every factorization finishes: an exact zero pivot stays on U's
    diagonal, as LAPACK's getrf leaves it, and the gate reads it.
    """
    w = a.shape[2]
    if w <= _LU_BASE:
        return _lu_base(a)
    h = w // 2
    left, right = a[:, :, :h], a[:, :, h:]
    order = _lu_factor(left)
    _reorder(right, order)
    _unit_lower_solve(left[:, :h], right[:, :h])
    _subtract_products(right[:, h:], left[:, h:], right[:, :h])
    below = _lu_factor(right[:, h:])
    _reorder(left[:, h:], below)
    order[:, h:] = np.take_along_axis(order[:, h:], below, axis=1)
    return order


def _pivot_ratios(diags: np.ndarray) -> np.ndarray:
    """|largest pivot| / |smallest pivot| of every LU, diags being their
    |diagonals| (k, n): inf where the smallest is 0 (an all-zero matrix's 0/0
    included) or a pivot is not finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = diags.max(axis=-1) / diags.min(axis=-1)
    return np.where(np.isnan(ratios), math.inf, ratios)


def _gate(diags: np.ndarray, first: int | None) -> None:
    """The one rejection rule of both LU routes, on diags, the |pivots| (k, n)
    of matrices first, first + 1, ... of a stack (first None for a 2-D
    solve): the lowest-indexed matrix whose pivot ratio (``_pivot_ratios``,
    inf at a NaN) exceeds COND_LIMIT raises OverflowedLUError if one of its
    pivots is not finite, else SingularMatrixError. A second quantity would
    join here."""
    ratios = _pivot_ratios(diags)
    over = np.flatnonzero(ratios > COND_LIMIT)
    if len(over):
        s = int(over[0])
        index = None if first is None else first + s
        if not np.isfinite(diags[s]).all():
            raise OverflowedLUError(index)
        raise SingularMatrixError(float(ratios[s]), index)


def condition_estimate(a) -> float:
    """|largest pivot| / |smallest pivot| of the LU factorization that
    ``solve`` makes (LAPACK's where ``_lapack`` finds it), inf at an exact
    zero pivot or a pivot that overflowed."""
    a = as_matrix(a)
    _require_square(a, "condition_estimate")
    _require_finite(a, "condition_estimate input")
    if _lapack() is not None:
        space = _LapackSpace(a.shape[0])
        with _rng._one_blas_thread():
            _getrf(a, space)
        lu = space.lu
    else:
        lu = np.array(a, order="C")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed pivot reads inf
            _lu_factor(lu[None])
    return float(_pivot_ratios(np.abs(lu.diagonal())))


@functools.cache
def _lapack():
    """(getrf, getrs): LAPACK's dgetrf and dgetrs in the OpenBLAS that
    ``_rng._openblas`` finds, or None where that library or either routine is
    absent. Every argument but getrs's ``trans`` is a raw address
    (``ctypes.c_void_p``) into a ``_LapackSpace``, so a call converts no
    array; its integers, ``ipiv`` included, are int64, as the ILP64 interface
    reads them. ctypes releases the GIL for the call."""
    blas = _rng._openblas()
    routines = [getattr(blas, f"scipy_dgetr{step}_64_", None) for step in "fs"]
    if blas is None or None in routines:
        return None
    import ctypes

    getrf, getrs = routines
    # getrf(m, n, a, lda, ipiv, info) and getrs(trans, n, nrhs, a, lda, ipiv, b, ldb, info)
    getrf.argtypes = [ctypes.c_void_p] * 6
    getrs.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 8
    getrf.restype = getrs.restype = None
    return getrf, getrs


class _LapackSpace:
    """The buffers that getrf and getrs work in for (n, n) matrices and r
    right-hand columns, with their addresses (``at``): ``lu`` (n, n),
    ``ipiv`` (n), ``cols`` (r, n), a right-hand side column-major, and
    ``ints``, which holds n, r and info. Only these C-contiguous arrays,
    allocated here, are passed to LAPACK, and the space keeps them alive."""

    def __init__(self, n: int, r: int = 0):
        self.lu, self.cols = np.empty((n, n)), np.empty((r, n))
        self.ipiv, self.ints = np.empty(n, np.int64), np.array([n, r, 0], np.int64)
        lu, ipiv, cols, ints = (x.ctypes.data for x in (self.lu, self.ipiv, self.cols, self.ints))
        self.at = {"lu": lu, "ipiv": ipiv, "cols": cols, "n": ints, "r": ints + 8,
                   "info": ints + 16}


def _getrf(m: np.ndarray, space: _LapackSpace) -> None:
    """LAPACK's LU of the (n, n) matrix m, made in space.lu, with its pivots in space.ipiv.

    space.lu gets m.T, which LAPACK reads as m column-major; so the rows of m
    are pivoted, as the numpy LU pivots them, and U's diagonal is space.lu's.
    getrf finishes past an exact zero pivot, which stays on U's diagonal, so
    its info is not read. The caller holds OpenBLAS to one thread
    (``_rng._one_blas_thread``): its getrf gave other bytes at two threads
    than at one.
    """
    space.lu[...] = m.T
    at = space.at
    _lapack()[0](at["n"], at["n"], at["lu"], at["n"], at["ipiv"], at["info"])


def _as_stack(a) -> tuple[np.ndarray | list[np.ndarray], bool]:
    """(stack, single): a as an indexable stack of equal-shape float64 matrices.

    One 2-D matrix is a stack of one, and single is True. A 3-D array is a
    stack as it is; a sequence of 2-D arrays stays a list, so that no copy of
    the whole stack is made.
    """
    if isinstance(a, (list, tuple)) and a and np.ndim(a[0]) == 2:
        mats = [as_matrix(m) for m in a]
        for m in mats[1:]:
            if m.shape != mats[0].shape:
                raise ShapeError(f"stack mixes {mats[0].shape} and {m.shape} matrices")
        return mats, False
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ShapeError(f"matrix must be 2-D or a stack of 2-D matrices, got {a.ndim}-D")
    return (a[None], True) if a.ndim == 2 else (a, False)


def solve(a, rhs) -> np.ndarray:
    """x with a @ x = rhs, through one LU of a and substitution on rhs's columns.

    ``a`` is one (n, n) matrix and ``rhs`` (n, r), giving x (n, r); or ``a``
    is a stack of k such matrices (a 3-D array or a sequence of 2-D arrays)
    and ``rhs`` (k, n, r), giving x (k, n, r). A stack is factored and
    substituted in chunks of as many matrices as fit in _LU_WORKSPACE bytes
    (at least one), whatever the CPU count and the route. With w = min(chunks,
    CPUs this process may run on), worker i takes chunks i, i + w, ... in a
    workspace of its own: the calling thread is worker 0, and a thread pool
    runs the others only when there are two chunks or more
    (``_rng.run_parts``). Where ``_lapack`` finds LAPACK's getrf and getrs,
    each matrix is factored and substituted by them, one at a time in a
    one-matrix workspace, on one OpenBLAS thread; elsewhere the numpy LU
    factors a whole chunk in a workspace of the chunk's size. Every matrix
    gets the bits its own 2-D solve gives.

    Rejects a matrix whose pivot-ratio condition estimate exceeds COND_LIMIT
    (SingularMatrixError) or whose LU overflowed (OverflowedLUError), one
    gate per chunk (``_gate``); every factorization finishes, an exact zero
    pivot reading as inf. For a stack the error names the lowest-indexed
    rejected matrix, on either route, at any chunking and on any number of
    CPUs.
    """
    a, single = _as_stack(a)
    if not len(a):  # only an array can hold no matrices; a list of none is 1-D
        _require_nonempty(a.shape, "solve")
    _require_square(a[0], "solve")
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 3 - single:
        raise ShapeError(f"right-hand side must be {3 - single}-D, got {rhs.ndim}-D")
    if single:
        rhs = rhs[None]
    count, n = len(a), a[0].shape[0]
    if rhs.shape[:2] != (count, n):
        raise ShapeError(
            f"cannot solve {'x'.join(map(str, (count, n, n)[single:]))} system for "
            f"{'x'.join(map(str, rhs.shape[single:]))} right-hand side"
        )
    x = np.empty(rhs.shape)
    chunk = max(1, _LU_WORKSPACE // (8 * n * n))
    lapack = _lapack() is not None

    def space(worker: int):
        return _LapackSpace(n, rhs.shape[2]) if lapack else np.empty((min(chunk, count), n, n))

    def solve_part(part: slice, workspace) -> None:
        _solve_chunk(a[part], rhs[part], workspace, x[part], None if single else part.start)

    _rng.run_parts([slice(c0, c0 + chunk) for c0 in range(0, count, chunk)], solve_part, space)
    return x[0] if single else x


def _solve_chunk(a, b: np.ndarray, workspace, out: np.ndarray, first) -> None:
    """Solve the chunk a (k matrices, from matrix first of the stack) for b
    into out; the chunk's pivots are gated once (``_gate``).

    Where ``_lapack`` finds LAPACK, the workspace is a ``_LapackSpace`` in
    which each matrix is factored in turn (``_lapack_solve``); elsewhere it
    is an array in whose first k matrices the numpy LU factors the chunk.
    """
    for m in a:
        _require_finite(m, "solve input")
    _require_finite(b, "solve right-hand side")
    if _lapack() is None:
        _numpy_solve(a, b, workspace[: len(b)], out, first)
    else:
        _lapack_solve(a, b, workspace, out, first)
    _require_finite(out, "solve result")


def _numpy_solve(a, b: np.ndarray, lu: np.ndarray, out: np.ndarray, first) -> None:
    for i, m in enumerate(a):
        lu[i] = m
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed pivot is the gate's
        perm = _lu_factor(lu)
    _gate(np.abs(np.diagonal(lu, axis1=-2, axis2=-1)), first)
    out[...] = b[np.arange(len(b))[:, None], perm]
    _unit_lower_solve(lu, out)
    _upper_solve(lu, out)


def _lapack_solve(a, b: np.ndarray, space: _LapackSpace, out: np.ndarray, first) -> None:
    """Each matrix of a factored by getrf (``_getrf``) and substituted by one
    getrs on its columns of b, in space, with OpenBLAS held to one thread
    for the whole chunk; then the chunk's pivots are gated, so a chunk with a
    rejected matrix finishes its other matrices before it raises."""
    getrs = _lapack()[1]
    at = space.at
    diags = np.empty(b.shape[:2])
    with _rng._one_blas_thread():
        for s, m in enumerate(a):
            _getrf(m, space)
            diags[s] = space.lu.diagonal()
            space.cols[...] = b[s].T
            getrs(b"N", at["n"], at["r"], at["lu"], at["n"], at["ipiv"], at["cols"], at["n"],
                  at["info"])
            out[s] = space.cols.T
    _gate(np.abs(diags), first)


def invert(a) -> np.ndarray:
    a = as_matrix(a)
    _require_square(a, "invert")
    return solve(a, np.eye(a.shape[0]))


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD factors: a = u @ diag(s) @ vt, s non-increasing and >= 0."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def svd(a) -> SvdResult:
    """Thin SVD of one matrix, or of every matrix of a stack (…, m, n) in one call."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2:
        raise ShapeError(f"svd input must be 2-D or a stack of 2-D matrices, got {a.ndim}-D")
    _require_nonempty(a.shape, "svd")
    _require_finite(a, "svd input")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    # Sign convention: make the largest-magnitude entry of each left singular
    # vector non-negative so repeated factorizations are reproducible.
    peaks = np.take_along_axis(u, np.abs(u).argmax(axis=-2)[..., None, :], axis=-2)
    signs = np.where(peaks < 0.0, -1.0, 1.0)
    u *= signs
    vt *= signs.swapaxes(-1, -2)
    return SvdResult(u, s, vt)


# --- raw serialization -----------------------------------------------------

_PAYLOAD = "<f8"  # the marker that ends every MATRIX line, and the dtype of its payload


def write_matrix(fh: IO[bytes], name: str, a) -> None:
    """The line ``MATRIX <name> <rows> <cols> <f8``, then a's values as little-endian float64."""
    a = as_matrix(a, name)
    if not name or any(ch.isspace() for ch in name):
        raise ValueError(f"matrix name must be non-empty without whitespace: {name!r}")
    fh.write(f"MATRIX {name} {a.shape[0]} {a.shape[1]} {_PAYLOAD}\n".encode())
    fh.write(np.ascontiguousarray(a, _PAYLOAD).data)


def _read_blocks(fh: IO[bytes], offset: int, size: int,
                 layout: dict[str, tuple]) -> Iterator[tuple[str, np.ndarray]]:
    """(name, matrix) per MATRIX block of fh, a file of size bytes read up to offset.

    Errors are ValueErrors starting ``byte <n>: ``, where n is the offset of
    the MATRIX line or of the value at fault, and name the tensor once its
    line is read. A line without the ``<f8`` marker is the pre-raw text
    format, which is reported as such and not read. The payload must be
    complete and finite; names must be unique. Every name must be in the
    layout ({name: (rows, cols)}, see CheckpointFormat) with its shape, and a
    missing one is an error at end of file.
    """
    longest = max(map(len, layout), default=0) + 64  # "MATRIX", a name, two dims, the marker
    dtype = np.dtype(_PAYLOAD)  # parsed once, not once a block
    bound: dict[str, int] = {}
    seen: set[str] = set()
    while line := fh.readline(longest):
        start, offset = offset, offset + len(line)
        text = line.decode("utf-8", "backslashreplace").rstrip("\n")
        parts = text.split()
        if parts[:1] != ["MATRIX"] or not line.endswith(b"\n"):
            raise ValueError(f"byte {start}: expected MATRIX line, got {text!r}")
        if len(parts) == 4:
            raise ValueError(f"byte {start}: {text!r} has no {_PAYLOAD} marker: a text checkpoint "
                             "of the pre-raw format, which this version does not read")
        if len(parts) != 5 or parts[4] != _PAYLOAD:
            raise ValueError(f"byte {start}: expected 'MATRIX <name> <rows> <cols> {_PAYLOAD}', "
                             f"got {text!r}")
        name = parts[1]
        where = f"byte {start}: tensor {name}"
        rows, cols = [int(n) if n.isdecimal() else 0 for n in parts[2:4]]
        if rows < 1 or cols < 1:
            raise ValueError(f"{where}: bad dimensions in {text!r}")
        if name in seen:
            raise ValueError(f"{where}: duplicate tensor name")
        if name not in layout:
            raise ValueError(f"{where}: not a tensor of this checkpoint")
        want = [bound.setdefault(n, got) if isinstance(n, str) else n
                for n, got in zip(layout[name], (rows, cols))]
        if [rows, cols] != want:
            raise ValueError(f"{where}: shape {rows}x{cols}, expected {want[0]}x{want[1]}")
        nbytes = 8 * rows * cols
        if nbytes > size - offset:
            raise ValueError(f"{where}: payload cut short: {size - offset} of {nbytes} bytes")
        try:
            data = np.empty((rows, cols), dtype)
        except MemoryError:
            raise ValueError(f"{where}: {rows}x{cols} does not fit in memory") from None
        got = fh.readinto(data)
        if got != nbytes:
            raise ValueError(f"{where}: payload cut short: {got} of {nbytes} bytes")
        finite = np.isfinite(data)
        if np.count_nonzero(finite) != finite.size:  # as _require_finite
            k = int(np.argmin(finite.ravel()))
            raise ValueError(f"byte {offset + 8 * k}: tensor {name}: non-finite entry "
                             f"{data.flat[k]} at row {k // cols + 1}, column {k % cols + 1}")
        offset += nbytes
        seen.add(name)
        yield name, data
    missing = [name for name in layout if name not in seen]
    if missing:
        raise ValueError(f"byte {offset}: end of file, missing tensor {missing[0]}")


# --- key/value fields -------------------------------------------------------

Fields = Mapping[str, tuple[str, Callable[[str], object], Callable[[object], str]]]
"""A field table: key -> (attribute, parser of the key's text, formatter of the value)."""


def parse_items(text: str) -> tuple[str, ...]:
    """Comma-separated items; an empty one is an error, never skipped."""
    items = tuple(part.strip() for part in text.split(","))
    if not all(items):
        raise ValueError("empty item")
    return items


def parse_int(text: str) -> int:
    """An integer as ``int`` reads it; other text fails with the reason
    alone, as the caller's message names the text."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("not an integer") from None


def parse_layers(text: str) -> tuple[int, ...]:
    return tuple(parse_int(item) for item in parse_items(text))


def int_at_least(name: str, low: int) -> Callable[[str], int]:
    """The parser of the integer ``name`` of at least ``low``, checked by
    ``_rng.check_int`` as the dataclass that takes it checks it, so a value
    below ``low`` fails where it is read, with its line and key."""
    def parse(text: str) -> int:
        value = parse_int(text)
        _rng.check_int(name, value, low)
        return value
    return parse


def positive_real(name: str) -> Callable[[str], float]:
    """The parser of the real ``name``, checked by ``_rng.check_real`` as
    positive, as the dataclass that takes it checks it."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ValueError("not a number") from None
        _rng.check_real(name, value, "positive")
        return value
    return parse


def parse_seed(text: str) -> int:
    """A seed of the generator (``_rng.check_seed``). The caller's message
    names the text, so a seed out of range fails with the rule alone."""
    value = parse_int(text)
    try:
        return _rng.check_seed(value)
    except ValueError:
        raise ValueError(_rng.SEED_RULE) from None


def format_items(values: Iterable) -> str:
    return ",".join(str(v) for v in values)


format_float = "{:.17g}".format


def read_fields(
    items: Iterable[tuple[int, str, str]], fields: Fields, defaults: Mapping[str, object] = {}
) -> dict[str, object]:
    """{attribute: value} for every field from (line number, key, text) items.

    An absent key takes its attribute's entry in ``defaults`` or is missing.
    Errors are ValueErrors ``line <n>: <problem>`` that name the key.
    """
    values: dict[str, object] = {}
    lineno = 1
    for lineno, key, text in items:
        if key not in fields:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        attr, parse, _ = fields[key]
        if attr in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[attr] = parse(text)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {text!r} ({exc})") from None
    for key, (attr, _, _) in fields.items():
        if attr not in values and attr not in defaults:
            raise ValueError(f"line {lineno}: missing key {key!r}")
    return {**defaults, **values}


def format_fields(obj, fields: Fields) -> Iterator[tuple[str, str]]:
    """(key, text) for every field of obj that is not None and reads back as itself."""
    for key, (attr, parse, show) in fields.items():
        value = getattr(obj, attr)
        if value is None:
            continue
        text = show(value)
        try:
            same = parse(text) == value
        except ValueError:
            same = False
        if not same:
            raise ValueError(f"cannot write {key} = {value!r}: it would not read back")
        yield key, text


@contextlib.contextmanager
def atomic_write(path, mode: str = "w") -> Iterator[IO]:
    """A file beside path, opened with mode; os.replace moves it over path once the block succeeds.

    A failed write leaves any old file as it was and removes the temporary file.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


# --- checkpoint files -------------------------------------------------------

@dataclass(frozen=True)
class CheckpointFormat:
    """One kind of checkpoint file: a ``<tag> key=value ...`` line, then MATRIX blocks.

    ``fields`` is the header's field table; every key appears exactly once.
    ``make`` builds the header object from {attribute: parsed value}, and
    ``layout`` maps that object to its (tensor name, (rows, cols)) pairs. A
    str dimension (such as ``"d"``) is fixed by the first tensor that has it
    and must match in every other.
    """

    tag: str
    fields: Fields
    make: Callable[..., object]
    layout: Callable[[object], Iterable[tuple[str, tuple[int | str, int | str]]]]


def _read_header(line: bytes, fmt: CheckpointFormat):
    text = line.decode("utf-8", "backslashreplace")
    parts = text.split()
    if parts[:1] != [fmt.tag]:
        raise ValueError(f"line 1: expected {fmt.tag} line, got {text.rstrip()[:80]!r}")
    values = read_fields(((1, *item.partition("=")[::2]) for item in parts[1:]), fmt.fields)
    try:
        return fmt.make(**values)
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None


def write_checkpoint(fh: IO[bytes], fmt: CheckpointFormat, header,
                     tensors: Mapping[str, np.ndarray]) -> None:
    """Write header's fields as the tag line, then one MATRIX block per tensor."""
    values = " ".join(f"{key}={text}" for key, text in format_fields(header, fmt.fields))
    fh.write(f"{fmt.tag} {values}\n".encode())
    for name, a in tensors.items():
        write_matrix(fh, name, a)


def load_checkpoint(path, fmt: CheckpointFormat) -> tuple[object, dict[str, np.ndarray]]:
    """(header object, {name: matrix}) read block by block from path.

    Every format error is a ValueError starting ``<path>: line 1: `` (the
    header, read up to ``_HEADER_LIMIT`` bytes) or ``<path>: byte <n>: ``.
    """
    with open(path, "rb") as fh:
        try:
            line = fh.readline(_HEADER_LIMIT)
            if len(line) == _HEADER_LIMIT and not line.endswith(b"\n"):
                raise ValueError(f"line 1: no end of line in the first {_HEADER_LIMIT} bytes")
            header = _read_header(line, fmt)
            # A block takes at least 25 bytes ("MATRIX a 1 1 <f8\n" and one value), so a
            # layout longer than this cannot fit and is cut here; the missing check fails it.
            size = os.fstat(fh.fileno()).st_size
            layout = dict(itertools.islice(fmt.layout(header), size // 25 + 1))
            return header, dict(_read_blocks(fh, len(line), size, layout))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
