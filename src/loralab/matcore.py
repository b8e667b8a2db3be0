"""Dense float64 matrix primitives with explicit error contracts.

Everything downstream (the encoder, adapters, the similarity toolkit) moves
matrices around as 2-D C-contiguous float64 numpy arrays. This module owns
the operations that carry correctness contracts:

* ``matmul`` rejects mismatched shapes, naming both operands.
* ``solve(a, rhs)`` runs one right-looking blocked partial-pivot LU of ``a``
  (panels of ``_LU_BLOCK`` columns, one GEMM trailing update per panel), refuses
  matrices whose pivot-ratio condition estimate exceeds ``COND_LIMIT`` (1e12),
  and substitutes on the columns of ``rhs`` only. ``invert(a)`` is
  ``solve(a, I)``; ``condition_estimate`` reads the pivots of the same LU.
* ``svd`` returns factors with a deterministic sign convention: the
  largest-magnitude entry of every left singular vector is non-negative.
* ``gaussian`` draws from the counter-based generator in ``_rng`` so that a
  (seed, shape) pair always produces bit-identical matrices.

A plain text serialization (header line ``MATRIX <name> <rows> <cols>``
followed by rows of 17-significant-digit values) round-trips float64 values
bit-exactly and is shared by model and adapter checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from . import _rng

COND_LIMIT = 1e12
_LU_BLOCK = 64


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class NumericError(ArithmeticError):
    """A numeric contract was violated (non-finite values, no convergence)."""


class SingularMatrixError(NumericError):
    """Inversion rejected: pivot-ratio condition estimate too large."""

    def __init__(self, condition: float):
        super().__init__(
            f"singular matrix: condition estimate {condition:.3e} exceeds {COND_LIMIT:.0e}"
        )
        self.condition = condition


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    a = np.asarray(obj, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {a.ndim}-D")
    return a


def _require_square(a: np.ndarray, op: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op} requires a square matrix, got {a.shape[0]}x{a.shape[1]}")


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
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


def transpose(a) -> np.ndarray:
    return np.ascontiguousarray(as_matrix(a).T)


def gaussian(rows: int, cols: int, mean: float = 0.0, std: float = 1.0, seed: int = 0) -> np.ndarray:
    """rows x cols matrix of i.i.d. normal(mean, std) entries, row-major fill."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"gaussian needs positive dimensions, got {rows}x{cols}")
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    g = _rng.gaussian_block(rows * cols, seed).reshape(rows, cols)
    return mean + std * g


def _unit_lower_solve(l: np.ndarray, x: np.ndarray) -> None:
    """Overwrite x with L^{-1} x, L unit lower triangular (its diagonal is not read)."""
    for i in range(1, x.shape[0]):
        x[i] -= l[i, :i] @ x[:i]


def _upper_solve(u: np.ndarray, x: np.ndarray) -> None:
    """Overwrite x with U^{-1} x, U upper triangular."""
    for i in range(x.shape[0] - 1, -1, -1):
        x[i] = (x[i] - u[i, i + 1 :] @ x[i + 1 :]) / u[i, i]


def _lu_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-looking blocked partial-pivot LU. Returns (packed LU, row permutation).

    Golub & Van Loan, Matrix Computations, section 3.2: factor a panel of
    _LU_BLOCK columns with rank-1 updates confined to the panel, solve the
    unit-lower block for U12, then update the trailing matrix with one GEMM.
    The pivot is the largest-magnitude entry of the column, as in the
    unblocked algorithm, so both produce the same permutation.
    """
    lu = np.array(a, dtype=np.float64)
    n = lu.shape[0]
    perm = np.arange(n)
    for k0 in range(0, n, _LU_BLOCK):
        k1 = min(k0 + _LU_BLOCK, n)
        for k in range(k0, k1):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if lu[p, k] == 0.0:
                raise SingularMatrixError(math.inf)
            if p != k:
                lu[[k, p]] = lu[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            lu[k + 1 :, k] /= lu[k, k]
            lu[k + 1 :, k + 1 : k1] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 : k1])
        if k1 < n:
            _unit_lower_solve(lu[k0:k1, k0:k1], lu[k0:k1, k1:])
            lu[k1:, k1:] -= lu[k1:, k0:k1] @ lu[k0:k1, k1:]
    return lu, perm


def _pivot_ratio(lu: np.ndarray) -> float:
    diag = np.abs(np.diag(lu))
    return float(diag.max() / diag.min())


def condition_estimate(a) -> float:
    """|largest pivot| / |smallest pivot| from the LU factorization."""
    a = as_matrix(a)
    _require_square(a, "condition_estimate")
    try:
        lu, _ = _lu_decompose(a)
    except SingularMatrixError:
        return math.inf
    return _pivot_ratio(lu)


def solve(a, rhs) -> np.ndarray:
    """x with a @ x = rhs, through one LU of a and substitution on rhs's columns.

    Rejects a whose pivot-ratio condition estimate exceeds COND_LIMIT.
    """
    a = as_matrix(a)
    rhs = as_matrix(rhs, "right-hand side")
    _require_square(a, "solve")
    if rhs.shape[0] != a.shape[0]:
        raise ShapeError(
            f"cannot solve {a.shape[0]}x{a.shape[1]} system for "
            f"{rhs.shape[0]}x{rhs.shape[1]} right-hand side"
        )
    _require_finite(a, "solve input")
    _require_finite(rhs, "solve right-hand side")
    lu, perm = _lu_decompose(a)
    cond = _pivot_ratio(lu)
    if cond > COND_LIMIT:
        raise SingularMatrixError(cond)
    x = rhs[perm]
    _unit_lower_solve(lu, x)
    _upper_solve(lu, x)
    _require_finite(x, "solve result")
    return x


def invert(a) -> np.ndarray:
    a = as_matrix(a)
    _require_square(a, "invert")
    return solve(a, np.eye(a.shape[0]))


def pseudo_invert(a, rel_tol: float = 1e-10) -> np.ndarray:
    """SVD pseudoinverse, truncating singular values below rel_tol * s_max."""
    r = svd(a)
    if r.s.size == 0 or r.s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    cut = rel_tol * r.s[0]
    inv_s = np.where(r.s > cut, 1.0 / np.where(r.s > cut, r.s, 1.0), 0.0)
    return r.vt.T @ (inv_s[:, None] * r.u.T)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD factors: a = u @ diag(s) @ vt, s non-increasing and >= 0."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def svd(a) -> SvdResult:
    a = as_matrix(a)
    _require_finite(a, "svd input")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    # Sign convention: make the largest-magnitude entry of each left singular
    # vector non-negative so repeated factorizations are reproducible.
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[idx, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    u = u * signs
    vt = vt * signs[:, None]
    return SvdResult(u, s, vt)


# --- text serialization ----------------------------------------------------

def write_matrix(fh: IO[str], name: str, a) -> None:
    a = as_matrix(a, name)
    if not name or any(ch.isspace() for ch in name):
        raise ValueError(f"matrix name must be non-empty without whitespace: {name!r}")
    fh.write(f"MATRIX {name} {a.shape[0]} {a.shape[1]}\n")
    for row in a:
        fh.write(" ".join(f"{v:.17g}" for v in row))
        fh.write("\n")


def read_matrix(fh: IO[str]) -> tuple[str, np.ndarray] | None:
    """Read one MATRIX block; None at end of stream."""
    line = fh.readline()
    while line and not line.strip():
        line = fh.readline()
    if not line:
        return None
    parts = line.split()
    if len(parts) != 4 or parts[0] != "MATRIX":
        raise ValueError(f"expected MATRIX header, got {line.rstrip()!r}")
    name, rows, cols = parts[1], int(parts[2]), int(parts[3])
    if rows < 1 or cols < 1:
        raise ValueError(f"bad dimensions in header {line.rstrip()!r}")
    data = np.empty((rows, cols), dtype=np.float64)
    for i in range(rows):
        values = fh.readline().split()
        if len(values) != cols:
            raise ValueError(f"matrix {name}: row {i} has {len(values)} values, expected {cols}")
        data[i] = [float(v) for v in values]
    return name, data


def iter_matrices(fh: IO[str]) -> Iterator[tuple[str, np.ndarray]]:
    while True:
        item = read_matrix(fh)
        if item is None:
            return
        yield item
