"""Dense float64 matrix primitives with explicit error contracts.

Everything downstream (the encoder, adapters, the similarity toolkit) moves
matrices around as 2-D C-contiguous float64 numpy arrays, or stacks of them. This module owns
the operations that carry correctness contracts:

* ``matmul`` rejects mismatched shapes, naming both operands.
* ``solve(a, rhs)`` runs one recursive partial-pivot LU of ``a`` (the
  structure of LAPACK's dgetrf2: halves of the columns, one triangular solve
  and one GEMM per split, panels of at most ``_LU_BASE`` columns factored
  column by column on a contiguous transposed copy), refuses matrices whose
  pivot-ratio condition estimate exceeds ``COND_LIMIT`` (1e12), and
  substitutes on the columns of ``rhs`` only, recursively with GEMMs. ``a``
  may be a stack of matrices: every step then runs once over the stack,
  chunks of which fit in one reused ``_LU_WORKSPACE``-byte buffer, and each
  matrix gets the bits of its own 2-D solve. Both constants come from a
  measured sweep (``BENCH_recursive_lu.json``): a base of 32 keeps a desk
  W0 (d=32) in one base case, and 20 MiB holds four 768x768 matrices, whose
  chunk spreads the per-column dispatch of the base case over four LUs.
  ``invert(a)`` is ``solve(a, I)``; ``condition_estimate`` reads the pivots of
  the same LU.
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
import itertools
import math
import os
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Mapping

import numpy as np

from . import _rng

COND_LIMIT = 1e12
_LU_BASE = 32  # columns, or rows, that a recursion's base case takes one by one
_LU_WORKSPACE = 20 << 20  # bytes of the LU workspace that a stacked solve reuses for each chunk
_HEADER_LIMIT = 1 << 20  # bytes a checkpoint's header line may take, its newline included


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class NumericError(ArithmeticError):
    """A numeric contract was violated (non-finite values, no convergence)."""


class SingularMatrixError(NumericError):
    """Inversion rejected: pivot-ratio condition estimate too large.

    ``index`` is the rejected matrix's place in a stacked solve (None for one
    matrix); ``name``, or else the index, labels the message.
    """

    def __init__(self, condition: float, index: int | None = None, name: str | None = None):
        if name is None and index is not None:
            name = f"matrix {index}"
        super().__init__(
            ("" if name is None else f"{name}: ")
            + f"singular matrix: condition estimate {condition:.3e} exceeds {COND_LIMIT:.0e}"
        )
        self.condition = condition
        self.index = index


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


def gaussian(rows: int, cols: int, mean: float = 0.0, std: float = 1.0, seed: int = 0) -> np.ndarray:
    """rows x cols matrix of i.i.d. normal(mean, std) entries, row-major fill."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"gaussian needs positive dimensions, got {rows}x{cols}")
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    g = _rng.gaussian_block(rows * cols, seed).reshape(rows, cols)
    g *= std
    g += mean
    return g


def _rows(a: np.ndarray) -> np.ndarray:
    """View of a stack (k, n, m) whose [i] is row i of every matrix, shaped (k, 1, m)."""
    return a.swapaxes(0, 1)[:, :, None]


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
        x[:, h:] -= l[:, h:, :h] @ x[:, :h]
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
        x[:, :h] -= u[:, :h, h:] @ x[:, h:]
        _upper_solve(u[:, :h, :h], x[:, :h])
        return
    u_rows, x_rows = _rows(u), _rows(x)
    for i in range(n - 1, -1, -1):
        row = x_rows[i]
        row -= u_rows[i, :, :, i + 1 :] @ x[:, i + 1 :]
        row /= u_rows[i, :, :, i : i + 1]


def _reorder(a: np.ndarray, order: np.ndarray) -> None:
    """Row i of every a[s] becomes its row order[s, i]; only the rows that move are touched."""
    s, i = np.nonzero(order != np.arange(order.shape[1]))
    a[s, i] = a[s, order[s, i]]


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
        if np.count_nonzero(pivots) < count:
            raise SingularMatrixError(math.inf, int(np.argmin(pivots != 0.0)))
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
    alone. An exact zero pivot raises SingularMatrixError with its matrix's
    index.
    """
    w = a.shape[2]
    if w <= _LU_BASE:
        return _lu_base(a)
    h = w // 2
    left, right = a[:, :, :h], a[:, :, h:]
    order = _lu_factor(left)
    _reorder(right, order)
    _unit_lower_solve(left[:, :h], right[:, :h])
    right[:, h:] -= left[:, h:] @ right[:, :h]
    below = _lu_factor(right[:, h:])
    _reorder(left[:, h:], below)
    order[:, h:] = np.take_along_axis(order[:, h:], below, axis=1)
    return order


def _pivot_ratios(lu: np.ndarray) -> np.ndarray:
    diag = np.abs(np.diagonal(lu, axis1=-2, axis2=-1))
    return diag.max(axis=-1) / diag.min(axis=-1)


def condition_estimate(a) -> float:
    """|largest pivot| / |smallest pivot| from the LU factorization."""
    a = as_matrix(a)
    _require_square(a, "condition_estimate")
    lu = np.array(a, order="C")
    try:
        _lu_factor(lu[None])
    except SingularMatrixError:
        return math.inf
    return float(_pivot_ratios(lu))


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
    substituted as a whole, one chunk at a time in one LU workspace of at
    most _LU_WORKSPACE bytes, or one matrix where that is larger. Every
    matrix gets the bits its own 2-D solve gives.

    Rejects a matrix whose pivot-ratio condition estimate exceeds COND_LIMIT;
    for a stack the error carries the matrix's index.
    """
    a, single = _as_stack(a)
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
    workspace = np.empty((min(chunk, count), n, n))
    for c0 in range(0, count, chunk):
        b = rhs[c0 : c0 + chunk]
        lu = workspace[: len(b)]
        for i, m in enumerate(a[c0 : c0 + chunk]):
            lu[i] = m
        _require_finite(lu, "solve input")
        _require_finite(b, "solve right-hand side")
        try:
            perm = _lu_factor(lu)
        except SingularMatrixError as exc:
            raise SingularMatrixError(math.inf, None if single else c0 + exc.index) from None
        cond = _pivot_ratios(lu)
        if (cond > COND_LIMIT).any():
            s = int(np.argmax(cond > COND_LIMIT))
            raise SingularMatrixError(float(cond[s]), None if single else c0 + s)
        out = x[c0 : c0 + chunk]
        out[...] = b[np.arange(len(b))[:, None], perm]
        _unit_lower_solve(lu, out)
        _upper_solve(lu, out)
        _require_finite(out, "solve result")
    return x[0] if single else x


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
    _require_finite(a, "svd input")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    # Sign convention: make the largest-magnitude entry of each left singular
    # vector non-negative so repeated factorizations are reproducible.
    peaks = np.take_along_axis(u, np.abs(u).argmax(axis=-2)[..., None, :], axis=-2)
    signs = np.where(peaks < 0.0, -1.0, 1.0)
    u = u * signs
    vt = vt * signs.swapaxes(-1, -2)
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
        rows, cols = (int(n) if n.isdecimal() else 0 for n in parts[2:4])
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
            data = np.empty((rows, cols), _PAYLOAD)
        except MemoryError:
            raise ValueError(f"{where}: {rows}x{cols} does not fit in memory") from None
        got = fh.readinto(data)
        if got != nbytes:
            raise ValueError(f"{where}: payload cut short: {got} of {nbytes} bytes")
        finite = np.isfinite(data)
        if not finite.all():
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


def parse_layers(text: str) -> tuple[int, ...]:
    return tuple(int(item) for item in parse_items(text))


def positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0) or not math.isfinite(value):
        raise ValueError("not a positive finite number")
    return value


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
