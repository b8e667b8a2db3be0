"""Weight-space similarity analysis: conversion matrices and subspace overlap.

The similarity measure between matrices X and Y is

    phi(X, Y, i, j) = ||Ux_i^T Uy_j||_F^2 / min(i, j)

where Ux_i holds the top-i left (or right) singular vectors of X. phi is 1
for identical subspaces, 0 for orthogonal ones, and invariant to scaling of
either argument.

Conversion matrices relate a frozen square projection W0 to trained low-rank
factors: conv_A = W0^{-1} A^T and conv_B = W0^{-1} B, each d x r. Layer-wise
grids of phi between conversion matrices, together with a random-matrix
baseline grid of matching shape, quantify how much cross-layer structure a
trained adapter carries. W0 must be square and invertible: ``_convert`` is
the one place it is inverted, by a stacked ``matcore.solve`` that rejects an
ill-conditioned W0 and names it.

Work runs per stack of layers, not per layer: a module's conversions, A^T and
B side by side, come from one stacked ``matcore.solve`` that factors each W0
once (``_conversions``), a grid's bases from one stacked ``matcore.svd``, and
the comparison takes one SVD per side over every target of both methods.
Each matrix gets the bits it would get alone, and ``_phi`` takes a whole grid
or comparison column from one product of the stacked bases. ``analyze`` is
the recipe of ``loralab analyze``: its grids in order, the baseline, the
comparison and the rules a pair of adapters must meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from . import _rng, matcore
from .adapters import AdapterParams, AdapterSpec, adapter_factors, as_method
from .matcore import ShapeError
from .model import BaseWeights

SIDES = ("left", "right")


def _check_count(shape: tuple[int, ...], count: int) -> None:
    rows, cols = shape[-2:]
    if not 1 <= count <= min(rows, cols):
        raise ValueError(
            f"requested {count} singular vectors, {rows}x{cols} has {min(rows, cols)}"
        )


def _check_rank(s: np.ndarray, count: int, shape: tuple[int, int], names: list[str] | None) -> None:
    """Raise a NumericError naming the first matrix, of a stack with singular values
    s (…, k), whose count-th singular value is at or below numpy's ``matrix_rank``
    tolerance s_max * max(rows, cols) * eps: its top-count subspace is whatever
    the SVD happens to return, so no phi of it means anything."""
    s = np.abs(s.reshape(-1, s.shape[-1]))  # LAPACK may return -0.0
    tol = s[:, 0] * max(shape) * np.finfo(np.float64).eps
    bad = np.flatnonzero(s[:, count - 1] <= tol)
    if bad.size:
        k = bad[0]
        name = names[k] if names is not None else f"matrix {k}"
        raise matcore.NumericError(
            f"{name}: rank below {count} (singular value {count} is {s[k, count - 1]:.3g}, "
            f"tolerance {tol[k]:.3g})"
        )


def _basis(x: np.ndarray, count: int, side: str, names: list[str] | None = None) -> np.ndarray:
    """Top ``count`` singular vectors of each matrix of x (…, rows, cols), as columns.

    A matrix of rank below count raises a NumericError under its entry of names.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    _check_count(x.shape, count)
    result = matcore.svd(x)
    _check_rank(result.s, count, x.shape[-2:], names)
    if side == "left":
        return result.u[..., :count]
    return result.vt[..., :count, :].swapaxes(-1, -2)


def _delta_basis(a: np.ndarray, b: np.ndarray, names: list[str] | None = None) -> np.ndarray:
    """Top-r left singular vectors of every B @ A (d x r), without forming the d x d products.

    a and b are stacks (…, r, d) and (…, d, r). With B = Q R, B @ A = Q (R @ A),
    so the left singular vectors of B @ A are Q times those of the r x d
    matrix R @ A, which has B @ A's singular values. A product of rank below r
    raises a NumericError under its entry of names.
    """
    q, r = np.linalg.qr(b)
    result = matcore.svd(r @ a)
    _check_rank(result.s, a.shape[-2], (b.shape[-2], a.shape[-1]), names)
    return q @ result.u


def _phi(bx: np.ndarray, by: np.ndarray, i: int, j: int) -> np.ndarray:
    """phi of every pair of orthonormal bases (…, d, i) and (…, d, j); clamped to [0, 1].

    The two stacks broadcast against each other, so one product gives every
    overlap.
    """
    overlap = np.square(bx.swapaxes(-1, -2) @ by).sum(axis=(-2, -1)) / min(i, j)
    if (overlap > 1.0 + 1e-9).any():
        raise matcore.NumericError(f"similarity {overlap.max()} outside [0, 1] tolerance")
    return np.clip(overlap, 0.0, 1.0)


def subspace_similarity(x, y, i: int, j: int, side: str = "left") -> float:
    """phi(X, Y, i, j) over top singular-vector subspaces; clamped to [0, 1]."""
    bx = _basis(matcore.as_matrix(x), i, side, ["x"])
    by = _basis(matcore.as_matrix(y), j, side, ["y"])
    if bx.shape[0] != by.shape[0]:
        raise ShapeError(
            f"{side} singular vectors live in different spaces: "
            f"dim {bx.shape[0]} vs {by.shape[0]}"
        )
    return float(_phi(bx, by, i, j))


def _convert(w0s: list, rhs: list, names: list[str]) -> np.ndarray:
    """W0^{-1} X for every (W0, X) pair, through one stacked ``matcore.solve``.

    Every W0 must be square. A W0 the solve rejects is re-raised under its
    entry of names, such as ``layer3.query: singular matrix: ...``.
    """
    w0s = [matcore.as_matrix(w0, "W0") for w0 in w0s]
    rows, cols = w0s[0].shape
    if rows != cols:
        raise ShapeError(f"conversion requires square W0, got {rows}x{cols}")
    try:
        return matcore.solve(w0s, np.stack(rhs))
    except matcore.SingularMatrixError as exc:
        raise matcore.SingularMatrixError(exc.condition, exc.index, names[exc.index]) from None


def conversion_a(w0, a) -> np.ndarray:
    """W0^{-1} A^T, the map satisfying W0 @ result = A^T."""
    return _convert([w0], [matcore.as_matrix(a, "A").T], ["W0"])[0]


def conversion_b(w0, b) -> np.ndarray:
    """W0^{-1} B, the map satisfying W0 @ result = B."""
    return _convert([w0], [matcore.as_matrix(b, "B")], ["W0"])[0]


@dataclass
class SimilarityGrid:
    labels: list[str]
    values: np.ndarray
    side: str
    i: int
    j: int

    @property
    def average_offdiagonal(self) -> float:
        n = self.values.shape[0]
        if n < 2:
            return 0.0
        off = ~np.eye(n, dtype=bool)
        return float(self.values[off].mean())


def layer_similarity_grid(matrices, i: int, j: int, side: str = "left",
                          labels: list[str] | None = None) -> SimilarityGrid:
    """Pairwise phi over an ordered list (or a stack) of same-shape matrices.

    One SVD of the whole stack gives every basis; the i- and j-column bases
    of a matrix are both slices of its one factorization, and one stacked
    ``_phi`` gives every entry.
    """
    mats = [matcore.as_matrix(m) for m in matrices]
    n = len(mats)
    if n < 1:
        raise ValueError("need at least one matrix")
    if labels is None:
        labels = [str(idx + 1) for idx in range(n)]
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for a grid of {n} matrices")
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ShapeError(f"grid matrices must share a shape: {shape} vs {m.shape}")
    _check_count(shape, min(i, j))
    bases = _basis(np.stack(mats), max(i, j), side, [f"layer{label}" for label in labels])
    values = _phi(bases[:, None, :, :i], bases[None, :, :, :j], i, j)
    return SimilarityGrid(list(labels), values, side, i, j)


def random_baseline_grid(rows: int, cols: int, n: int, i: int, j: int,
                         side: str = "left", seed: int = 0) -> SimilarityGrid:
    """Grid over n independent Gaussian rows x cols matrices."""
    if n < 2:
        raise ValueError(f"baseline grid needs n >= 2, got {n}")
    mats = [
        matcore.gaussian(rows, cols, 0.0, 1.0, _rng.derive_seed(seed, f"baseline.{idx}"))
        for idx in range(n)
    ]
    return layer_similarity_grid(mats, i, j, side)


def _conversions(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec,
                 module: str, which: str) -> dict[str, np.ndarray]:
    """{factor: its conversions, d x r per target layer} for each factor of which ("AB" or one).

    A^T and B sit side by side in one right-hand side, so one stacked ``_convert``
    factors each W0 once and names a W0 it rejects, such as ``layer1.value``.
    """
    layers = spec.target_layers
    w0s = [weights.projection(module, layer) for layer in layers]
    factors = [adapter_factors(params, spec, w0, module, layer) for w0, layer in zip(w0s, layers)]
    rhs = [np.hstack([{"A": a.T, "B": b}[factor] for factor in which]) for a, b in factors]
    x = _convert(w0s, rhs, [f"layer{layer}.{module}" for layer in layers])
    return dict(zip(which, np.split(x, len(which), axis=-1)))


def conversion_grid(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec,
                    module: str, which: str, i: int | None = None, j: int | None = None,
                    side: str = "left") -> SimilarityGrid:
    """Layer-pair grid of phi between one module's conversion matrices (``_conversions``)."""
    if which not in ("A", "B"):
        raise ValueError(f"which must be 'A' or 'B', got {which!r}")
    i = spec.rank if i is None else i
    j = spec.rank if j is None else j
    mats = _conversions(weights, params, spec, module, which)[which]
    return _named_grid(f"conv_{which} {module}", mats, i, j, side,
                       [str(layer) for layer in spec.target_layers])


def _named_grid(name: str, mats, i: int, j: int, side: str, labels: list[str]) -> SimilarityGrid:
    """``layer_similarity_grid`` whose NumericError names the grid, such as
    ``conv_B value layer1: rank below 4 ...``."""
    try:
        return layer_similarity_grid(mats, i, j, side, labels)
    except matcore.NumericError as exc:
        raise matcore.NumericError(f"{name} {exc}") from None


@dataclass
class ComparisonRow:
    """phi between one layer's lora and condlora factors and deltas."""

    module: str
    layer: int
    phi_a: float
    phi_b: float
    phi_delta: float


def compare_lora_condlora(lora_params, cond_params, weights: BaseWeights,
                          spec: AdapterSpec) -> list[ComparisonRow]:
    """Per-target similarity rows: A on the right side, B and delta on the left.

    The factors of every target of both methods form one stack per side, so
    one SVD gives every A basis, one every B basis, and one QR and one SVD
    every delta basis. The delta subspaces come from the factors (see
    ``_delta_basis``); the d x d deltas are never formed. Every returned row
    has ``phi_delta`` = ``phi_b`` up to rounding: an A or B of rank below r
    raises a NumericError at its own basis first, and with A of full row
    rank r the column space of B·A is that of B.
    """
    targets = list(spec.targets())
    factors = [
        adapter_factors(params, method_spec, weights.projection(m, l), m, l)
        for params, method_spec in ((lora_params, as_method(spec, "lora")),
                                    (cond_params, as_method(spec, "condlora")))
        for m, l in targets
    ]
    a = np.stack([f[0] for f in factors])
    b = np.stack([f[1] for f in factors])
    r, n = spec.rank, len(targets)
    names = [f"{method} layer{l}.{m}" for method in ("lora", "condlora") for m, l in targets]
    phi_a, phi_b, phi_delta = (
        _phi(bases[:n], bases[n:], r, r).tolist()
        for bases in (_basis(a, r, "right", [f"comparison A of {x}" for x in names]),
                      _basis(b, r, "left", [f"comparison B of {x}" for x in names]),
                      _delta_basis(a, b, [f"comparison BA of {x}" for x in names]))
    )
    return [ComparisonRow(m, l, *phis)
            for (m, l), *phis in zip(targets, phi_a, phi_b, phi_delta)]


def analyze(weights: BaseWeights, loaded: list, i: int, j: int, side: str = "left",
            baseline_seed: int = 0) -> tuple[dict[str, SimilarityGrid], list | None]:
    """What ``loralab analyze`` reports: ({name: grid} in CSV order, comparison rows or None).

    loaded holds one or two (params, spec) pairs, and the grids are the
    first's: ``conv_A <module>`` and ``conv_B <module>`` per module, then
    ``random_baseline`` (a CSV's stem is the name with ``_`` for the space).
    Two adapters, one lora and one condlora of one geometry, add the rows.
    """
    if len(loaded) not in (1, 2):
        raise ValueError(f"analyze takes one or two adapters, got {len(loaded)}")
    by_method = {s.method: (p, s) for p, s in loaded}
    if len(loaded) == 2 and set(by_method) != {"lora", "condlora"}:
        raise ValueError("comparison needs one lora and one condlora checkpoint")
    if len({(s.rank, s.target_modules, s.target_layers) for _, s in loaded}) > 1:
        raise ValueError("adapter checkpoints target different shapes; cannot compare")
    params, spec = loaded[0]
    labels = [str(layer) for layer in spec.target_layers]
    grids = {}
    for module in spec.target_modules:
        for which, mats in _conversions(weights, params, spec, module, "AB").items():
            name = f"conv_{which} {module}"
            grids[name] = _named_grid(name, mats, i, j, side, labels)
    grids["random_baseline"] = random_baseline_grid(
        weights.config.d_model, spec.rank, len(spec.target_layers), i, j, side, baseline_seed)
    if len(loaded) == 1:
        return grids, None
    (lora_params, lora_spec), (cond_params, _) = by_method["lora"], by_method["condlora"]
    return grids, compare_lora_condlora(lora_params, cond_params, weights, lora_spec)


# --- csv output ---------------------------------------------------------------

def write_grid_csv(fh: IO[str], grid: SimilarityGrid) -> None:
    fh.write("labels," + ",".join(grid.labels) + "\n")
    for label, row in zip(grid.labels, grid.values):
        fh.write(label + "," + ",".join(f"{v:.9f}" for v in row) + "\n")
    fh.write(
        f"# side={grid.side} i={grid.i} j={grid.j} "
        f"avg_offdiag={grid.average_offdiagonal:.9f}\n"
    )


def write_comparison_csv(fh: IO[str], rows: list[ComparisonRow]) -> None:
    fh.write("module,layer,phi_A,phi_B,phi_dW\n")
    for row in rows:
        fh.write(f"{row.module},{row.layer},{row.phi_a:.9f},{row.phi_b:.9f},{row.phi_delta:.9f}\n")
