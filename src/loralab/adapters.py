"""LoRA and CondLoRA adapter parameterizations.

LoRA keeps a trainable pair (A: r x d1, B: d2 x r) per targeted projection
and updates it with delta = (alpha / r) * B @ A.

CondLoRA keeps one trainable pair (theta_A: d2 x r, theta_B: d1 x r) per
target module, shared by every targeted layer. The per-layer factors are
produced from the frozen projection itself by bias-free linear maps:

    A_cond = (W0 @ theta_A)^T        (r x d1)
    B_cond = W0^T @ theta_B          (d2 x r)
    delta  = (alpha / r) * B_cond @ A_cond

so its trainable parameter count does not grow with the number of layers.

Both methods initialize the A-side factor with Gaussian entries (std 1/r)
and the B-side factor with zeros, which makes every delta exactly zero at
initialization: training starts from the frozen base model in both cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _rng, matcore
from .model import ATTENTION_MODULES, BaseWeights, ModelConfig

METHODS = ("lora", "condlora")


class NotATargetError(LookupError):
    """A (module, layer) pair outside the adapter's target set was requested."""


@dataclass(frozen=True)
class AdapterSpec:
    method: str
    rank: int
    alpha: float
    target_modules: tuple[str, ...] = ("query", "value")
    target_layers: tuple[int, ...] = (1, 2, 3, 4)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not (self.alpha > 0) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not self.target_modules:
            raise ValueError("target_modules must be non-empty")
        for m in self.target_modules:
            if m not in ATTENTION_MODULES:
                raise ValueError(f"unknown target module {m!r}")
        if len(set(self.target_modules)) != len(self.target_modules):
            raise ValueError(f"duplicate target modules in {self.target_modules}")
        if not self.target_layers:
            raise ValueError("target_layers must be non-empty")
        if len(set(self.target_layers)) != len(self.target_layers):
            raise ValueError(f"duplicate target layers in {self.target_layers}")
        for l in self.target_layers:
            if l < 1:
                raise ValueError(f"layers are 1-based, got {l}")

    @property
    def k(self) -> int:
        return len(self.target_modules)

    def targets(self):
        for m in self.target_modules:
            for l in self.target_layers:
                yield m, l

    def is_target(self, module: str, layer: int) -> bool:
        return module in self.target_modules and layer in self.target_layers

    def validate_for(self, config: ModelConfig) -> None:
        if self.rank > config.d_model:
            raise ValueError(f"rank {self.rank} exceeds d_model {config.d_model}")
        for l in self.target_layers:
            if l > config.n_layers:
                raise ValueError(f"target layer {l} exceeds n_layers {config.n_layers}")


@dataclass
class LoraParams:
    """Per-target factor pairs, keyed lora.<module>.<layer>.{A,B}."""

    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def pair(self, module: str, layer: int) -> tuple[np.ndarray, np.ndarray]:
        return self.tensors[f"lora.{module}.{layer}.A"], self.tensors[f"lora.{module}.{layer}.B"]


@dataclass
class CondLoraParams:
    """Per-module shared parameters, keyed cond.<module>.{thetaA,thetaB}."""

    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def pair(self, module: str) -> tuple[np.ndarray, np.ndarray]:
        return self.tensors[f"cond.{module}.thetaA"], self.tensors[f"cond.{module}.thetaB"]


AdapterParams = LoraParams | CondLoraParams


def tensor_shapes(spec: AdapterSpec, d: int | str) -> dict[str, tuple]:
    """Name -> shape of every tensor the spec's method keeps for projections of width d."""
    r = spec.rank
    if spec.method == "lora":
        return {f"lora.{m}.{l}.{x}": shape for m, l in spec.targets()
                for x, shape in (("A", (r, d)), ("B", (d, r)))}
    return {f"cond.{m}.{x}": (d, r) for m in spec.target_modules for x in ("thetaA", "thetaB")}


def _init_tensors(spec: AdapterSpec, d_model: int, seed: int) -> dict[str, np.ndarray]:
    """A-side factors ~ N(0, 1/r), seeded by tensor name; B-side factors zero."""
    return {
        name: matcore.gaussian(*shape, 0.0, 1.0 / spec.rank, _rng.derive_seed(seed, name))
        if name.endswith("A") else np.zeros(shape)
        for name, shape in tensor_shapes(spec, d_model).items()
    }


def init_lora(spec: AdapterSpec, d_model: int, seed: int) -> LoraParams:
    """A ~ N(0, 1/r) per target, B = 0, so every delta starts at zero."""
    _check_method(spec, "lora")
    return LoraParams(_init_tensors(spec, d_model, seed))


def init_condlora(spec: AdapterSpec, d_model: int, seed: int) -> CondLoraParams:
    """theta_A ~ N(0, 1/r) per module, theta_B = 0; deltas start at zero."""
    _check_method(spec, "condlora")
    return CondLoraParams(_init_tensors(spec, d_model, seed))


def _check_method(spec: AdapterSpec, expected: str) -> None:
    if spec.method != expected:
        raise ValueError(f"spec method is {spec.method!r}, expected {expected!r}")


def cond_a(w0: np.ndarray, theta_a: np.ndarray) -> np.ndarray:
    """(W0 @ theta_A)^T: d1 x d2 and d2 x r in, r x d1 out."""
    return matcore.matmul(w0, theta_a).T


def cond_b(w0: np.ndarray, theta_b: np.ndarray) -> np.ndarray:
    """W0^T @ theta_B: d1 x d2 and d1 x r in, d2 x r out."""
    return matcore.matmul(w0.T, theta_b)


def adapter_factors(
    params: AdapterParams, spec: AdapterSpec, w0: np.ndarray, module: str, layer: int
) -> tuple[np.ndarray, np.ndarray]:
    """The effective (A, B) pair for one target, materialized for condlora."""
    if not spec.is_target(module, layer):
        raise NotATargetError(f"({module}, layer {layer}) is not a target of this adapter")
    if spec.method == "lora":
        if not isinstance(params, LoraParams):
            raise ValueError("lora spec requires LoraParams")
        return params.pair(module, layer)
    if not isinstance(params, CondLoraParams):
        raise ValueError("condlora spec requires CondLoraParams")
    theta_a, theta_b = params.pair(module)
    return cond_a(w0, theta_a), cond_b(w0, theta_b)


def delta_w(
    params: AdapterParams, spec: AdapterSpec, w0: np.ndarray, module: str, layer: int
) -> np.ndarray:
    """(alpha / r) * B @ A for the target, d2 x d1 and rank at most r."""
    a, b = adapter_factors(params, spec, w0, module, layer)
    return (spec.alpha / spec.rank) * (b @ a)


def materialize_deltas(
    params: AdapterParams, spec: AdapterSpec, weights: BaseWeights
) -> dict[tuple[str, int], np.ndarray]:
    return {
        (m, l): delta_w(params, spec, weights.projection(m, l), m, l)
        for m, l in spec.targets()
    }


def merge(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec) -> BaseWeights:
    """Fold every delta into the base weights once.

    Merging is additive: merging the same params twice yields base + 2*delta,
    so callers must merge exactly once per adapter.
    """
    updates = {}
    for (m, l), dw in materialize_deltas(params, spec, weights).items():
        updates[f"layer{l}.{m}"] = weights.projection(m, l) + dw
    return weights.replace(updates)


def forward_with_adapters(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec, tokens):
    from . import model

    return model.forward(weights, materialize_deltas(params, spec, weights), tokens)


def count_trainable(spec: AdapterSpec, d1: int, d2: int | None = None) -> int:
    """(d1*r + d2*r) * k * n_layers for lora; (d1*r + d2*r) * k for condlora."""
    if d2 is None:
        d2 = d1
    per_pair = d1 * spec.rank + d2 * spec.rank
    if spec.method == "lora":
        return per_pair * spec.k * len(spec.target_layers)
    return per_pair * spec.k


# --- checkpoint io ----------------------------------------------------------

def check_shapes(params: AdapterParams, spec: AdapterSpec, d_model: int) -> None:
    """Reject a tensor whose shape does not fit spec at width d_model."""
    for name, shape in tensor_shapes(spec, d_model).items():
        rows, cols = params.tensors[name].shape
        if (rows, cols) != shape:
            raise ValueError(
                f"adapter tensor {name} is {rows}x{cols}, "
                f"expected {shape[0]}x{shape[1]} for d_model {d_model}"
            )


_CHECKPOINT = matcore.CheckpointFormat(
    "SPEC",
    {
        "method": ("method", str, str),
        "r": ("rank", int, str),
        "alpha": ("alpha", matcore.positive_float, matcore.format_float),
        "modules": ("target_modules", matcore.parse_items, matcore.format_items),
        "layers": ("target_layers", matcore.parse_layers, matcore.format_items),
    },
    AdapterSpec,
    lambda spec: tensor_shapes(spec, "d").items(),
)


def save_adapter(path, params: AdapterParams, spec: AdapterSpec) -> None:
    matcore.save_checkpoint(path, _CHECKPOINT, spec, params.tensors)


def load_adapter(path) -> tuple[AdapterParams, AdapterSpec]:
    spec, tensors = matcore.load_checkpoint(path, _CHECKPOINT)
    params = LoraParams(tensors) if spec.method == "lora" else CondLoraParams(tensors)
    return params, spec


def as_method(spec: AdapterSpec, method: str) -> AdapterSpec:
    """Same geometry (rank, alpha, targets) under the other parameterization."""
    return replace(spec, method=method)
