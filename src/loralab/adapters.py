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

One ``AdapterParams`` holds either method's tensors; the ``AdapterSpec`` it
travels with says which. ``adapted`` (tensors to factors to adapted
projections W0 + (alpha / r) * B @ A) is the one forward map: training,
``merge``, ``forward_with_adapters`` and the teacher task's hidden update all
go through it, and training through its adjoint ``factor_grads`` too.
``delta_w`` and ``materialize_deltas`` give the delta matrices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import IO

import numpy as np

from . import _rng, matcore, model
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
        _rng.check_int("rank", self.rank, 1)
        _rng.check_real("alpha", self.alpha, "positive")
        for name in ("target_modules", "target_layers"):  # a tuple keeps the spec hashable
            if not isinstance(getattr(self, name), tuple):
                raise ValueError(f"{name} must be a tuple, got {getattr(self, name)!r}")
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
            _rng.check_int("target layer", l, 1)

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
class AdapterParams:
    """The trainable tensors of one adapter, keyed by the names ``_keys`` writes.

    Which method they parameterize is read from the AdapterSpec they travel with.
    """

    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def _keys(spec: AdapterSpec, module: str, layer: int) -> tuple[str, str]:
    """Names of the A-side and B-side tensors that one target's factors come from."""
    if spec.method == "lora":
        return f"lora.{module}.{layer}.A", f"lora.{module}.{layer}.B"
    return f"cond.{module}.thetaA", f"cond.{module}.thetaB"


def tensor_shapes(spec: AdapterSpec, d: int | str) -> dict[str, tuple]:
    """Name -> shape of every tensor the spec's method keeps for projections of width d.

    The order, targets in spec order with A before B, is the order of the
    tensors in a checkpoint file and in Adam's flat moment arrays.
    """
    r = spec.rank
    a_shape = (r, d) if spec.method == "lora" else (d, r)
    shapes = {}
    for m, l in spec.targets():
        key_a, key_b = _keys(spec, m, l)
        shapes[key_a], shapes[key_b] = a_shape, (d, r)
    return shapes


def init_params(spec: AdapterSpec, d_model: int, seed: int) -> AdapterParams:
    """A-side tensors ~ N(0, 1/r), seeded by tensor name; B-side tensors zero."""
    return AdapterParams({
        name: matcore.gaussian(*shape, 0.0, 1.0 / spec.rank, _rng.derive_seed(seed, name))
        if name.endswith("A") else np.zeros(shape)
        for name, shape in tensor_shapes(spec, d_model).items()
    })


def cond_a(w0: np.ndarray, theta_a: np.ndarray) -> np.ndarray:
    """(W0 @ theta_A)^T: d1 x d2 and d2 x r in, r x d1 out."""
    return matcore.matmul(w0, theta_a).T


def cond_b(w0: np.ndarray, theta_b: np.ndarray) -> np.ndarray:
    """W0^T @ theta_B: d1 x d2 and d1 x r in, d2 x r out."""
    return matcore.matmul(w0.T, theta_b)


_FACTORS = {  # (method, factor) -> the effective factor from W0 and the factor's tensor
    ("lora", "A"): lambda w0, a: a,
    ("lora", "B"): lambda w0, b: b,
    ("condlora", "A"): cond_a,
    ("condlora", "B"): cond_b,
}


def adapter_factors(
    params: AdapterParams, spec: AdapterSpec, w0: np.ndarray, module: str, layer: int,
    which: str = "AB",
) -> tuple[np.ndarray, ...]:
    """The effective factors that which names, in A, B order, for one target:
    (A, B) by default, materialized for condlora. A factor which omits is
    not made."""
    if not spec.is_target(module, layer):
        raise NotATargetError(f"({module}, layer {layer}) is not a target of this adapter")
    return tuple([_FACTORS[spec.method, f](w0, params.tensors[key])
                  for f, key in zip("AB", _keys(spec, module, layer)) if f in which])


def adapted(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec):
    """Per target: the effective factors (A, B), and the projection W0 + s·B·A."""
    s = spec.alpha / spec.rank
    factors, projections = {}, {}
    for m, l in spec.targets():
        w0 = weights.projection(m, l)
        a, b = factors[(m, l)] = adapter_factors(params, spec, w0, m, l)
        projections[(m, l)] = w0 + s * (b @ a)
    return factors, projections


def factor_grads(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec,
                 factors, dws) -> dict[str, np.ndarray]:
    """The adjoint of ``adapted``: dL/dW per target to dL/d(tensor) for every tensor.

    ``factors`` is what ``adapted`` returned and ``dws`` maps a target to
    dL/dW. The chain rule is closed form: for LoRA dA = s·Bᵀ·dW and
    dB = s·dW·Aᵀ; for CondLoRA the same rule gives dA_c and dB_c for the
    conditioned factors A_c = (W0·θ_A)ᵀ and B_c = W0ᵀ·θ_B, and
    dθ_A = W0ᵀ·dA_cᵀ and dθ_B = W0·dB_c are summed over the layers that
    share θ.
    """
    s = spec.alpha / spec.rank
    grads = {key: np.zeros_like(value) for key, value in params.tensors.items()}
    for (m, l), dw in dws.items():
        a, b = factors[(m, l)]
        da, db = s * (b.T @ dw), s * (dw @ a.T)
        if spec.method == "condlora":
            w0 = weights.projection(m, l)
            da, db = w0.T @ da.T, w0 @ db
        key_a, key_b = _keys(spec, m, l)
        grads[key_a] += da
        grads[key_b] += db
    return grads


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
    _, projections = adapted(weights, params, spec)
    return weights.replace({f"layer{l}.{m}": w for (m, l), w in projections.items()})


def forward_with_adapters(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec, tokens):
    return model.forward_pass(weights, tokens, adapted(weights, params, spec)[1])


def count_trainable(spec: AdapterSpec, d_model: int) -> int:
    """The total size of the spec's tensors: 2·d·r·k·n_layers for lora, 2·d·r·k for condlora."""
    return sum(rows * cols for rows, cols in tensor_shapes(spec, d_model).values())


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
        "r": ("rank", matcore.parse_int, str),
        "alpha": ("alpha", matcore.positive_real("alpha"), matcore.format_float),
        "modules": ("target_modules", matcore.parse_items, matcore.format_items),
        "layers": ("target_layers", matcore.parse_layers, matcore.format_items),
    },
    AdapterSpec,
    lambda spec: tensor_shapes(spec, "d").items(),
)


def write_adapter(fh: IO[bytes], params: AdapterParams, spec: AdapterSpec) -> None:
    matcore.write_checkpoint(fh, _CHECKPOINT, spec, params.tensors)


def save_adapter(path, params: AdapterParams, spec: AdapterSpec) -> None:
    with matcore.atomic_write(path, "wb") as fh:
        write_adapter(fh, params, spec)


def load_adapter(path) -> tuple[AdapterParams, AdapterSpec]:
    spec, tensors = matcore.load_checkpoint(path, _CHECKPOINT)
    return AdapterParams(tensors), spec


def as_method(spec: AdapterSpec, method: str) -> AdapterSpec:
    """Same geometry (rank, alpha, targets) under the other parameterization."""
    return replace(spec, method=method)
