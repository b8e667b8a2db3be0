"""Desk-scale transformer encoder with frozen, seeded base weights.

The encoder is post-layer-norm with learned absolute position embeddings,
scaled dot-product attention (no dropout, no attention biases) and a GELU
feed-forward block. Classification/regression logits come from mean pooling
over positions followed by one linear map.

Attention projections are the adaptation targets: ``forward`` optionally
takes a ``{(module, layer): delta}`` mapping and adds each delta to the
corresponding frozen projection before the pass. With no deltas (or all-zero
deltas) the output equals the frozen-base output bit for bit.

Training needs gradients for the attention projections only, so there is no
general differentiation engine. ``forward_pass`` is one plain-numpy pass that
can keep a per-layer ``Cache`` of the activations the backward reads, and
``backward`` is its hand-written reverse: from dL/dlogits it walks back through
the mean pooling, then layer by layer through LN2, the FFN, LN1 and the
softmax attention, and returns dL/dW for each targeted projection. It stops
after the lowest targeted layer. The layout follows the explicit per-layer
forward/backward of llm.c (https://github.com/karpathy/llm.c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from . import _rng, matcore

ATTENTION_MODULES = ("query", "key", "value", "output")
LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    d_model: int = 32
    n_heads: int = 4
    d_ff: int = 64
    vocab_size: int = 64
    max_len: int = 32
    n_outputs: int = 8
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.name != "seed" and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )


def tensor_layout(config: ModelConfig) -> Iterator[tuple[str, tuple[int, int]]]:
    """Canonical (name, shape) pairs in order, one layer at a time; vectors are 1 x n."""
    d, f = config.d_model, config.d_ff
    yield "embed.token", (config.vocab_size, d)
    yield "embed.pos", (config.max_len, d)
    yield "head.out", (d, config.n_outputs)
    for l in range(1, config.n_layers + 1):
        for m in ATTENTION_MODULES:
            yield f"layer{l}.{m}", (d, d)
        yield f"layer{l}.ffn.w1", (d, f)
        yield f"layer{l}.ffn.b1", (1, f)
        yield f"layer{l}.ffn.w2", (f, d)
        yield f"layer{l}.ffn.b2", (1, d)
        for ln in ("ln1", "ln2"):
            yield f"layer{l}.{ln}.gain", (1, d)
            yield f"layer{l}.{ln}.bias", (1, d)


class BaseWeights:
    """Frozen tensor set for one ModelConfig; arrays are read-only."""

    def __init__(self, config: ModelConfig, tensors: dict[str, np.ndarray]):
        layout = dict(tensor_layout(config))
        missing = sorted(set(layout) - set(tensors))
        extra = sorted(set(tensors) - set(layout))
        if missing or extra:
            raise ValueError(f"weight set mismatch: missing={missing} extra={extra}")
        store: dict[str, np.ndarray] = {}
        for name, shape in layout.items():
            a = np.array(tensors[name], dtype=np.float64)
            if a.shape != shape:
                raise matcore.ShapeError(f"{name}: expected {shape}, got {a.shape}")
            a.flags.writeable = False
            store[name] = a
        self.config = config
        self._tensors = store

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def projection(self, module: str, layer: int) -> np.ndarray:
        if module not in ATTENTION_MODULES:
            raise KeyError(f"unknown attention module {module!r}")
        return self._tensors[f"layer{layer}.{module}"]

    def replace(self, updates: dict[str, np.ndarray]) -> "BaseWeights":
        """New weight set with the named tensors substituted."""
        tensors = dict(self._tensors)
        for name, value in updates.items():
            if name not in tensors:
                raise KeyError(f"unknown tensor {name!r}")
            tensors[name] = value
        return BaseWeights(self.config, tensors)


def build_model(config: ModelConfig) -> BaseWeights:
    """Deterministic weights: Gaussian std 1/sqrt(d_model), zero biases, unit gains."""
    std = 1.0 / math.sqrt(config.d_model)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_layout(config):
        if name.endswith((".bias", ".b1", ".b2")):
            tensors[name] = np.zeros(shape)
        elif name.endswith(".gain"):
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = matcore.gaussian(
                shape[0], shape[1], 0.0, std, _rng.derive_seed(config.seed, "init." + name)
            )
    return BaseWeights(config, tensors)


def validate_tokens(config: ModelConfig, tokens) -> np.ndarray:
    a = np.asarray(tokens)
    if a.ndim != 2:
        raise ValueError(f"tokens must be a batch x length array, got {a.ndim}-D")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"token ids must be integers, got dtype {a.dtype}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"empty token batch {a.shape}")
    if a.shape[1] > config.max_len:
        raise ValueError(f"sequence length {a.shape[1]} exceeds max_len {config.max_len}")
    if (a < 0).any() or (a >= config.vocab_size).any():
        bad = int(a[(a < 0) | (a >= config.vocab_size)][0])
        raise ValueError(f"token id {bad} out of range [0, {config.vocab_size})")
    return a.astype(np.int64)


# The helpers below work in place on arrays their caller owns: at desk sizes
# a fresh temporary costs more than the arithmetic that fills it.

def _layer_norm(u: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm over the last axis: (output, xhat, inv) with xhat = (u - mean) * inv.

    ``u`` is overwritten with xhat.
    """
    scale = 1.0 / u.shape[-1]
    u -= u.sum(axis=-1, keepdims=True) * scale
    inv = ((u * u).sum(axis=-1, keepdims=True) * scale + LN_EPS) ** -0.5
    u *= inv
    out = u * gain
    out += bias
    return out, u, inv


def _layer_norm_backward(dy: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                         gain: np.ndarray) -> np.ndarray:
    scale = 1.0 / xhat.shape[-1]
    dxhat = dy * gain
    dot = (dxhat * xhat).sum(axis=-1, keepdims=True)
    dot *= scale
    dxhat -= dxhat.sum(axis=-1, keepdims=True) * scale
    dxhat -= xhat * dot
    dxhat *= inv
    return dxhat


def _gelu(a: np.ndarray):
    """tanh-form GELU and its tanh term; smooth everywhere, which keeps
    finite-difference checks clean."""
    t = a * a
    t *= a
    t *= 0.044715
    t += a
    t *= _GELU_C
    np.tanh(t, out=t)
    h = t + 1.0
    h *= a
    h *= 0.5
    return h, t


def _gelu_backward(dh: np.ndarray, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """dh times the GELU slope 0.5 (1 + t) + 0.5 a (1 - t^2) c (1 + 3 * 0.044715 a^2);
    ``dh`` is overwritten."""
    inner = a * a
    inner *= 3 * 0.044715
    inner += 1.0
    inner *= _GELU_C
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    slope *= a
    slope *= inner
    slope += t
    slope += 1.0
    slope *= 0.5
    dh *= slope
    return dh


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, numerically stabilized; ``z`` is overwritten."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _softmax_backward(dp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """dL/dz for p = softmax(z) over the last axis, given dL/dp; ``dp`` is overwritten."""
    dp -= (dp * p).sum(axis=-1, keepdims=True)
    dp *= p
    return dp


def _split_heads(t: np.ndarray, n_heads: int) -> np.ndarray:
    """(batch, length, d) -> (batch, heads, length, d / heads), as a view."""
    batch, length, d = t.shape
    return t.reshape(batch, length, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(t: np.ndarray) -> np.ndarray:
    batch, n_heads, length, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(batch, length, n_heads * dh)


@dataclass
class Cache:
    """What ``backward`` reads from one forward pass: per layer the input ``x``,
    the projections used, q/k/v heads, softmax ``p``, attention context ``ctx``,
    both layer norms' ``xhat``/``inv``, and the FFN pre-activation ``a`` with
    its GELU tanh term ``t``."""

    weights: BaseWeights
    layers: list[dict[str, object]]


def forward_pass(
    weights: BaseWeights,
    tokens,
    projections: dict[tuple[str, int], np.ndarray] | None = None,
    keep_cache: bool = False,
) -> tuple[np.ndarray, list[np.ndarray], Cache | None]:
    """Logits, per-layer hidden states and, with ``keep_cache``, a ``Cache``.

    ``projections`` overrides attention weights per (module, layer); the
    caller is responsible for their shapes.
    """
    config = weights.config
    tokens = validate_tokens(config, tokens)
    length = tokens.shape[1]
    scale = 1.0 / math.sqrt(config.d_model // config.n_heads)
    projections = projections or {}
    x = weights["embed.token"][tokens] + weights["embed.pos"][:length]
    hidden: list[np.ndarray] = []
    layers: list[dict[str, object]] = []
    for l in range(1, config.n_layers + 1):
        proj = {m: projections.get((m, l), weights.projection(m, l)) for m in ATTENTION_MODULES}
        q, k, v = (_split_heads(x @ proj[m], config.n_heads) for m in ("query", "key", "value"))
        scores = q @ k.swapaxes(-1, -2)
        scores *= scale
        p = _softmax(scores)
        ctx = _merge_heads(p @ v)
        u = ctx @ proj["output"]
        u += x
        y1, xhat1, inv1 = _layer_norm(u, weights[f"layer{l}.ln1.gain"],
                                      weights[f"layer{l}.ln1.bias"])
        a = y1 @ weights[f"layer{l}.ffn.w1"]
        a += weights[f"layer{l}.ffn.b1"]
        h, t = _gelu(a)
        u = h @ weights[f"layer{l}.ffn.w2"]
        u += weights[f"layer{l}.ffn.b2"]
        u += y1
        y2, xhat2, inv2 = _layer_norm(u, weights[f"layer{l}.ln2.gain"],
                                      weights[f"layer{l}.ln2.bias"])
        if keep_cache:
            layers.append({"x": x, "proj": proj, "q": q, "k": k, "v": v, "p": p, "ctx": ctx,
                           "xhat1": xhat1, "inv1": inv1, "a": a, "t": t,
                           "xhat2": xhat2, "inv2": inv2})
        x = y2
        hidden.append(x)
    logits = (x.sum(axis=1) * (1.0 / length)) @ weights["head.out"]
    return logits, hidden, (Cache(weights, layers) if keep_cache else None)


def backward(cache: Cache, dlogits: np.ndarray,
             targets) -> dict[tuple[str, int], np.ndarray]:
    """dL/dW for each targeted (module, layer) projection, given dL/dlogits.

    Walks the layers top-down through the pooling, layer norms, FFN and
    attention of the pass that filled ``cache``, and stops after the lowest
    targeted layer, since nothing below it needs a gradient.
    """
    weights = cache.weights
    targets = set(targets)
    lowest = min(l for _, l in targets)
    batch, length, d = cache.layers[0]["x"].shape
    n_heads = weights.config.n_heads
    scale = 1.0 / math.sqrt(d // n_heads)
    dpooled = (dlogits @ weights["head.out"].T) * (1.0 / length)
    dx = np.broadcast_to(dpooled[:, None, :], (batch, length, d))
    grads: dict[tuple[str, int], np.ndarray] = {}
    for l in range(len(cache.layers), lowest - 1, -1):
        c = cache.layers[l - 1]
        proj, p = c["proj"], c["p"]
        du2 = _layer_norm_backward(dx, c["xhat2"], c["inv2"], weights[f"layer{l}.ln2.gain"])
        da = _gelu_backward(du2 @ weights[f"layer{l}.ffn.w2"].T, c["a"], c["t"])
        du2 += da @ weights[f"layer{l}.ffn.w1"].T
        du1 = _layer_norm_backward(du2, c["xhat1"], c["inv1"], weights[f"layer{l}.ln1.gain"])
        if ("output", l) in targets:
            grads[("output", l)] = c["ctx"].reshape(-1, d).T @ du1.reshape(-1, d)
        dctx = _split_heads(du1 @ proj["output"].T, n_heads)
        dscores = _softmax_backward(dctx @ c["v"].swapaxes(-1, -2), p)
        dscores *= scale
        dheads = {"query": dscores @ c["k"], "key": dscores.swapaxes(-1, -2) @ c["q"],
                  "value": p.swapaxes(-1, -2) @ dctx}
        x = c["x"].reshape(-1, d)
        dx = du1
        for m, dh in dheads.items():
            dm = _merge_heads(dh)
            if (m, l) in targets:
                grads[(m, l)] = x.T @ dm.reshape(-1, d)
            if l > lowest:
                dx += dm @ proj[m].T
    return grads


def forward(
    weights: BaseWeights,
    deltas: dict[tuple[str, int], np.ndarray] | None,
    tokens,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the encoder; ``deltas`` maps (module, layer) to additive updates."""
    projections = {}
    for (module, layer), dw in (deltas or {}).items():
        w0 = weights.projection(module, layer)
        dw = matcore.as_matrix(dw, f"delta for ({module}, {layer})")
        if dw.shape != w0.shape:
            raise matcore.ShapeError(
                f"delta for ({module}, {layer}) has shape {dw.shape}, expected {w0.shape}"
            )
        projections[(module, layer)] = w0 + dw
    logits, hidden, _ = forward_pass(weights, tokens, projections)
    return logits, hidden


# --- checkpoint io ----------------------------------------------------------

_CHECKPOINT = matcore.CheckpointFormat(
    "CONFIG", {f.name: (f.name, int, str) for f in fields(ModelConfig)}, ModelConfig, tensor_layout
)


def save_model(path, weights: BaseWeights) -> None:
    tensors = {name: weights[name] for name in weights.names()}
    matcore.save_checkpoint(path, _CHECKPOINT, weights.config, tensors)


def load_model(path) -> BaseWeights:
    return BaseWeights(*matcore.load_checkpoint(path, _CHECKPOINT))
