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
general differentiation engine. ``forward_pass`` is one plain-numpy pass, and
``backward`` is its hand-written reverse: from dL/dlogits it walks back through
the mean pooling, then layer by layer through LN2, the FFN, LN1 and the
softmax attention, and returns dL/dW for each targeted projection. It stops
after the lowest targeted layer. The layout follows the explicit per-layer
forward/backward of llm.c (https://github.com/karpathy/llm.c).

Workspace. Every activation and every backward temporary is written into the
preallocated buffers of a ``Cache``, views into one block, as llm.c's
``gpt2_forward`` sizes and allocates its ``acts_memory`` once. A
``Cache(keep_layers=True)`` keeps each layer's activations for ``backward``; a
plain ``Cache()`` holds one layer's buffers, which every layer of a
forward-only pass reuses. A batch runs in chunks of as many examples as a
training step's buffers hold in ``_WORKSPACE`` bytes (18 MiB, up to 65
desk examples; a forward-only pass takes the same chunks in about a quarter
of the bytes), so the workspace is bounded by that budget, not by the batch;
``forward_pass`` chunks a forward-only pass itself and
``trainer.loss_and_grads`` chunks a training step. Of a sweep of 8-32 MiB
over batches of 64 to 1024 on one and two CPUs (``BENCH_chunk_budget.json``)
the budget trained batch 256 fastest on two CPUs and slowed no batch beyond
the run-to-run spread, at one BLAS thread and at OpenBLAS's default.
``_rng.run_parts`` shares a batch's chunks among the CPUs the process may
run on, with OpenBLAS held to one thread, one workspace per worker
(``Cache._worker``): worker 0 uses the cache's own buffers and each other
worker a Cache the first one keeps, so the workspace is bounded by the
budget times the workers. Every product of the pass is taken per
example, so an example's logits have the same bits alone and in any batch
or chunk, and chunked logits, put back in chunk order, have the bits of
one whole pass on any number of CPUs. A caller that runs many passes keeps
one Cache, which reallocates only when the geometry or the token length
changes or a chunk outgrows it, so a training step allocates nothing large
and does not page-fault; a caller that passes none gets a fresh one.

Ownership. ``BaseWeights`` stores a read-only float64 array as it is and
copies any other. ``build_model`` and ``load_model`` mark their fresh arrays
read-only and hand them over, so the weights are never held twice, and
``replace`` shares every tensor it does not substitute.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import IO, Iterator

import numpy as np

from . import _rng, matcore

ATTENTION_MODULES = ("query", "key", "value", "output")
LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
# bytes of a training step's activation workspace per chunk of a batch (chunks):
# up to 65 desk examples, so a batch of 256 is four chunks (BENCH_chunk_budget.json)
_WORKSPACE = 18 << 20


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
            if f.name != "seed":
                _rng.check_int(f.name, getattr(self, f.name), 1)
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
    """Frozen tensor set for one ModelConfig; arrays are read-only.

    A read-only float64 array is stored as it is, with no copy; any other
    array is copied first, so a caller's array never becomes read-only
    behind its back and later writes to it do not reach the weights.
    """

    def __init__(self, config: ModelConfig, tensors: dict[str, np.ndarray]):
        layout = dict(tensor_layout(config))
        missing = sorted(set(layout) - set(tensors))
        extra = sorted(set(tensors) - set(layout))
        if missing or extra:
            raise ValueError(f"weight set mismatch: missing={missing} extra={extra}")
        store: dict[str, np.ndarray] = {}
        for name, shape in layout.items():
            a = tensors[name]
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                    and not a.flags.writeable):
                a = np.array(a, dtype=np.float64)
                a.flags.writeable = False
            if a.shape != shape:
                raise matcore.ShapeError(f"{name}: expected {shape}, got {a.shape}")
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
        """New weight set with the named tensors substituted; the rest are shared."""
        tensors = dict(self._tensors)
        for name, value in updates.items():
            if name not in tensors:
                raise KeyError(f"unknown tensor {name!r}")
            tensors[name] = value
        return BaseWeights(self.config, tensors)


def _frozen(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Mark fresh arrays read-only in place, so BaseWeights takes them without a copy."""
    for a in tensors.values():
        a.flags.writeable = False
    return tensors


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
    return BaseWeights(config, _frozen(tensors))


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


# The helpers below work in place on arrays their caller owns and write their
# results and temporaries into the buffers they are given (``out=None`` lets
# numpy allocate): at desk sizes a fresh temporary costs more than the
# arithmetic that fills it. Reductions over the short last axis go through
# ``_row_sum`` and ``_row_max``, since numpy reduces such rows one at a time.

def _row_sum(a: np.ndarray, out: np.ndarray | None = None,
             ones: np.ndarray | None = None) -> np.ndarray:
    """The sums over the last axis, keepdims, as the GEMV ``a @ ones``.

    ``ones`` is a column of ones as long as the last axis (allocated when
    None). An array of 3 or more axes goes as one GEMV per index of its first
    axis, the batch, so an example's sums do not depend on its place in the
    batch or on the batch size. BLAS adds in its own order, so a sum is within
    n·eps·Σ|a| of the exact one but not the bits of ``np.sum``.
    """
    n = a.shape[-1]
    ones = np.ones((n, 1)) if ones is None else ones
    rows = a.reshape(a.shape[0], -1, n) if a.ndim > 2 else a
    if out is None:
        return np.matmul(rows, ones).reshape(a.shape[:-1] + (1,))
    np.matmul(rows, ones, out=out.reshape(rows.shape[:-1] + (1,)))
    return out


def _row_max(z: np.ndarray, out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """``np.max(z, axis=-1, keepdims=True)``, bit for bit, by folding halves.

    The rows of z are the columns of its transposed (strided) view. The first
    pass takes the ``np.maximum`` of their first and second halves into the
    contiguous rows of ``tmp`` (half of z's size; allocated when None), and
    each later pass folds ``tmp`` in place the same way; an odd length folds
    its last column into the first. Max is exact, so the order of the folds
    cannot change the result.
    """
    n = z.shape[-1]
    src = z.reshape(-1, n).T
    out = np.empty(z.shape[:-1] + (1,)) if out is None else out
    flat = out.reshape(1, -1)
    if n == 1:
        np.copyto(flat, src)
        return out
    tmp = np.empty((n // 2, src.shape[1])) if tmp is None else tmp.reshape(n // 2, -1)
    while n > 1:
        h = n // 2
        dst = flat if h == 1 else tmp[:h]
        np.maximum(src[:h], src[h:2 * h], out=dst)
        if n % 2:
            np.maximum(dst[:1], src[2 * h:], out=dst[:1])
        src, n = dst, h
    return out


def _layer_norm(u: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                inv: np.ndarray | None = None, out: np.ndarray | None = None,
                ones: np.ndarray | None = None):
    """Layer norm over the last axis: (output, xhat, inv) with xhat = (u - mean) * inv.

    ``u`` is overwritten with xhat; ``out`` also serves as the temporary for u².
    """
    scale = 1.0 / u.shape[-1]
    mean = _row_sum(u, inv, ones)
    mean *= scale
    u -= mean
    inv = _row_sum(np.multiply(u, u, out=out), inv, ones)
    inv *= scale
    inv += LN_EPS
    inv **= -0.5
    u *= inv
    out = np.multiply(u, gain, out=out)
    out += bias
    return out, u, inv


def _layer_norm_backward(dy: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                         gain: np.ndarray, out: np.ndarray | None = None,
                         tmp: np.ndarray | None = None,
                         rows: tuple[np.ndarray, np.ndarray] = (None, None),
                         ones: np.ndarray | None = None) -> np.ndarray:
    scale = 1.0 / xhat.shape[-1]
    dxhat = np.multiply(dy, gain, out=out)
    dot = _row_sum(np.multiply(dxhat, xhat, out=tmp), rows[0], ones)
    dot *= scale
    mean = _row_sum(dxhat, rows[1], ones)
    mean *= scale
    dxhat -= mean
    dxhat -= np.multiply(xhat, dot, out=tmp)
    dxhat *= inv
    return dxhat


def _gelu(a: np.ndarray, t: np.ndarray | None = None, h: np.ndarray | None = None):
    """tanh-form GELU and its tanh term; smooth everywhere, which keeps
    finite-difference checks clean."""
    t = np.multiply(a, a, out=t)
    t *= a
    t *= 0.044715
    t += a
    t *= _GELU_C
    np.tanh(t, out=t)
    h = np.add(t, 1.0, out=h)
    h *= a
    h *= 0.5
    return h, t


def _gelu_backward(dh: np.ndarray, a: np.ndarray, t: np.ndarray,
                   inner: np.ndarray | None = None,
                   slope: np.ndarray | None = None) -> np.ndarray:
    """dh times the GELU slope 0.5 (1 + t) + 0.5 a (1 - t^2) c (1 + 3 * 0.044715 a^2);
    ``dh`` is overwritten."""
    inner = np.multiply(a, a, out=inner)
    inner *= 3 * 0.044715
    inner += 1.0
    inner *= _GELU_C
    slope = np.multiply(t, t, out=slope)
    np.subtract(1.0, slope, out=slope)
    slope *= a
    slope *= inner
    slope += t
    slope += 1.0
    slope *= 0.5
    dh *= slope
    return dh


def _softmax(z: np.ndarray, rows: np.ndarray | None = None, tmp: np.ndarray | None = None,
             ones: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, numerically stabilized; ``z`` is overwritten."""
    z -= _row_max(z, rows, tmp)
    np.exp(z, out=z)
    z /= _row_sum(z, rows, ones)
    return z


def _softmax_backward(dp: np.ndarray, p: np.ndarray, tmp: np.ndarray | None = None,
                      rows: np.ndarray | None = None,
                      ones: np.ndarray | None = None) -> np.ndarray:
    """dL/dz for p = softmax(z) over the last axis, given dL/dp; ``dp`` is overwritten."""
    dp -= _row_sum(np.multiply(dp, p, out=tmp), rows, ones)
    dp *= p
    return dp


def _split_heads(t: np.ndarray, n_heads: int) -> np.ndarray:
    """(batch, length, d) -> (batch, heads, length, d / heads), as a view."""
    batch, length, d = t.shape
    return t.reshape(batch, length, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _carve(groups: list[dict[str, tuple[int, ...]]]) -> list[dict[str, np.ndarray]]:
    """One {name: buffer} dict per group, all views into one allocation.

    A single large block is faulted in once, in huge pages where numpy
    advises them, instead of buffer by buffer; each view starts on a
    64-byte boundary of the block.
    """
    sizes = [[-(-math.prod(shape) // 8) * 8 for shape in group.values()] for group in groups]
    block = np.empty(sum(map(sum, sizes)))
    views, start = [], 0
    for group, group_sizes in zip(groups, sizes):
        views.append({})
        for (name, shape), size in zip(group.items(), group_sizes):
            views[-1][name] = block[start:start + math.prod(shape)].reshape(shape)
            start += size
    return views


def _groups(config: ModelConfig, batch: int, length: int, keep_layers: bool) -> list[dict]:
    """The {name: shape} groups of a Cache's per-example buffers: layers, scratch, grad."""
    act = (batch, length, config.d_model)
    wide = (batch, length, config.d_ff)
    rows = (batch, length, 1)
    heads = (batch, config.n_heads, length, length)
    layer = dict(q=act, k=act, v=act, p=heads, ctx=act, xhat1=act, inv1=rows,
                 a=wide, t=wide, xhat2=act, inv2=rows, y=act)
    scratch = dict(embed=act, y1=act, h=wide, head_rows=heads[:3] + (1,),
                   fold=heads[:3] + (length // 2,))
    grad = dict(dx=act, du=act, tmp=act, dctx=act, dm=act, da=wide, slope=wide,
                dp=heads, dp_tmp=heads, dot=rows, mean=rows) if keep_layers else {}
    return [layer] * (config.n_layers if keep_layers else 1) + [scratch, grad]


def chunks(config: ModelConfig, batch: int, length: int) -> list[slice]:
    """Consecutive slices covering a batch of ``batch`` x ``length`` tokens.

    The fewest chunks whose buffers would fit in ``_WORKSPACE`` bytes in
    a training step's workspace (a chunk is one example where one example
    alone does not fit), so the workspace does not grow with the batch; a
    batch that fits is one chunk. A forward-only pass is cut the same
    way, in about a quarter of the bytes: cut by its own buffers, its
    chunks would hold four times the examples, which ran slower out of
    cache on one CPU and left batches of 66 to 253 examples in one chunk
    on one of two CPUs. Sizes differ by at most one, the larger first,
    so the first chunk sizes the buffers for all.
    """
    per_example = 8 * sum(math.prod(shape) for group in _groups(config, 1, length, True)
                          for shape in group.values())
    cap = max(1, _WORKSPACE // per_example)
    n = -(-batch // cap)
    size, extra = divmod(batch, n)
    ends = itertools.accumulate([size + 1] * extra + [size] * (n - extra), initial=0)
    return [slice(start, end) for start, end in itertools.pairwise(ends)]


class Cache:
    """The activation workspace of ``forward_pass`` for one chunk of a batch.

    ``layers`` holds per layer the q/k/v projections, the softmax ``p``, the
    attention context ``ctx``, both layer norms' ``xhat`` and ``inv``, the FFN
    pre-activation ``a`` with its GELU tanh term ``t``, and the output ``y``;
    ``x`` (the input: the embeddings or the previous layer's ``y``) and
    ``proj`` (the projections used) are set by the pass. Without
    ``keep_layers`` there is one such set, which every layer overwrites in
    turn; from the second layer on, a layer's output overwrites its own
    input. With ``keep_layers``
    each layer keeps its own set for ``backward``, which also gets buffers of
    its own here. ``scratch`` also holds the fold buffer of ``_row_max``, and
    ``ones`` the ones columns of ``_row_sum``.

    A pass gets one chunk of a batch (``chunks``) at a time. Buffers are
    allocated by the first pass and again only when the model geometry or
    the token length changes or a chunk outgrows them; a smaller chunk gets
    their leading views. Every array a pass returns is fresh.

    ``_worker(i)`` is the workspace of worker i of ``_rng.run_parts``: the cache
    itself for worker 0, and for each other worker a Cache of the same kind,
    made on its first use and kept with this one.
    """

    def __init__(self, keep_layers: bool = False):
        self.keep_layers = keep_layers
        self.weights: BaseWeights | None = None
        self._key: tuple | None = None
        self._capacity = self._batch = 0
        self._workers: dict[int, Cache] = {}

    def _worker(self, index: int) -> "Cache":
        if index == 0:
            return self
        if index not in self._workers:  # only worker ``index`` asks for it
            self._workers[index] = Cache(self.keep_layers)
        return self._workers[index]

    def _fit(self, weights: BaseWeights, batch: int, length: int) -> None:
        self.weights = weights
        config = weights.config
        key = (config.n_layers, config.d_model, config.n_heads, config.d_ff, length)
        if key != self._key or batch > self._capacity:
            self._key, self._capacity, self._batch = key, batch, 0
            ones = dict(d=(config.d_model, 1), len=(length, 1))
            *self._full, self.ones = _carve(_groups(config, batch, length, self.keep_layers)
                                            + [ones])
            for a in self.ones.values():
                a.fill(1.0)
        if batch != self._batch:
            self._batch = batch
            *self.layers, self.scratch, self.grad = (
                {name: a[:batch] for name, a in group.items()} for group in self._full)


def forward_pass(
    weights: BaseWeights,
    tokens,
    projections: dict[tuple[str, int], np.ndarray] | None = None,
    cache: Cache | None = None,
) -> np.ndarray:
    """Logits of a batch, whose activations are written into ``cache``.

    ``projections`` overrides attention weights per (module, layer); the
    caller is responsible for their shapes. With no ``cache`` the pass uses a
    fresh forward-only one. A forward-only cache runs the batch in the chunks
    of ``chunks``, shared among the CPUs by ``_rng.run_parts``; a kept one
    (``keep_layers``) runs what it is given as one pass, for ``backward``, so
    its caller hands it one chunk at a time.
    """
    config = weights.config
    tokens = validate_tokens(config, tokens)
    cache = Cache() if cache is None else cache
    projections = projections or {}
    if cache.keep_layers:
        return _pass(weights, tokens, projections, cache)
    logits: list[np.ndarray] = []
    _rng.run_parts(chunks(config, *tokens.shape),
                   lambda rows, workspace: _pass(weights, tokens[rows], projections, workspace),
                   cache._worker, logits.append)
    return np.concatenate(logits)


def _pass(weights: BaseWeights, tokens: np.ndarray,
          projections: dict[tuple[str, int], np.ndarray], cache: Cache) -> np.ndarray:
    config = weights.config
    batch, length = tokens.shape
    cache._fit(weights, batch, length)
    n_heads = config.n_heads
    scale = 1.0 / math.sqrt(config.d_model // n_heads)
    s, ones = cache.scratch, cache.ones
    x = s["embed"]
    np.take(weights["embed.token"], tokens, axis=0, out=x)
    x += weights["embed.pos"][:length]
    for l in range(1, config.n_layers + 1):
        c = cache.layers[l - 1 if cache.keep_layers else 0]
        c["x"] = x
        proj = c["proj"] = {m: projections.get((m, l), weights.projection(m, l))
                            for m in ATTENTION_MODULES}
        for m in ("query", "key", "value"):
            np.matmul(x, proj[m], out=c[m[0]])
        q, k, v = (_split_heads(c[n], n_heads) for n in "qkv")
        p = np.matmul(q, k.swapaxes(-1, -2), out=c["p"])
        p *= scale
        _softmax(p, s["head_rows"], s["fold"], ones["len"])
        np.matmul(p, v, out=_split_heads(c["ctx"], n_heads))
        u = np.matmul(c["ctx"], proj["output"], out=c["xhat1"])
        u += x
        y1, _, _ = _layer_norm(u, weights[f"layer{l}.ln1.gain"], weights[f"layer{l}.ln1.bias"],
                               c["inv1"], s["y1"], ones["d"])
        a = np.matmul(y1, weights[f"layer{l}.ffn.w1"], out=c["a"])
        a += weights[f"layer{l}.ffn.b1"]
        h, _ = _gelu(a, c["t"], s["h"])
        u = np.matmul(h, weights[f"layer{l}.ffn.w2"], out=c["xhat2"])
        u += weights[f"layer{l}.ffn.b2"]
        u += y1
        x, _, _ = _layer_norm(u, weights[f"layer{l}.ln2.gain"], weights[f"layer{l}.ln2.bias"],
                              c["inv2"], c["y"], ones["d"])
    return (x.sum(axis=1, keepdims=True) * (1.0 / length) @ weights["head.out"])[:, 0, :]


def backward(cache: Cache, dlogits: np.ndarray,
             targets) -> dict[tuple[str, int], np.ndarray]:
    """dL/dW for each targeted (module, layer) projection, given dL/dlogits.

    Walks the layers top-down through the pooling, layer norms, FFN and
    attention of the pass that filled ``cache`` (a ``Cache(keep_layers=True)``),
    and stops after the lowest targeted layer, since nothing below it needs a
    gradient; there it also skips the product of each untargeted projection.
    """
    if not cache.keep_layers or cache.weights is None:
        raise ValueError("backward needs a Cache(keep_layers=True) filled by forward_pass")
    weights = cache.weights
    targets = set(targets)
    lowest = min(l for _, l in targets)
    batch, length, d = cache.scratch["embed"].shape
    n_heads = weights.config.n_heads
    scale = 1.0 / math.sqrt(d // n_heads)
    g, s, ones = cache.grad, cache.scratch, cache.ones
    rows = (g["dot"], g["mean"])
    dpooled = (dlogits[:, None, :] @ weights["head.out"].T)[:, 0, :] * (1.0 / length)
    dx = np.broadcast_to(dpooled[:, None, :], (batch, length, d))
    grads: dict[tuple[str, int], np.ndarray] = {}
    for l in range(len(cache.layers), lowest - 1, -1):
        c = cache.layers[l - 1]
        proj, p = c["proj"], c["p"]
        du2 = _layer_norm_backward(dx, c["xhat2"], c["inv2"], weights[f"layer{l}.ln2.gain"],
                                   g["du"], g["tmp"], rows, ones["d"])
        da = np.matmul(du2, weights[f"layer{l}.ffn.w2"].T, out=g["da"])
        _gelu_backward(da, c["a"], c["t"], s["h"], g["slope"])
        du2 += np.matmul(da, weights[f"layer{l}.ffn.w1"].T, out=g["tmp"])
        du1 = _layer_norm_backward(du2, c["xhat1"], c["inv1"], weights[f"layer{l}.ln1.gain"],
                                   g["dx"], g["tmp"], rows, ones["d"])
        if ("output", l) in targets:
            grads[("output", l)] = c["ctx"].reshape(-1, d).T @ du1.reshape(-1, d)
        dctx = _split_heads(np.matmul(du1, proj["output"].T, out=g["dctx"]), n_heads)
        v = _split_heads(c["v"], n_heads)
        dscores = np.matmul(dctx, v.swapaxes(-1, -2), out=g["dp"])
        _softmax_backward(dscores, p, g["dp_tmp"], s["head_rows"], ones["len"])
        dscores *= scale
        q, k = _split_heads(c["q"], n_heads), _split_heads(c["k"], n_heads)
        x = c["x"].reshape(-1, d)
        dx, dm = du1, g["dm"]
        for m, left, right in (("query", dscores, k), ("key", dscores.swapaxes(-1, -2), q),
                               ("value", p.swapaxes(-1, -2), dctx)):
            if l == lowest and (m, l) not in targets:
                continue
            np.matmul(left, right, out=_split_heads(dm, n_heads))
            if (m, l) in targets:
                grads[(m, l)] = x.T @ dm.reshape(-1, d)
            if l > lowest:
                dx += np.matmul(dm, proj[m].T, out=g["tmp"])
    return grads


def forward(
    weights: BaseWeights,
    deltas: dict[tuple[str, int], np.ndarray] | None,
    tokens,
    cache: Cache | None = None,
) -> np.ndarray:
    """Logits of the encoder; ``deltas`` maps (module, layer) to additive updates."""
    projections = {}
    for (module, layer), dw in (deltas or {}).items():
        w0 = weights.projection(module, layer)
        dw = matcore.as_matrix(dw, f"delta for ({module}, {layer})")
        if dw.shape != w0.shape:
            raise matcore.ShapeError(
                f"delta for ({module}, {layer}) has shape {dw.shape}, expected {w0.shape}"
            )
        projections[(module, layer)] = w0 + dw
    return forward_pass(weights, tokens, projections, cache)


# --- checkpoint io ----------------------------------------------------------

_CHECKPOINT = matcore.CheckpointFormat(
    "CONFIG", {f.name: (f.name, matcore.parse_int, str) for f in fields(ModelConfig)},
    ModelConfig, tensor_layout
)


def write_model(fh: IO[bytes], weights: BaseWeights) -> None:
    tensors = {name: weights[name] for name in weights.names()}
    matcore.write_checkpoint(fh, _CHECKPOINT, weights.config, tensors)


def save_model(path, weights: BaseWeights) -> None:
    with matcore.atomic_write(path, "wb") as fh:
        write_model(fh, weights)


def load_model(path) -> BaseWeights:
    config, tensors = matcore.load_checkpoint(path, _CHECKPOINT)
    return BaseWeights(config, _frozen(tensors))
