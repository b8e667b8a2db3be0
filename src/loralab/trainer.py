"""Training loop for adapter parameters over a frozen encoder.

Gradients are explicit. ``loss_and_grads`` builds every adapted projection
W = W0 + s·B·A (s = alpha / r) with ``adapters.adapted``, then runs the batch
in the chunks of ``model.chunks`` through a
``model.Cache(keep_layers=True)`` (``_steps`` reuses one for every step).
The chunks are shared among the CPUs the process may run on
(``_rng.run_parts``), each worker in a workspace of its own that the Cache
keeps. Per chunk a worker runs ``model.forward_pass``, takes dL/dlogits in
closed form, normalised by the whole batch (MSE on float targets:
2(logits - y)/N over the batch's N entries; cross-entropy on integer labels:
(softmax - onehot)/batch), and gets dL/dW per target from ``model.backward``.
A chunk's loss and dL/dW are added to the step's sums once every earlier
chunk's are, so the sums are taken in chunk order, as one worker takes them,
and only chunks finished ahead of that order wait; the sums are mapped onto
the adapter tensors with ``adapters.factor_grads``, once. So a step has the
same bits on any number of CPUs. An example's logits have the same bits in
any chunk, a chunk of one example included. A batch of one chunk (the desk
batch of 16) keeps the bits of one whole pass and starts no thread; a larger
one sums its loss and dL/dW in another order, within 1e-14 relative
(normwise) of one pass. The targets alone pick the loss, so a task fixes it
by what its batches hold.
``finite_difference_check`` provides the independent oracle: it only ever
evaluates ``loss_only``, the forward-only pass.

Optimization is Adam (``ADAM_BETAS``, ``ADAM_EPS``) with bias correction and a
linear-to-zero schedule: the effective rate at step s (1-based) is lr * max(0, 1 - s/max_steps).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import IO, Iterator

import numpy as np

from . import _rng, adapters, matcore, model
from .adapters import AdapterParams, AdapterSpec
from .model import BaseWeights

# Desk-scale teacher-task defaults. 5e-3 also trains cleanly but leaves the
# hidden delta only partially recovered within a 2000-step budget, which
# starves the conversion-matrix analysis of signal; 2e-2 converges fully for
# both methods on the default configuration.
DEFAULT_LEARNING_RATE = {"lora": 2e-2, "condlora": 2e-2}
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
FD_STEP = 1e-5  # central-difference step of the gradient oracle
GENERIC_STD = 0.2  # std of generic_params' displacement off the training init
EVAL_BATCHES = 4  # train_run's held-out batch, in training batches


@dataclass
class TrainConfig:
    learning_rate: float
    max_steps: int
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        _rng.check_real("learning_rate", self.learning_rate, "positive")
        _rng.check_int("batch_size", self.batch_size, 1)
        _rng.check_int("max_steps", self.max_steps, 0)


@dataclass
class TrainReport:
    losses: list[float]
    initial_loss: float
    final_loss: float
    examples_per_second: float
    trainable_param_count: int
    wall_clock_seconds: float
    seed: int


def _labels(targets, shape: tuple[int, int]) -> np.ndarray:
    """The targets as an array, checked against logits of ``shape``: integer
    class labels in range, or float MSE targets of that shape, as float64."""
    labels = np.asarray(targets)
    if not np.issubdtype(labels.dtype, np.integer):
        if labels.shape != shape:
            raise matcore.ShapeError(
                f"mse targets shape {labels.shape} does not match logits {shape}"
            )
        return labels.astype(np.float64, copy=False)
    batch, n_out = shape
    if labels.ndim != 1 or labels.shape[0] != batch:
        raise matcore.ShapeError(
            f"cross_entropy labels shape {labels.shape} does not match batch {batch}"
        )
    if (labels < 0).any() or (labels >= n_out).any():
        raise ValueError(f"labels out of range [0, {n_out})")
    return labels


def _loss(logits: np.ndarray, targets, total: int | None = None) -> tuple[float, np.ndarray]:
    """The loss and its gradient with respect to the logits: cross-entropy
    for integer class labels, MSE for float targets.

    The logits are rows of a batch of ``total`` examples (by default they are
    all of it), and both are normalised by the whole batch, so the losses of
    a batch's chunks sum to its loss.
    """
    labels = _labels(targets, logits.shape)
    batch, n_out = logits.shape
    total = batch if total is None else total
    if labels.dtype == np.float64:
        diff = logits - labels
        size = total * n_out
        return float((diff * diff).sum() * (1.0 / size)), diff * (2.0 / size)
    onehot = np.zeros(logits.shape)
    onehot[np.arange(batch), labels] = 1.0
    top = logits.max(axis=-1)
    lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=-1))
    loss = (lse - (logits * onehot).sum(axis=-1)).sum() * (1.0 / total)
    return float(loss), (np.exp(logits - lse[:, None]) - onehot) * (1.0 / total)


def loss_only(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec, batch,
              cache: model.Cache | None = None) -> float:
    tokens, targets = batch
    _, projections = adapters.adapted(weights, params, spec)
    logits = model.forward_pass(weights, tokens, projections, cache)
    return _loss(logits, targets)[0]


def loss_and_grads(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec, batch,
                   cache: model.Cache | None = None) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus gradients for exactly the trainable tensors.

    ``cache``, a ``model.Cache(keep_layers=True)``, is the activation
    workspace; a caller that steps repeatedly passes the same one. The batch
    goes through it in the chunks of ``model.chunks``, forward and backward
    per chunk, shared among the CPUs by ``_rng.run_parts``, and the chunks'
    losses and dL/dW are summed in chunk order: a batch of one chunk gets the
    bits of one pass, a larger one sums in another order, the same on any
    number of CPUs. A non-finite loss is a ``NumericError``; with several,
    it is the lowest-indexed chunk's.
    """
    tokens, targets = batch
    factors, projections = adapters.adapted(weights, params, spec)
    if cache is None:
        cache = model.Cache(keep_layers=True)
    tokens = model.validate_tokens(weights.config, tokens)
    total = tokens.shape[0]
    labels = _labels(targets, (total, weights.config.n_outputs))

    def chunk(rows: slice, workspace: model.Cache):
        logits = model.forward_pass(weights, tokens[rows], projections, workspace)
        part, dlogits = _loss(logits, labels[rows], total)
        if not np.isfinite(part):
            raise matcore.NumericError(f"non-finite loss {part!r}")
        return part, model.backward(workspace, dlogits, projections)

    loss, dws = 0.0, {}

    def fold(result) -> None:
        nonlocal loss
        part, grads = result
        loss += part
        for key, dw in grads.items():
            if key in dws:
                dws[key] += dw
            else:
                dws[key] = dw

    _rng.run_parts(model.chunks(weights.config, *tokens.shape), chunk, cache._worker, fold)
    return loss, adapters.factor_grads(weights, params, spec, factors, dws)


def schedule_factor(step: int, max_steps: int) -> float:
    """Linear decay to zero; step is 1-based, factor 0 at step == max_steps."""
    if max_steps <= 0:
        return 0.0
    return max(0.0, 1.0 - step / max_steps)


@dataclass
class AdamState:
    """Adam's moment estimates: one flat array each, in the order of the tensors."""
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, step: int, config: TrainConfig) -> dict[str, np.ndarray]:
    """One Adam update (bias-corrected); mutates state, returns new tensors.

    The tensors and their gradients are concatenated once, so the update is a
    few passes over two flat arrays, however many tensors there are. Every
    element gets the per-tensor rule's operations in the same order,

        m = b1·m + (1 - b1)·g,   v = b2·v + (1 - b2)·g²,
        new = value - lr·(m / (1 - b1^step)) / (sqrt(v / (1 - b2^step)) + eps),

    so the bits are those of the rule applied tensor by tensor. The returned
    tensors are views into one fresh flat array.
    """
    if step < 1:
        raise ValueError(f"step is 1-based, got {step}")
    lr = config.learning_rate * schedule_factor(step, config.max_steps)
    b1, b2 = ADAM_BETAS
    params = np.concatenate([value.ravel() for value in tensors.values()])
    g = np.concatenate([grads[key].ravel() for key in tensors])
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    m_hat = m / (1.0 - b1 ** step)
    v_hat = v / (1.0 - b2 ** step)
    params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    out: dict[str, np.ndarray] = {}
    start = 0
    for key, value in tensors.items():
        out[key] = params[start:start + value.size].reshape(value.shape)
        start += value.size
    return out


def generic_params(spec: AdapterSpec, d_model: int, seed: int) -> AdapterParams:
    """Adapter parameters at a generic point, both factors nonzero.

    At the training initialization the B-side factors are exactly zero, which
    makes the A-side gradients identically zero; gradient verification must
    displace off that point to exercise every tensor.
    """
    params = adapters.init_params(spec, d_model, seed)
    tensors = {
        key: value + matcore.gaussian(
            *value.shape, 0.0, GENERIC_STD, _rng.derive_seed(seed, "generic." + key)
        )
        for key, value in params.tensors.items()
    }
    return replace(params, tensors=tensors)


def _steps(weights: BaseWeights, spec: AdapterSpec, task, config: TrainConfig,
           params: AdapterParams) -> Iterator[tuple[float, AdapterParams]]:
    """Each next() takes one training step from params on and yields (loss, params).

    The loss is the batch's before the update; a numeric error names the 1-based
    step. Closing the generator frees its ``AdamState`` and kept ``Cache``.
    """
    state = AdamState()
    cache = model.Cache(keep_layers=True)
    for step in itertools.count(1):
        batch = task.batch(step, config.batch_size)
        try:
            loss, grads = loss_and_grads(weights, params, spec, batch, cache)
        except matcore.NumericError as exc:
            raise matcore.NumericError(f"step {step}: {exc}") from exc
        params = replace(params, tensors=adam_step(params.tensors, grads, state, step, config))
        yield loss, params


def train_run(weights: BaseWeights, spec: AdapterSpec, task, config: TrainConfig,
              eval_batches: int = EVAL_BATCHES) -> tuple[AdapterParams, TrainReport]:
    """Adapter training; deterministic given (model, adapter, data) seeds.

    The initial and final losses are measured on a fixed held-out batch so
    the two are directly comparable; per-step losses are the training-batch
    values before each update.
    """
    spec.validate_for(weights.config)
    params = adapters.init_params(spec, weights.config.d_model, config.seed)
    eval_batch = task.eval_batch(eval_batches * config.batch_size)
    initial_loss = loss_only(weights, params, spec, eval_batch)
    steps = _steps(weights, spec, task, config, params)
    losses: list[float] = []
    started = time.perf_counter()
    for loss, params in itertools.islice(steps, config.max_steps):
        losses.append(loss)
    elapsed = time.perf_counter() - started
    steps.close()  # free the training workspace before loss_only builds its own
    final_loss = loss_only(weights, params, spec, eval_batch)
    rate = (config.max_steps * config.batch_size / elapsed) if config.max_steps and elapsed > 0 else 0.0
    report = TrainReport(
        losses=losses,
        initial_loss=initial_loss,
        final_loss=final_loss,
        examples_per_second=rate,
        trainable_param_count=adapters.count_trainable(spec, weights.config.d_model),
        wall_clock_seconds=elapsed,
        seed=config.seed,
    )
    return params, report


def bench_throughput(weights: BaseWeights, spec: AdapterSpec, task, seconds: float,
                     config: TrainConfig) -> float:
    """Full training iterations per second times batch size, after 10 warm-up steps."""
    if not 1 <= seconds < math.inf:
        raise ValueError(f"seconds must be finite and >= 1, got {seconds}")
    steps = _steps(weights, spec, task, config,
                   adapters.init_params(spec, weights.config.d_model, config.seed))
    for _ in range(10):
        next(steps)
    started = time.perf_counter()
    for count, _ in enumerate(steps, 1):
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            break
    return count * config.batch_size / elapsed


def fd_gradients(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec,
                 batch) -> dict[str, np.ndarray]:
    """Central finite-difference gradients, one loss evaluation pair per entry.

    Only ever evaluates the loss, so it is independent of the backward pass.
    """
    cache = model.Cache()
    out: dict[str, np.ndarray] = {}
    for key, tensor in params.tensors.items():
        flat = tensor.ravel()
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + FD_STEP
            up = loss_only(weights, params, spec, batch, cache)
            flat[i] = original - FD_STEP
            down = loss_only(weights, params, spec, batch, cache)
            flat[i] = original
            fd[i] = (up - down) / (2.0 * FD_STEP)
        out[key] = fd.reshape(tensor.shape)
    return out


def gradient_errors(analytic: dict[str, np.ndarray],
                    fd: dict[str, np.ndarray]) -> dict[str, float]:
    """Per tensor: ||g - g_fd|| / max(||g||, ||g_fd||, 1e-12)."""
    errors: dict[str, float] = {}
    for key, g in analytic.items():
        f = fd[key]
        denom = max(float(np.linalg.norm(g)), float(np.linalg.norm(f)), 1e-12)
        errors[key] = float(np.linalg.norm(g - f)) / denom
    return errors


def finite_difference_check(weights: BaseWeights, params: AdapterParams, spec: AdapterSpec,
                            batch) -> dict[str, float]:
    """Relative error of the analytic gradients against the central-difference oracle."""
    _, grads = loss_and_grads(weights, params, spec, batch)
    fd = fd_gradients(weights, params, spec, batch)
    return gradient_errors(grads, fd)


# --- report serialization ----------------------------------------------------

def write_report(fh: IO[str], report: TrainReport) -> None:
    fh.write("step,loss\n")
    fh.write(f"0,{report.initial_loss:.17g}\n")
    for step, loss in enumerate(report.losses, start=1):
        fh.write(f"{step},{loss:.17g}\n")
    fh.write(
        f"final_loss={report.final_loss:.17g} "
        f"examples_per_second={report.examples_per_second:.6g} "
        f"params={report.trainable_param_count} "
        f"seconds={report.wall_clock_seconds:.6g}\n"
    )
