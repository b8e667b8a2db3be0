"""Synthetic objectives for desk-scale adapter training.

TeacherTask hides a low-rank update inside a copy of the base model's query
and value projections and asks the student to match the perturbed model's
logits (MSE, on its float logits). The update, ``TeacherTask.hidden``, is a
CondLoRA adapter at the task's rank r on query and value in every layer, with
alpha = 0.5 * r / sqrt(d), folded in by ``adapters.merge``: one Gaussian
(theta_A*, theta_B*) pair per module, shared by all layers, adds to W0

    delta* = (0.5 / sqrt(d)) * (W0^T theta_B*) (W0 theta_A*)^T

Conditioning the hidden deltas on each layer's own frozen weights gives the
task a genuine cross-layer structure: per-layer rank-r adapters can fit it, a
single shared linear map can fit it, and weight-space analysis of a trained
run has an actual commonality to detect. Independent per-layer deltas would
make the layer-similarity analysis a pure noise measurement.

ParityTask is a sanity classification task (cross-entropy, on its integer
labels): label 1 when a designated marker token appears an even number of times
(zero included), else 0. ``check_task`` holds every check of a task's settings
against the model, so a config file is checked when it is read.

Both tasks draw batches statelessly from counter-derived streams, so batch t
of a given task is a pure function of (seed, t).
"""

from __future__ import annotations

import math

import numpy as np

from . import _rng, adapters, model
from .model import BaseWeights, ModelConfig

TASK_KINDS = ("teacher", "parity")


def check_task(kind: str, config: ModelConfig, seq_len: int, rank: int = 0) -> None:
    """Raise ValueError unless a ``kind`` task fits config; only the teacher has a rank."""
    if kind not in TASK_KINDS:
        raise ValueError(f"unknown task kind {kind!r}, expected one of {TASK_KINDS}")
    if not 1 <= seq_len <= config.max_len:
        raise ValueError(f"seq_len {seq_len} outside [1, {config.max_len}]")
    if kind == "teacher" and not 0 <= rank <= config.d_model:
        raise ValueError(f"teacher rank {rank} outside [0, {config.d_model}]")
    if kind == "parity" and config.n_outputs < 2:
        raise ValueError(f"parity needs n_outputs >= 2, got {config.n_outputs}")


def _token_batch(config, seed: int, label: str, batch_size: int, seq_len: int) -> np.ndarray:
    stream = _rng.derive_seed(seed, f"tokens.{label}")
    flat = _rng.randint_block(batch_size * seq_len, config.vocab_size, stream)
    return flat.reshape(batch_size, seq_len)


def _hidden_adapter(config: ModelConfig, rank: int, seed: int):
    """The teacher's (AdapterParams, AdapterSpec): condlora on query and value in every layer.

    Tensor cond.<m>.thetaA/B is the Gaussian stream labelled teacher.<m>.thetaA/B.
    """
    d = config.d_model
    spec = adapters.AdapterSpec("condlora", rank, rank * (0.5 / math.sqrt(d)),
                                ("query", "value"), tuple(range(1, config.n_layers + 1)))
    tensors = {}
    for name, shape in adapters.tensor_shapes(spec, d).items():
        stream = _rng.derive_seed(seed, name.replace("cond.", "teacher.", 1))
        tensors[name] = _rng.gaussian_block(d * rank, stream).reshape(shape)
    return adapters.AdapterParams(tensors), spec


class TeacherTask:
    def __init__(self, weights: BaseWeights, rank: int, seed: int, seq_len: int = 16):
        check_task("teacher", weights.config, seq_len, rank)
        # rank 0 hides no update: the teacher is the base model itself
        self.hidden = _hidden_adapter(weights.config, rank, seed) if rank else None
        self._teacher = adapters.merge(weights, *self.hidden) if rank else weights
        self._cache = model.Cache()
        self._config = weights.config
        self.rank = rank
        self.seed = seed
        self.seq_len = seq_len

    def batch(self, index, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        tokens = _token_batch(self._config, self.seed, str(index), batch_size, self.seq_len)
        targets = model.forward_pass(self._teacher, tokens, cache=self._cache)
        return tokens, targets

    def eval_batch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        return self.batch("eval", batch_size)


class ParityTask:
    marker_token = 0

    def __init__(self, weights: BaseWeights, seed: int, seq_len: int = 16):
        check_task("parity", weights.config, seq_len)
        self._config = weights.config
        self.seed = seed
        self.seq_len = seq_len

    def batch(self, index, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        tokens = _token_batch(self._config, self.seed, str(index), batch_size, self.seq_len)
        counts = (tokens == self.marker_token).sum(axis=1)
        labels = np.where(counts % 2 == 0, 1, 0).astype(np.int64)
        return tokens, labels

    def eval_batch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        return self.batch("eval", batch_size)


def build_task(kind: str, weights: BaseWeights, seed: int, rank: int = 4, seq_len: int = 16):
    check_task(kind, weights.config, seq_len, rank)
    if kind == "teacher":
        return TeacherTask(weights, rank, seed, seq_len)
    return ParityTask(weights, seed, seq_len)
