"""Batches run in workspace-sized chunks (``model.Cache.chunks``).

A forward-only pass in chunks has the bits of one whole pass, since every
example's arithmetic is the same in any batch, an example alone included. A
training step sums its chunks' losses and dL/dW, so it matches the one-chunk
result within ``GRAD_TOL``, and a batch that fits in one chunk gets the bits of
one pass.
"""

import tracemalloc

import numpy as np
import pytest

from loralab import _rng, adapters, model, tasks, trainer
from loralab.config import ExperimentConfig

DESK = ExperimentConfig()
LENGTH = DESK.seq_len
WHOLE = 1 << 40  # a budget that fits any batch here in one chunk
# Normwise relative. At batch 256, 128 chunks of two gave at most 9.2e-16 and
# the default budget's 9 chunks at most 6.4e-16, over both tasks and methods.
GRAD_TOL = 1e-14


@pytest.fixture(scope="module")
def weights():
    return model.build_model(DESK.model_config())


def tokens(batch, seed=0):
    return _rng.randint_block(batch * LENGTH, DESK.vocab_size, seed).reshape(batch, LENGTH)


def workspace_bytes(cache):
    # a pass also sets references in each layer's dict: its input x and its projections
    return sum(a.nbytes for group in (*cache.layers, cache.scratch, cache.grad)
               for name, a in group.items() if name not in ("x", "proj"))


@pytest.mark.parametrize("keep_layers", [False, True], ids=["forward-only", "kept"])
def test_chunks_split_a_batch_into_near_equal_parts_within_the_budget(
        weights, monkeypatch, keep_layers):
    cache = model.Cache(keep_layers)
    model.forward_pass(weights, tokens(1), cache=cache)
    per_example = workspace_bytes(cache)
    for cap in (1, 2, 3, 5, 29, 10**6):
        monkeypatch.setattr(model, "_WORKSPACE", cap * per_example)
        for batch in [*range(1, 130), 256, 257, 1024, 1025]:
            chunks = cache.chunks(weights.config, batch, LENGTH)
            sizes = [rows.stop - rows.start for rows in chunks]
            assert [rows.start for rows in chunks] == [0, *np.cumsum(sizes)[:-1]]
            assert sum(sizes) == batch
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
            assert sizes[0] <= cap
            assert len(sizes) == -(-batch // cap)


@pytest.mark.parametrize("batch", [1, 2, 3, 17, 256, 257])
def test_forward_in_chunks_gives_the_bits_of_one_pass(weights, monkeypatch, batch):
    toks = tokens(batch, seed=batch)
    monkeypatch.setattr(model, "_WORKSPACE", WHOLE)
    whole = model.forward(weights, None, toks)
    for budget in (1, 1 << 20, 8 << 20):
        monkeypatch.setattr(model, "_WORKSPACE", budget)
        assert np.array_equal(model.forward(weights, None, toks), whole), budget


@pytest.mark.parametrize("method", adapters.METHODS)
@pytest.mark.parametrize("kind", tasks.TASK_KINDS, ids=["mse", "cross_entropy"])
def test_loss_and_grads_in_chunks_match_one_chunk(weights, monkeypatch, method, kind):
    spec = DESK.adapter_spec(method)
    params = trainer.generic_params(spec, DESK.d_model, seed=9)
    batch = tasks.build_task(kind, weights, seed=5, rank=4).batch(1, 256)
    monkeypatch.setattr(model, "_WORKSPACE", WHOLE)
    loss, grads = trainer.loss_and_grads(weights, params, spec, batch)
    for budget in (1, 8 << 20):
        monkeypatch.setattr(model, "_WORKSPACE", budget)
        chunked_loss, chunked = trainer.loss_and_grads(weights, params, spec, batch)
        assert abs(chunked_loss - loss) <= GRAD_TOL * loss
        assert list(chunked) == list(grads)
        for key, g in grads.items():
            assert np.linalg.norm(chunked[key] - g) <= GRAD_TOL * np.linalg.norm(g), key


@pytest.mark.parametrize("kind", tasks.TASK_KINDS, ids=["mse", "cross_entropy"])
def test_a_batch_of_one_chunk_gets_the_bits_of_one_pass(weights, kind):
    # The desk step (batch 16) and its held-out batch (64) are one chunk each.
    assert len(model.Cache(keep_layers=True).chunks(weights.config, 16, LENGTH)) == 1
    assert len(model.Cache().chunks(weights.config, 64, LENGTH)) == 1
    spec = DESK.adapter_spec("condlora")
    params = trainer.generic_params(spec, DESK.d_model, seed=10)
    toks, targets = tasks.build_task(kind, weights, seed=6, rank=4).batch(1, 16)
    loss, grads = trainer.loss_and_grads(weights, params, spec, (toks, targets))

    factors, projections = adapters.adapted(weights, params, spec)
    cache = model.Cache(keep_layers=True)
    logits = model.forward_pass(weights, toks, projections, cache)
    expected_loss, dlogits = trainer._loss(logits, targets)
    dws = model.backward(cache, dlogits, projections)
    expected = adapters.factor_grads(weights, params, spec, factors, dws)
    assert loss.hex() == expected_loss.hex()
    for key, g in expected.items():
        assert np.array_equal(grads[key], g), key


def test_a_training_step_workspace_does_not_grow_with_the_batch(weights):
    # At batch 1024 a whole-batch workspace is about 300 MB: the teacher's
    # forward-only one and the step's kept one. Each chunk fits in the budget.
    task = tasks.build_task("teacher", weights, seed=2, rank=4)
    spec = DESK.adapter_spec("lora")
    params = adapters.init_params(spec, DESK.d_model, 1)
    tracemalloc.start()
    try:
        batch = task.batch(1, 1024)
        trainer.loss_and_grads(weights, params, spec, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * model._WORKSPACE, peak
