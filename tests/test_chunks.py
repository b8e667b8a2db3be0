"""Batches run in workspace-sized chunks (``model.chunks``).

A forward-only pass in chunks has the bits of one whole pass, since every
example's arithmetic is the same in any batch, an example alone included. A
training step sums its chunks' losses and dL/dW, so it matches the one-chunk
result within ``GRAD_TOL``, and a batch that fits in one chunk gets the bits of
one pass. The chunks are shared among the CPUs, and the bits and errors do not
depend on how many.
"""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from loralab import _rng, adapters, matcore, model, tasks, trainer
from loralab.config import ExperimentConfig

DESK = ExperimentConfig()
LENGTH = DESK.seq_len
WHOLE = 1 << 40  # a budget that fits any batch here in one chunk
BUDGET = model._WORKSPACE  # the shipped budget
# Normwise relative. At batch 256, 256 chunks of one gave at most 9.5e-16 and
# the default budget's 4 chunks at most 6.2e-16, over both tasks and methods.
GRAD_TOL = 1e-14


def smallest_batch(chunks):
    """The smallest batch that ``model.chunks`` cuts into ``chunks`` chunks at the shipped budget."""
    return next(batch for batch in itertools.count(chunks)
                if len(model.chunks(DESK.model_config(), batch, LENGTH)) == chunks)


STEP_BATCH = smallest_batch(4)  # four chunks of a training step
PASS_BATCH = smallest_batch(3)  # three chunks of a forward-only pass


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
    # A forward-only pass and a training step are both cut by the bytes of a
    # training step's workspace; the chunks each hands to run_parts are read.
    kept = model.Cache(keep_layers=True)
    model.forward_pass(weights, tokens(1), cache=kept)
    per_example = workspace_bytes(kept)
    spec = DESK.adapter_spec("lora")
    params = trainer.generic_params(spec, DESK.d_model, seed=8)

    class Cut(Exception):
        pass

    def record(parts, work, workspace, fold=None):
        raise Cut(parts)

    def cut(batch):
        toks = np.zeros((batch, LENGTH), dtype=np.int64)
        with monkeypatch.context() as patch, pytest.raises(Cut) as info:
            patch.setattr(_rng, "run_parts", record)
            if keep_layers:
                trainer.loss_and_grads(weights, params, spec,
                                       (toks, np.zeros((batch, DESK.n_outputs))))
            else:
                model.forward_pass(weights, toks)
        assert info.value.args[0] == model.chunks(weights.config, batch, LENGTH)
        return info.value.args[0]

    for cap in (1, 2, 3, 5, 29, 10**6):
        monkeypatch.setattr(model, "_WORKSPACE", cap * per_example)
        for batch in [*range(1, 130), 256, 257, 1024, 1025]:
            chunks = cut(batch)
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
    for budget in (1, 1 << 20, BUDGET):
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
    for budget in (1, BUDGET):
        monkeypatch.setattr(model, "_WORKSPACE", budget)
        chunked_loss, chunked = trainer.loss_and_grads(weights, params, spec, batch)
        assert abs(chunked_loss - loss) <= GRAD_TOL * loss
        assert list(chunked) == list(grads)
        for key, g in grads.items():
            assert np.linalg.norm(chunked[key] - g) <= GRAD_TOL * np.linalg.norm(g), key


@pytest.mark.parametrize("kind", tasks.TASK_KINDS, ids=["mse", "cross_entropy"])
def test_a_batch_of_one_chunk_gets_the_bits_of_one_pass(weights, kind):
    # The desk step (batch 16) and its held-out batch (64) are one chunk each.
    assert len(model.chunks(weights.config, 16, LENGTH)) == 1
    assert len(model.chunks(weights.config, 64, LENGTH)) == 1
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


def test_a_training_step_workspace_does_not_grow_with_the_batch(weights, force_cpus):
    # At batch 1024 a whole-batch workspace is about 300 MB: the teacher's
    # forward-only one and the step's kept one. Each chunk fits in the budget,
    # and with w workers each of the two caches holds w workspaces.
    spec = DESK.adapter_spec("lora")
    params = adapters.init_params(spec, DESK.d_model, 1)
    for workers in (1, 2):
        force_cpus(workers)
        task = tasks.build_task("teacher", weights, seed=2, rank=4)
        model.forward_pass(weights, tokens(300))  # a first pool loads concurrent.futures
        tracemalloc.start()
        try:
            batch = task.batch(1, 1024)
            trainer.loss_and_grads(weights, params, spec, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * workers + 1) * model._WORKSPACE, (workers, peak)


def test_a_training_step_holds_no_chunk_gradient_it_has_summed(force_cpus, monkeypatch):
    # One example per chunk and 1 MiB of dL/dW per chunk: the step adds each
    # chunk's dL/dW to its sums as the chunk finishes, so at 64 chunks its
    # peak is that of 4, where keeping every chunk's until the end held 64 MiB.
    force_cpus(1)
    monkeypatch.setattr(model, "_WORKSPACE", 1)
    wide = model.build_model(model.ModelConfig(n_layers=1, d_model=256, n_heads=4, d_ff=256))
    spec = adapters.AdapterSpec("lora", 2, 2.0, ("query", "value"), (1,))
    params = trainer.generic_params(spec, 256, 1)
    cache = model.Cache(keep_layers=True)
    peaks = []
    for batch in (4, 64):
        toks = _rng.randint_block(batch * 4, 64, batch).reshape(batch, 4)
        step = (toks, np.zeros(batch, dtype=np.int64))
        trainer.loss_and_grads(wide, params, spec, step, cache)  # sizes the workspace
        tracemalloc.start()
        try:
            trainer.loss_and_grads(wide, params, spec, step, cache)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + (1 << 20), peaks


# --- chunks shared among the CPUs (_rng.run_parts) ------------------------------------

@pytest.mark.parametrize("kind", tasks.TASK_KINDS, ids=["mse", "cross_entropy"])
def test_chunk_bytes_do_not_depend_on_the_worker_count(weights, force_cpus, kind):
    assert len(model.chunks(weights.config, STEP_BATCH, LENGTH)) == 4
    assert len(model.chunks(weights.config, PASS_BATCH, LENGTH)) == 3
    spec = DESK.adapter_spec("condlora")
    params = trainer.generic_params(spec, DESK.d_model, seed=11)
    task = tasks.build_task(kind, weights, seed=7, rank=4)
    step_cache = model.Cache(keep_layers=True)

    def outputs(cpus):
        force_cpus(cpus)
        batch = task.batch(1, STEP_BATCH)
        loss, grads = trainer.loss_and_grads(weights, params, spec, batch, step_cache)
        logits = model.forward_pass(weights, tokens(PASS_BATCH, seed=3))
        return ([loss.hex(), batch[1].tobytes(), logits.tobytes()]
                + [key.encode() + g.tobytes() for key, g in grads.items()])

    reference = outputs(1)
    assert outputs(2) == reference
    assert outputs(3) == reference
    # one worker per chunk, switching threads as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert outputs(4) == reference
    finally:
        sys.setswitchinterval(interval)
    assert sorted(step_cache._workers) == [1, 2, 3]  # a kept workspace for each helper


def test_a_batch_of_one_chunk_starts_no_thread(weights, force_cpus, no_threads):
    force_cpus(8)
    task = tasks.build_task("teacher", weights, seed=2, rank=4)
    spec = DESK.adapter_spec("lora")
    params = adapters.init_params(spec, DESK.d_model, 1)
    trainer.loss_and_grads(weights, params, spec, task.batch(1, 16))
    trainer.loss_only(weights, params, spec, task.eval_batch(64))
    force_cpus(1)
    trainer.loss_and_grads(weights, params, spec, task.batch(1, STEP_BATCH))
    force_cpus(8)
    with pytest.raises(AssertionError, match="a thread was started"):
        trainer.loss_and_grads(weights, params, spec, task.batch(1, STEP_BATCH))


def test_a_step_raises_the_error_of_its_lowest_failing_chunk(weights, monkeypatch, force_cpus):
    # Four chunks: chunk 1 has an infinite target and chunk 3 a NaN one.
    # From 3 workers on, chunks 1 and 3 are on different workers, and
    # chunk 1's loss waits until chunk 3 has failed.
    spec = DESK.adapter_spec("lora")
    params = trainer.generic_params(spec, DESK.d_model, seed=12)
    toks, targets = tasks.build_task("teacher", weights, seed=3, rank=4).batch(1, STEP_BATCH)
    chunks = model.chunks(weights.config, STEP_BATCH, LENGTH)
    targets = targets.copy()
    targets[chunks[1].start, 0], targets[chunks[3].start, 0] = np.inf, np.nan
    failed, real = [], trainer._loss

    def loss(logits, labels, total=None):
        if np.isnan(labels).any():
            failed.append(3)
            chunk_3_failed.set()
        elif np.isinf(labels).any():
            if cpus >= 3:
                assert chunk_3_failed.wait(timeout=30)
            failed.append(1)
        return real(logits, labels, total)

    monkeypatch.setattr(trainer, "_loss", loss)
    for cpus in (1, 2, 3, 4):
        force_cpus(cpus)
        failed.clear()
        chunk_3_failed = threading.Event()
        with pytest.raises(matcore.NumericError, match=r"^non-finite loss inf$"):
            trainer.loss_and_grads(weights, params, spec, (toks, targets))
        assert failed == ([1] if cpus < 3 else [3, 1]), cpus
