import math

import numpy as np
import pytest

from loralab import _rng, adapters, analysis, model, tasks, trainer
from loralab.model import ModelConfig

SMALL = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32, vocab_size=32,
                    max_len=16, n_outputs=4, seed=0)


@pytest.fixture(scope="module")
def weights():
    return model.build_model(SMALL)


def test_build_task_unknown_kind(weights):
    with pytest.raises(ValueError):
        tasks.build_task("mystery", weights, seed=0)


def test_teacher_batches_deterministic(weights):
    t1 = tasks.build_task("teacher", weights, seed=3, rank=2, seq_len=8)
    t2 = tasks.build_task("teacher", weights, seed=3, rank=2, seq_len=8)
    toks1, y1 = t1.batch(5, 6)
    toks2, y2 = t2.batch(5, 6)
    assert np.array_equal(toks1, toks2)
    assert np.array_equal(y1, y2)
    toks3, _ = t1.batch(6, 6)
    assert not np.array_equal(toks1, toks3)


def test_teacher_shapes_and_token_range(weights):
    task = tasks.build_task("teacher", weights, seed=1, rank=2, seq_len=8)
    toks, targets = task.batch(1, 5)
    assert toks.shape == (5, 8)
    assert toks.min() >= 0 and toks.max() < SMALL.vocab_size
    assert targets.shape == (5, SMALL.n_outputs)


def test_teacher_zero_rank_means_zero_initial_loss(weights):
    task = tasks.TeacherTask(weights, rank=0, seed=2, seq_len=8)
    assert task.hidden is None and task._teacher is weights
    spec = adapters.AdapterSpec("lora", 2, 2.0, ("query", "value"), (1, 2))
    params = adapters.init_params(spec, SMALL.d_model, seed=0)
    loss = trainer.loss_only(weights, params, spec, task.batch(1, 8))
    assert loss == 0.0


def test_teacher_default_initial_loss_positive(weights):
    task = tasks.TeacherTask(weights, rank=2, seed=2, seq_len=8)
    spec = adapters.AdapterSpec("lora", 2, 2.0, ("query", "value"), (1, 2))
    params = adapters.init_params(spec, SMALL.d_model, seed=0)
    loss = trainer.loss_only(weights, params, spec, task.eval_batch(16))
    assert loss > 0.0


def test_teacher_deltas_have_bounded_rank(weights):
    # recover the hidden delta by differencing teacher and base projections
    task = tasks.TeacherTask(weights, rank=2, seed=4, seq_len=8)
    teacher = task._teacher
    for m in ("query", "value"):
        for l in (1, 2):
            delta = teacher.projection(m, l) - weights.projection(m, l)
            s = np.linalg.svd(delta, compute_uv=False)
            assert s[2] < 1e-9 * np.linalg.norm(delta)


@pytest.mark.parametrize("d, rank", [(32, 4), (16, 2)])
def test_teacher_projections_are_the_hidden_delta_formula_bit_for_bit(d, rank):
    # the oracle: the teacher's formula written out, one product chain per projection
    config = ModelConfig(n_layers=2, d_model=d, n_heads=4, d_ff=2 * d, vocab_size=32,
                         max_len=16, n_outputs=4, seed=0)
    base = model.build_model(config)
    task = tasks.TeacherTask(base, rank=rank, seed=7, seq_len=8)
    params, spec = task.hidden
    assert (spec.method, spec.rank, spec.target_modules, spec.target_layers) == (
        "condlora", rank, ("query", "value"), (1, 2))
    s = 0.5 / math.sqrt(d)
    for m in ("query", "value"):
        theta_a, theta_b = (
            _rng.gaussian_block(d * rank, _rng.derive_seed(7, f"teacher.{m}.theta{side}"))
            .reshape(d, rank) for side in "AB")
        assert np.array_equal(params.tensors[f"cond.{m}.thetaA"], theta_a)
        assert np.array_equal(params.tensors[f"cond.{m}.thetaB"], theta_b)
        for l in (1, 2):
            w0 = base.projection(m, l)
            expected = w0 + s * ((w0.T @ theta_b) @ (w0 @ theta_a).T)
            assert np.array_equal(task._teacher.projection(m, l), expected)


def test_the_teachers_own_conv_a_grid_is_the_ceiling(weights):
    # conv_A = W0^{-1} (W0 theta_A) = theta_A in every layer, so every cell is 1
    task = tasks.TeacherTask(weights, rank=2, seed=4, seq_len=8)
    for m in ("query", "value"):
        grid = analysis.conversion_grid(weights, *task.hidden, m, "A")
        assert np.allclose(grid.values, 1.0, rtol=0, atol=1e-12)


def test_teacher_rejects_bad_args(weights):
    with pytest.raises(ValueError):
        tasks.TeacherTask(weights, rank=2, seed=0, seq_len=0)
    with pytest.raises(ValueError):
        tasks.TeacherTask(weights, rank=SMALL.d_model + 1, seed=0)


def test_parity_labels(weights):
    task = tasks.build_task("parity", weights, seed=5, seq_len=8)
    toks, labels = task.batch(1, 32)
    expected = np.where((toks == task.marker_token).sum(axis=1) % 2 == 0, 1, 0)
    assert np.array_equal(labels, expected)
    assert set(np.unique(labels)) <= {0, 1}


def test_parity_deterministic_and_trainable_signature(weights):
    task = tasks.build_task("parity", weights, seed=6, seq_len=8)
    t1 = task.batch(2, 4)
    t2 = task.batch(2, 4)
    assert np.array_equal(t1[0], t2[0]) and np.array_equal(t1[1], t2[1])
    spec = adapters.AdapterSpec("condlora", 2, 2.0, ("query", "value"), (1, 2))
    params = adapters.init_params(spec, SMALL.d_model, seed=1)
    loss, grads = trainer.loss_and_grads(weights, params, spec, t1)
    assert np.isfinite(loss)
    assert any(np.abs(g).max() > 0 for g in grads.values())
