import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loralab import adapters, matcore, model, tasks, trainer
from loralab.adapters import AdapterSpec
from loralab.model import ModelConfig
from loralab.trainer import AdamState, TrainConfig

SMALL = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32, vocab_size=32,
                    max_len=16, n_outputs=4, seed=0)


@pytest.fixture(scope="module")
def small_weights():
    return model.build_model(SMALL)


def small_spec(method="lora", layers=(1, 2)):
    return AdapterSpec(method, 2, 2.0, ("query", "value"), layers)


def displaced_params(spec, seed=0):
    params = adapters.init_params(spec, SMALL.d_model, seed)
    tensors = {
        key: value + matcore.gaussian(*value.shape, 0.0, 0.2, seed + 50 + i)
        for i, (key, value) in enumerate(params.tensors.items())
    }
    return adapters.AdapterParams(tensors)


def small_batch(weights, seed=0, batch=4):
    task = tasks.TeacherTask(weights, rank=2, seed=seed, seq_len=8)
    return task.batch("test", batch)


# --- loss and gradients --------------------------------------------------------

def test_zero_signal_gives_zero_grads(small_weights):
    spec = small_spec()
    params = displaced_params(spec, seed=1)
    toks = small_batch(small_weights, seed=2)[0]
    logits = adapters.forward_with_adapters(small_weights, params, spec, toks)
    loss, grads = trainer.loss_and_grads(small_weights, params, spec, (toks, logits))
    assert loss == 0.0
    for key, g in grads.items():
        assert np.abs(g).max() < 1e-12, key


def test_gradients_cover_exactly_the_trainable_tensors(small_weights):
    spec = small_spec(method="condlora")
    params = displaced_params(spec, seed=3)
    _, grads = trainer.loss_and_grads(small_weights, params, spec, small_batch(small_weights))
    assert set(grads) == {"cond.query.thetaA", "cond.query.thetaB",
                          "cond.value.thetaA", "cond.value.thetaB"}


# A task's targets pick its loss, so the oracle runs once per task; the test id
# names the loss that task's targets select.
TASK_LOSS = {"teacher": "mse", "parity": "cross_entropy"}


@pytest.mark.parametrize("method", adapters.METHODS)
@pytest.mark.parametrize("task_kind", tasks.TASK_KINDS, ids=TASK_LOSS.get)
def test_finite_difference_oracle(small_weights, method, task_kind):
    spec = small_spec(method=method)
    params = displaced_params(spec, seed=4)
    batch = tasks.build_task(task_kind, small_weights, seed=5, rank=2, seq_len=8).batch("test", 4)
    errors = trainer.finite_difference_check(small_weights, params, spec, batch)
    assert max(errors.values()) < 1e-4, errors


THREE = ModelConfig(n_layers=3, d_model=16, n_heads=4, d_ff=32, vocab_size=32,
                    max_len=16, n_outputs=4, seed=3)


@pytest.fixture(scope="module")
def three_layer_weights():
    return model.build_model(THREE)


@pytest.mark.parametrize("method", adapters.METHODS)
@pytest.mark.parametrize("task_kind", tasks.TASK_KINDS, ids=TASK_LOSS.get)
@pytest.mark.parametrize("layers", [(2, 3), (1,)])
def test_finite_difference_oracle_partial_layers(three_layer_weights, method, task_kind, layers):
    # (2, 3): the backward stops above layer 1; (1,): it passes through two
    # untargeted layers first. All four projections are targeted at once.
    spec = AdapterSpec(method, 2, 3.0, adapters.ATTENTION_MODULES, layers)
    params = trainer.generic_params(spec, THREE.d_model, seed=21)
    task = tasks.build_task(task_kind, three_layer_weights, seed=22, rank=2, seq_len=6)
    errors = trainer.finite_difference_check(three_layer_weights, params, spec, task.batch("fd", 3))
    assert max(errors.values()) < 1e-4, errors


def test_backward_returns_exactly_the_targets(three_layer_weights):
    tokens = np.arange(12).reshape(2, 6)
    cache = model.Cache(keep_layers=True)
    logits = model.forward_pass(three_layer_weights, tokens, cache=cache)
    targets = {("key", 2), ("output", 3)}
    grads = model.backward(cache, np.ones_like(logits), targets)
    assert set(grads) == targets
    assert all(g.shape == (THREE.d_model, THREE.d_model) for g in grads.values())


def test_key_and_output_modules_trainable(small_weights):
    # query/value are the defaults, but all four projections are valid targets
    for method in adapters.METHODS:
        spec = AdapterSpec(method, 2, 2.0, ("key", "output"), (1, 2))
        params = trainer.generic_params(spec, SMALL.d_model, seed=13)
        batch = small_batch(small_weights, seed=14)
        errors = trainer.finite_difference_check(small_weights, params, spec, batch)
        assert max(errors.values()) < 1e-4, (method, errors)
        merged = adapters.merge(small_weights, params, spec)
        via_adapter = adapters.forward_with_adapters(small_weights, params, spec, batch[0])
        direct = model.forward(merged, None, batch[0])
        assert np.abs(via_adapter - direct).max() < 1e-9


@pytest.mark.parametrize("method", adapters.METHODS)
def test_factor_grads_accumulate_over_layers(small_weights, method):
    # dL/dtensor is the sum over layers of <dL/dW_l, d(delta_l)/dtensor>. delta_l
    # is linear in each tensor with the others held fixed, so each layer's share
    # is read off adapters.delta_w on unit tensors, independent of the
    # closed-form chain rule. A LoRA tensor feeds one layer; a CondLoRA theta
    # feeds every layer.
    spec = small_spec(method=method)
    params = displaced_params(spec, seed=6)
    tokens, targets = small_batch(small_weights, seed=7)

    deltas = adapters.materialize_deltas(params, spec, small_weights)
    projections = {t: small_weights.projection(*t) + dw for t, dw in deltas.items()}
    cache = model.Cache(keep_layers=True)
    logits = model.forward_pass(small_weights, tokens, projections, cache)
    dlogits = 2.0 * (logits - targets) / logits.size
    dws = model.backward(cache, dlogits, spec.targets())
    factors, _ = adapters.adapted(small_weights, params, spec)
    full = adapters.factor_grads(small_weights, params, spec, factors, dws)

    shares = {l: {key: np.zeros_like(v) for key, v in params.tensors.items()}
              for l in spec.target_layers}
    for (m, l), dw in dws.items():
        w0 = small_weights.projection(m, l)
        for key, value in params.tensors.items():
            zero = adapters.delta_w(
                adapters.AdapterParams({**params.tensors, key: np.zeros_like(value)}),
                spec, w0, m, l)
            for index in np.ndindex(value.shape):
                unit = np.zeros_like(value)
                unit[index] = 1.0
                probe = adapters.AdapterParams({**params.tensors, key: unit})
                share = adapters.delta_w(probe, spec, w0, m, l) - zero
                shares[l][key][index] += np.sum(dw * share)
    assert list(full) == list(params.tensors)
    for key in full:
        feeding = [l for l in spec.target_layers if np.abs(shares[l][key]).max() > 1e-6]
        assert len(feeding) == (len(spec.target_layers) if method == "condlora" else 1), key
        combined = sum(shares[l][key] for l in spec.target_layers)
        assert np.allclose(full[key], combined, rtol=1e-9, atol=1e-12), key


def test_mse_dlogits_match_finite_differences_and_stay_finite():
    # The cross-entropy counterpart is test_autodiff::test_logsumexp_grad_and_stability.
    logits = matcore.gaussian(3, 4, 0.0, 2.0, 41)
    targets = matcore.gaussian(3, 4, 0.0, 1.0, 42)
    _, dlogits = trainer._loss(logits, targets)
    fd = np.zeros_like(logits)
    for index in np.ndindex(logits.shape):
        up, down = logits.copy(), logits.copy()
        up[index] += 1e-6
        down[index] -= 1e-6
        fd[index] = (trainer._loss(up, targets)[0]
                     - trainer._loss(down, targets)[0]) / 2e-6
    assert np.abs(dlogits - fd).max() < 1e-8
    loss, dlogits = trainer._loss(logits + 1e3, targets + 1e3)
    assert np.isfinite(loss) and np.isfinite(dlogits).all()


def test_non_finite_loss_raises(small_weights):
    spec = small_spec()
    params = displaced_params(spec, seed=8)
    toks = small_batch(small_weights)[0]
    bad_targets = np.full((4, SMALL.n_outputs), np.inf)
    with pytest.raises(matcore.NumericError):
        trainer.loss_and_grads(small_weights, params, spec, (toks, bad_targets))


@pytest.mark.parametrize("run", ["train_run", "bench_throughput"])
def test_train_run_numeric_abort_names_step(small_weights, run):
    class PoisonedTask:
        def __init__(self, inner):
            self.inner = inner

        def batch(self, index, n):
            toks, targets = self.inner.batch(index, n)
            if index == 3:
                targets = np.full_like(targets, np.inf)
            return toks, targets

        def eval_batch(self, n):
            return self.inner.eval_batch(n)

    task = PoisonedTask(tasks.TeacherTask(small_weights, rank=2, seed=5, seq_len=8))
    tc = TrainConfig(learning_rate=1e-2, max_steps=10, batch_size=4, seed=1)
    with pytest.raises(matcore.NumericError, match="^step 3: non-finite loss"):
        if run == "train_run":
            trainer.train_run(small_weights, small_spec(), task, tc)
        else:
            trainer.bench_throughput(small_weights, small_spec(), task, 1.0, tc)


def test_cross_entropy_rejects_bad_labels(small_weights):
    spec = small_spec()
    params = displaced_params(spec, seed=9)
    toks = small_batch(small_weights)[0]
    with pytest.raises(ValueError):
        trainer.loss_and_grads(small_weights, params, spec,
                               (toks, np.array([0, 1, 2, SMALL.n_outputs])))


def _reference_mse(logits, targets):
    diff = logits - np.asarray(targets, dtype=np.float64)
    return float((diff * diff).sum() * (1.0 / diff.size)), diff * (2.0 / diff.size)


def _reference_cross_entropy(logits, labels):
    batch = logits.shape[0]
    onehot = np.zeros(logits.shape)
    onehot[np.arange(batch), labels] = 1.0
    top = logits.max(axis=-1)
    lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=-1))
    loss = (lse - (logits * onehot).sum(axis=-1)).sum() * (1.0 / batch)
    return float(loss), (np.exp(logits - lse[:, None]) - onehot) * (1.0 / batch)


@pytest.mark.parametrize("targets, reference", [
    (matcore.gaussian(5, 4, 0.0, 1.0, 43), _reference_mse),
    (matcore.gaussian(5, 4, 0.0, 1.0, 43).astype(np.float32), _reference_mse),
    (np.array([0, 3, 1, 1, 2]), _reference_cross_entropy),
    (np.array([0, 3, 1, 1, 2], dtype=np.int32), _reference_cross_entropy),
])
def test_the_targets_pick_the_loss_with_unchanged_bits(targets, reference):
    # Integer labels get cross-entropy and float targets MSE, bit for bit the
    # reference expressions above.
    logits = matcore.gaussian(5, 4, 0.0, 2.0, 44)
    loss, dlogits = trainer._loss(logits, targets)
    expected_loss, expected_dlogits = reference(logits, targets)
    assert loss.hex() == expected_loss.hex()
    assert dlogits.tobytes() == expected_dlogits.tobytes()


@pytest.mark.parametrize("targets, message", [
    (np.zeros((5, 4), dtype=np.int64), r"cross_entropy labels shape \(5, 4\) does not match batch 5"),
    (np.zeros(5), r"mse targets shape \(5,\) does not match logits \(5, 4\)"),
])
def test_targets_of_the_wrong_shape_for_their_loss_raise(targets, message):
    with pytest.raises(matcore.ShapeError, match=message):
        trainer._loss(matcore.gaussian(5, 4, 0.0, 1.0, 45), targets)


# --- adam ------------------------------------------------------------------------

def cfg(lr=0.1, steps=1000):
    return TrainConfig(learning_rate=lr, max_steps=steps, batch_size=1, seed=0)


def test_adam_zero_gradients_fixed_point():
    tensors = {"p": np.array([[1.5, -2.0]])}
    grads = {"p": np.zeros((1, 2))}
    out = trainer.adam_step(tensors, grads, AdamState(), 1, cfg())
    assert np.array_equal(out["p"], tensors["p"])


def test_adam_schedule_endpoint_freezes():
    tensors = {"p": np.array([[1.0]])}
    grads = {"p": np.array([[3.0]])}
    out = trainer.adam_step(tensors, grads, AdamState(), 1000, cfg(steps=1000))
    assert np.array_equal(out["p"], tensors["p"])


def test_adam_first_step_closed_form():
    # bias-corrected first step with g = 1 moves by ~lr (times schedule ~1)
    tensors = {"p": np.array([[0.0]])}
    grads = {"p": np.array([[1.0]])}
    out = trainer.adam_step(tensors, grads, AdamState(), 1, cfg(lr=0.1, steps=10**6))
    assert abs(abs(float(out["p"][0, 0])) - 0.1) < 1e-6


def _adam_per_tensor(tensors, grads, moments, step, config):
    """Adam applied tensor by tensor, as the reference the flat update must match."""
    lr = config.learning_rate * trainer.schedule_factor(step, config.max_steps)
    b1, b2 = 0.9, 0.999
    out = {}
    for key, value in tensors.items():
        g = grads[key]
        m, v = moments.get(key, (np.zeros_like(value), np.zeros_like(value)))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        moments[key] = m, v
        m_hat = m / (1.0 - b1 ** step)
        v_hat = v / (1.0 - b2 ** step)
        out[key] = value - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return out


@pytest.mark.parametrize("method", ["lora", "condlora"])
def test_flat_adam_matches_the_per_tensor_rule_bit_for_bit(small_weights, method):
    spec = small_spec(method)
    config = TrainConfig(learning_rate=2e-2, max_steps=60, batch_size=4)
    task = tasks.TeacherTask(small_weights, rank=2, seed=3, seq_len=8)
    params = adapters.init_params(spec, SMALL.d_model, 0)
    reference, moments, state = dict(params.tensors), {}, AdamState()
    for step in range(1, config.max_steps + 1):
        _, grads = trainer.loss_and_grads(small_weights, params, spec, task.batch(step, 4))
        tensors = trainer.adam_step(params.tensors, grads, state, step, config)
        reference = _adam_per_tensor(reference, grads, moments, step, config)
        assert list(tensors) == list(reference)
        for key, value in tensors.items():
            assert value.shape == reference[key].shape
            same_bits = np.array_equal(value.view(np.uint64), reference[key].view(np.uint64))
            assert same_bits, (step, key)
        params = type(params)(tensors)
    flat_m = np.concatenate([m.ravel() for m, _ in moments.values()])
    flat_v = np.concatenate([v.ravel() for _, v in moments.values()])
    assert np.array_equal(state.m.view(np.uint64), flat_m.view(np.uint64))
    assert np.array_equal(state.v.view(np.uint64), flat_v.view(np.uint64))


def test_adam_step_requires_one_based():
    with pytest.raises(ValueError):
        trainer.adam_step({}, {}, AdamState(), 0, cfg())


def test_schedule_factor():
    assert trainer.schedule_factor(1, 0) == 0.0
    assert trainer.schedule_factor(500, 1000) == pytest.approx(0.5)
    assert trainer.schedule_factor(1000, 1000) == 0.0
    assert trainer.schedule_factor(2000, 1000) == 0.0


# --- train loop --------------------------------------------------------------------

def test_train_run_deterministic(small_weights):
    spec = small_spec()
    task = tasks.TeacherTask(small_weights, rank=2, seed=5, seq_len=8)
    tc = TrainConfig(learning_rate=2e-2, max_steps=30, batch_size=4, seed=1)
    p1, r1 = trainer.train_run(small_weights, spec, task, tc)
    p2, r2 = trainer.train_run(small_weights, spec, task, tc)
    assert r1.losses == r2.losses
    for key in p1.tensors:
        assert np.array_equal(p1.tensors[key], p2.tensors[key])


def test_train_run_zero_steps(small_weights):
    spec = small_spec()
    task = tasks.TeacherTask(small_weights, rank=2, seed=5, seq_len=8)
    tc = TrainConfig(learning_rate=1e-2, max_steps=0, batch_size=4, seed=1)
    params, report = trainer.train_run(small_weights, spec, task, tc)
    init = adapters.init_params(spec, SMALL.d_model, 1)
    for key in params.tensors:
        assert np.array_equal(params.tensors[key], init.tensors[key])
    assert report.losses == []
    assert report.final_loss == report.initial_loss


def test_train_run_reduces_loss_and_freezes_base(small_weights):
    spec = small_spec()
    task = tasks.TeacherTask(small_weights, rank=2, seed=6, seq_len=8)
    before = {name: small_weights[name].copy() for name in small_weights.names()}
    tc = TrainConfig(learning_rate=2e-2, max_steps=150, batch_size=8, seed=2)
    params, report = trainer.train_run(small_weights, spec, task, tc)
    assert report.final_loss < report.initial_loss
    assert report.trainable_param_count == adapters.count_trainable(spec, SMALL.d_model)
    assert len(report.losses) == 150
    assert report.examples_per_second > 0
    assert report.seed == 2
    for name, value in before.items():
        assert np.array_equal(small_weights[name], value), name


def test_write_report_format(small_weights):
    report = trainer.TrainReport(
        losses=[0.5, 0.25], initial_loss=1.0, final_loss=0.2,
        examples_per_second=123.4, trainable_param_count=256,
        wall_clock_seconds=1.5, seed=7,
    )
    buf = io.StringIO()
    trainer.write_report(buf, report)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,loss"
    assert lines[1] == "0,1"
    assert lines[2].startswith("1,0.5") and lines[3].startswith("2,0.25")
    footer = dict(item.split("=") for item in lines[4].split())
    assert float(footer["final_loss"]) == 0.2
    assert float(footer["examples_per_second"]) == 123.4
    assert footer["params"] == "256"
    assert float(footer["seconds"]) == 1.5


def test_bench_throughput_minimum(small_weights):
    spec = small_spec()
    task = tasks.TeacherTask(small_weights, rank=2, seed=5, seq_len=8)
    tc = TrainConfig(learning_rate=1e-2, max_steps=10**6, batch_size=4, seed=1)
    rate = trainer.bench_throughput(small_weights, spec, task, 1.0, tc)
    assert rate > 0
    for seconds in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="seconds must be finite and >= 1"):
            trainer.bench_throughput(small_weights, spec, task, seconds, tc)


# --- allocation ----------------------------------------------------------------

# Minor page faults per desk training step, from the difference of a 60-step
# and a 10-step run after two warm-up runs (the heap settles in the first
# two), so set-up and evaluation cancel.
_FAULT_PROBE = """
import resource, sys
from dataclasses import replace
from loralab import trainer
from loralab.config import ExperimentConfig
from loralab.model import build_model
if sys.argv[1] == "freed":
    block = bytearray(30 << 20)
    del block
cfg = ExperimentConfig()
weights = build_model(cfg.model_config())
task, spec = cfg.make_task(weights), cfg.adapter_spec("lora")

def faults(steps):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.train_run(weights, spec, task, replace(cfg.train_config(), max_steps=steps), 1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(10)
faults(10)
short = faults(10)
print((faults(60) - short) / 50)
"""


@pytest.mark.parametrize("state", ["fresh", "freed"])
def test_desk_step_does_not_page_fault(state):
    # A step whose temporaries are mmapped faults hundreds of times, and how
    # often depends on what the process freed before (glibc's dynamic mmap
    # threshold); the workspace makes both states alike. A fresh process each.
    src = str(Path(model.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _FAULT_PROBE, state], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) <= 20.0
