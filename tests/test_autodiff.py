"""The hand-written derivative rules that take the place of automatic
differentiation in the encoder's backward and the losses, each checked
against central differences or an exact identity."""

import numpy as np

from loralab import matcore, model, trainer


def central_difference(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    for index in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[index] += eps
        down[index] -= eps
        grad[index] = (f(up) - f(down)) / (2 * eps)
    return grad


def test_reduce_mean_keepdims_and_power():
    # Layer norm: mean over the last axis, then (var + eps) ** -0.5.
    u = matcore.gaussian(6, 5, 0.3, 2.0, 31).reshape(2, 3, 5)
    gain = matcore.gaussian(1, 5, 1.0, 0.5, 32)
    bias = matcore.gaussian(1, 5, 0.0, 0.5, 33)
    weight = matcore.gaussian(6, 5, 0.0, 1.0, 34).reshape(2, 3, 5)
    _, xhat, inv = model._layer_norm(u.copy(), gain, bias)
    analytic = model._layer_norm_backward(weight, xhat, inv, gain)
    fd = central_difference(lambda v: np.sum(weight * model._layer_norm(v, gain, bias)[0]), u)
    assert np.abs(analytic - fd).max() < 1e-8


def test_tanh_grad():
    # The tanh-form GELU, over a range that saturates the tanh at both ends.
    a = np.linspace(-6.0, 6.0, 25).reshape(5, 5)
    weight = matcore.gaussian(5, 5, 0.0, 1.0, 35)
    _, t = model._gelu(a)
    analytic = model._gelu_backward(weight.copy(), a, t)
    fd = central_difference(lambda v: np.sum(weight * model._gelu(v)[0]), a)
    assert np.abs(analytic - fd).max() < 1e-8


def test_softmax_grad():
    z = matcore.gaussian(8, 4, 0.0, 2.0, 36).reshape(2, 4, 4)
    weight = matcore.gaussian(8, 4, 0.0, 1.0, 37).reshape(2, 4, 4)
    p = model._softmax(z.copy())
    analytic = model._softmax_backward(weight.copy(), p)
    fd = central_difference(lambda v: np.sum(weight * model._softmax(v.copy())), z)
    assert np.abs(analytic - fd).max() < 1e-8


def test_softmax_rows_sum_to_one():
    z = np.array([[1000.0, 999.0, -1000.0], [0.0, 0.0, 0.0]])
    p = model._softmax(z.copy())
    assert np.isfinite(p).all()
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-15)
    assert np.allclose(p[0], model._softmax(z[0] - 1000.0), atol=1e-15)
    assert np.allclose(p[1], 1.0 / 3.0, atol=1e-15)
    y = model._softmax(matcore.gaussian(6, 9, 0, 3, 1))
    assert np.allclose(y.sum(axis=-1), 1.0)
    assert (y > 0).all()


def test_logsumexp_grad_and_stability():
    # Cross-entropy is the batch mean of logsumexp(z) - z[label].
    logits = matcore.gaussian(3, 4, 0.0, 2.0, 41)
    labels = np.array([0, 3, 1])
    _, dlogits = trainer._loss(logits, labels)
    fd = central_difference(lambda v: trainer._loss(v, labels)[0], logits)
    assert np.abs(dlogits - fd).max() < 1e-8
    loss, dlogits = trainer._loss(logits + 1e3, labels)
    assert np.isfinite(loss) and np.isfinite(dlogits).all()


def test_split_heads_is_a_writable_view():
    # The forward and backward write each per-head product straight into the
    # split-heads view of a (batch, length, d) buffer, so that buffer must then
    # hold the heads side by side, head h in columns h*dh:(h+1)*dh.
    x = matcore.gaussian(2 * 3, 8, 0.0, 1.0, 38).reshape(2, 3, 8)
    y = matcore.gaussian(2 * 4 * 3, 2, 0.0, 1.0, 39).reshape(2, 4, 3, 2)
    heads = model._split_heads(x, 4)
    assert np.shares_memory(heads, x)
    heads[...] = y
    for h in range(4):
        assert np.array_equal(x[:, :, 2 * h:2 * h + 2], y[:, h])
