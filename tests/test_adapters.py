import re

import numpy as np
import pytest

from checkpoint_files import blocks, rewrite_header
from loralab import adapters, matcore, model
from loralab.adapters import AdapterSpec
from loralab.model import ModelConfig

DESK = ModelConfig()


def desk_weights():
    return model.build_model(DESK)


def lora_spec(**kw):
    base = dict(method="lora", rank=4, alpha=4.0, target_modules=("query", "value"),
                target_layers=(1, 2, 3, 4))
    base.update(kw)
    return AdapterSpec(**base)


def random_params(spec, d, seed=0):
    offset = 100 if spec.method == "lora" else 200
    return adapters.AdapterParams({
        key: matcore.gaussian(*shape, 0.0, 0.3, seed + offset + i)
        for i, (key, shape) in enumerate(adapters.tensor_shapes(spec, d).items())
    })


# --- spec validation -----------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        AdapterSpec("other", 4, 4.0)
    with pytest.raises(ValueError):
        AdapterSpec("lora", 0, 4.0)
    for rank in (True, 2.0, "4"):
        with pytest.raises(ValueError, match=f"^rank must be an integer, got {rank!r}$"):
            AdapterSpec("lora", rank, 1.0)
    with pytest.raises(ValueError):
        AdapterSpec("lora", 4, 0.0)
    with pytest.raises(ValueError):
        AdapterSpec("lora", 4, 4.0, target_modules=())
    with pytest.raises(ValueError):
        AdapterSpec("lora", 4, 4.0, target_modules=("gate",))
    with pytest.raises(ValueError, match="^target layer must be >= 1, got 0$"):
        AdapterSpec("lora", 4, 4.0, target_layers=(0,))
    for layer in (True, 2.0):
        with pytest.raises(ValueError, match=f"^target layer must be an integer, got {layer!r}$"):
            AdapterSpec("lora", 4, 4.0, target_layers=(layer, 3))
    with pytest.raises(ValueError):
        lora_spec(rank=64).validate_for(DESK)
    with pytest.raises(ValueError):
        lora_spec(target_layers=(1, 9)).validate_for(DESK)


@pytest.mark.parametrize("field, value", [("target_modules", ["query", "value"]),
                                          ("target_modules", "query"),
                                          ("target_layers", [1, 2]), ("target_layers", range(1, 3))])
def test_spec_targets_must_be_tuples(field, value):
    # A list would leave the spec unhashable and unequal to its tuple twin,
    # and a str would be read letter by letter as module names.
    with pytest.raises(ValueError, match=f"^{field} must be a tuple, got {re.escape(repr(value))}$"):
        lora_spec(**{field: value})


# --- initialization ------------------------------------------------------------

def test_init_lora_zero_b_and_seeded_a():
    spec = lora_spec()
    p1 = adapters.init_params(spec, DESK.d_model, seed=1)
    p2 = adapters.init_params(spec, DESK.d_model, seed=2)
    for m, l in spec.targets():
        a1, b1 = p1.tensors[f"lora.{m}.{l}.A"], p1.tensors[f"lora.{m}.{l}.B"]
        a2, b2 = p2.tensors[f"lora.{m}.{l}.A"], p2.tensors[f"lora.{m}.{l}.B"]
        assert np.array_equal(b1, np.zeros((32, 4)))
        assert np.array_equal(b1, b2)
        assert a1.shape == (4, 32)
        assert not np.array_equal(a1, a2)
    assert len(p1.tensors) == 2 * spec.k * len(spec.target_layers)


def test_init_condlora_shapes_and_zero_theta_b():
    spec = lora_spec(method="condlora")
    p = adapters.init_params(spec, DESK.d_model, seed=7)
    for m in spec.target_modules:
        theta_a, theta_b = p.tensors[f"cond.{m}.thetaA"], p.tensors[f"cond.{m}.thetaB"]
        assert theta_a.shape == (32, 4)
        assert np.array_equal(theta_b, np.zeros((32, 4)))
    assert len(p.tensors) == 2 * spec.k


def test_init_deltas_are_zero_for_both_methods():
    w = desk_weights()
    for method in adapters.METHODS:
        spec = lora_spec(method=method)
        params = adapters.init_params(spec, DESK.d_model, seed=3)
        for dw in adapters.materialize_deltas(params, spec, w).values():
            assert np.array_equal(dw, np.zeros((32, 32)))


# --- conditioning maps -----------------------------------------------------------

def test_cond_a_identity_and_oracle():
    theta_a = matcore.gaussian(32, 4, 0, 1, 11)
    assert np.array_equal(adapters.cond_a(np.eye(32), theta_a), theta_a.T)
    assert np.array_equal(adapters.cond_a(np.eye(32), np.zeros((32, 4))), np.zeros((4, 32)))
    w0 = matcore.gaussian(32, 32, 0, 1, 12)
    expected = matcore.matmul(w0, theta_a).T
    assert np.array_equal(adapters.cond_a(w0, theta_a), expected)


def test_cond_b_identity_and_oracle():
    theta_b = matcore.gaussian(32, 4, 0, 1, 13)
    assert np.array_equal(adapters.cond_b(np.eye(32), theta_b), theta_b)
    assert np.array_equal(adapters.cond_b(np.eye(32), np.zeros((32, 4))), np.zeros((32, 4)))
    w0 = matcore.gaussian(32, 32, 0, 1, 14)
    expected = w0.T @ theta_b
    assert np.array_equal(adapters.cond_b(w0, theta_b), expected)


def test_cond_shape_errors():
    with pytest.raises(matcore.ShapeError):
        adapters.cond_a(np.eye(8), np.zeros((4, 2)))
    with pytest.raises(matcore.ShapeError):
        adapters.cond_b(np.eye(8), np.zeros((4, 2)))


# --- delta materialization --------------------------------------------------------

def test_delta_alpha_equals_rank_gives_unit_scale():
    w = desk_weights()
    spec = lora_spec(alpha=4.0)
    params = random_params(spec, 32, seed=4)
    a, b = params.tensors["lora.query.1.A"], params.tensors["lora.query.1.B"]
    dw = adapters.delta_w(params, spec, w.projection("query", 1), "query", 1)
    assert np.array_equal(dw, b @ a)


def test_delta_scale_equivariance():
    w = desk_weights()
    params = random_params(lora_spec(), 32, seed=5)
    one = adapters.delta_w(params, lora_spec(alpha=4.0), w.projection("query", 1), "query", 1)
    two = adapters.delta_w(params, lora_spec(alpha=8.0), w.projection("query", 1), "query", 1)
    assert np.array_equal(two, 2.0 * one)


def test_delta_rank_bound_both_methods():
    w = desk_weights()
    w0 = w.projection("value", 2)
    lora_p = random_params(lora_spec(), 32, seed=6)
    cond_p = random_params(lora_spec(method="condlora"), 32, seed=6)
    for params, spec in ((lora_p, lora_spec()), (cond_p, lora_spec(method="condlora"))):
        dw = adapters.delta_w(params, spec, w0, "value", 2)
        s = matcore.svd(dw).s
        assert s[4] < 1e-9 * np.linalg.norm(dw)


def test_delta_untargeted_raises():
    w = desk_weights()
    params = random_params(lora_spec(), 32)
    with pytest.raises(adapters.NotATargetError):
        adapters.delta_w(params, lora_spec(), w.projection("key", 1), "key", 1)


def test_condlora_weight_tying_across_layers():
    # same theta with layer 3's W0 reproduces layer 3's delta exactly
    w = desk_weights()
    spec = lora_spec(method="condlora")
    params = random_params(spec, 32, seed=8)
    deltas = adapters.materialize_deltas(params, spec, w)
    theta_a, theta_b = params.tensors["cond.value.thetaA"], params.tensors["cond.value.thetaB"]
    w0 = w.projection("value", 3)
    rebuilt = (spec.alpha / spec.rank) * (
        adapters.cond_b(w0, theta_b) @ adapters.cond_a(w0, theta_a)
    )
    assert np.array_equal(rebuilt, deltas[("value", 3)])


# --- merge -------------------------------------------------------------------------

def test_merge_zero_init_is_identity():
    w = desk_weights()
    spec = lora_spec()
    params = adapters.init_params(spec, 32, seed=9)
    merged = adapters.merge(w, params, spec)
    for name in w.names():
        assert np.array_equal(merged[name], w[name]), name


def test_merge_equivalence_with_adapter_forward():
    w = desk_weights()
    toks = np.arange(12).reshape(2, 6) % DESK.vocab_size
    for method in adapters.METHODS:
        spec = lora_spec(method=method)
        params = random_params(spec, 32, seed=10)
        via_adapter = adapters.forward_with_adapters(w, params, spec, toks)
        merged = model.forward(adapters.merge(w, params, spec), None, toks)
        assert np.abs(via_adapter - merged).max() < 1e-9


def test_merge_twice_is_additive():
    w = desk_weights()
    spec = lora_spec()
    params = random_params(spec, 32, seed=11)
    once = adapters.merge(w, params, spec)
    twice = adapters.merge(once, params, spec)
    dw = adapters.delta_w(params, spec, w.projection("query", 1), "query", 1)
    assert np.allclose(twice.projection("query", 1), w.projection("query", 1) + 2 * dw)


# --- parameter counting --------------------------------------------------------------

def test_count_trainable_paper_dims():
    layers = tuple(range(1, 13))
    lora = AdapterSpec("lora", 8, 8.0, ("query", "value"), layers)
    cond = AdapterSpec("condlora", 8, 8.0, ("query", "value"), layers)
    assert adapters.count_trainable(lora, 768) == 294_912
    assert adapters.count_trainable(cond, 768) == 24_576
    assert adapters.count_trainable(lora, 768) // adapters.count_trainable(cond, 768) == 12


def test_count_trainable_desk_dims():
    assert adapters.count_trainable(lora_spec(), 32) == 2048
    assert adapters.count_trainable(lora_spec(method="condlora"), 32) == 512


def test_condlora_count_independent_of_layers():
    for layers in ((1,), (1, 2), (1, 2, 3, 4)):
        spec = lora_spec(method="condlora", target_layers=layers)
        assert adapters.count_trainable(spec, 32) == 512


def test_count_ratio_equals_layer_count():
    for layers in ((1,), (1, 3), (1, 2, 3, 4)):
        lora = lora_spec(target_layers=layers)
        cond = lora_spec(method="condlora", target_layers=layers)
        ratio = adapters.count_trainable(lora, 32) / adapters.count_trainable(cond, 32)
        assert ratio == len(layers)


@pytest.mark.parametrize("method", adapters.METHODS)
@pytest.mark.parametrize("config, rank, layers", [
    (DESK, 4, (1, 2, 3, 4)),
    (ModelConfig(n_layers=3, d_model=16, n_heads=4, d_ff=32, vocab_size=32, max_len=16,
                 n_outputs=4), 2, (1, 3)),
])
def test_every_tensor_dict_follows_tensor_shapes(tmp_path, method, config, rank, layers):
    spec = AdapterSpec(method, rank, float(rank), ("query", "value"), layers)
    d = config.d_model
    layout = list(adapters.tensor_shapes(spec, d).items())

    def layout_of(tensors):
        return [(name, tensor.shape) for name, tensor in tensors.items()]

    params = adapters.init_params(spec, d, seed=0)
    assert layout_of(params.tensors) == layout
    path = tmp_path / "adapter.ckpt"
    adapters.save_adapter(path, params, spec)
    assert layout_of(adapters.load_adapter(path)[0].tensors) == layout
    weights = model.build_model(config)
    factors, _ = adapters.adapted(weights, params, spec)
    dws = {t: matcore.gaussian(d, d, 0.0, 1.0, i) for i, t in enumerate(spec.targets())}
    assert layout_of(adapters.factor_grads(weights, params, spec, factors, dws)) == layout
    assert adapters.count_trainable(spec, d) == sum(rows * cols for _, (rows, cols) in layout)


# --- checkpoints ----------------------------------------------------------------------

@pytest.mark.parametrize("method", adapters.METHODS)
def test_adapter_checkpoint_round_trip(tmp_path, method):
    spec = lora_spec(method=method, alpha=3.5)
    params = random_params(spec, 32, 12)
    path = tmp_path / "adapter.ckpt"
    adapters.save_adapter(path, params, spec)
    back_params, back_spec = adapters.load_adapter(path)
    assert back_spec == spec
    assert set(back_params.tensors) == set(params.tensors)
    for key in params.tensors:
        assert np.array_equal(back_params.tensors[key], params.tensors[key]), key


def test_load_adapter_rejects_missing_tensor(tmp_path):
    spec = lora_spec()
    params = random_params(spec, 32, 13)
    path = tmp_path / "adapter.ckpt"
    adapters.save_adapter(path, params, spec)
    data = path.read_bytes()
    second = blocks(data)["lora.query.1.B"].start
    path.write_bytes(data[:second])  # SPEC line + the first block
    with pytest.raises(ValueError, match=f"{path}: byte {second}: end of file, "
                                         "missing tensor lora.query.1.B"):
        adapters.load_adapter(path)


@pytest.mark.parametrize("edit, message", [
    (lambda line: line.replace(" alpha=4", ""), "missing key 'alpha'"),
    (lambda line: line + " bogus=3", "unknown key 'bogus'"),
    (lambda line: line.replace(" r=4", " r=four"), "bad value for r: 'four'"),
    (lambda line: line.replace(" alpha=4", " alpha=nan"), "bad value for alpha: 'nan'"),
    (lambda line: line.replace(" layers=1,2,3,4", " layers=1,x"), "bad value for layers: '1,x'"),
    (lambda line: line + " r=4", "duplicate key 'r'"),
    (lambda line: line.replace("method=lora", "method=dora"), "method must be one of"),
])
def test_adapter_header_errors_name_the_key(tmp_path, edit, message):
    spec = lora_spec()
    path = tmp_path / "adapter.ckpt"
    adapters.save_adapter(path, random_params(spec, 32, 14), spec)
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match=f"adapter.ckpt: line 1: .*{message}"):
        adapters.load_adapter(path)
