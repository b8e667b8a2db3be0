import math

import numpy as np
import pytest

from checkpoint_files import rewrite_header
from loralab import adapters, matcore, model, tasks
from loralab.config import ExperimentConfig
from loralab.model import ModelConfig


SMALL = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32, vocab_size=32,
                    max_len=16, n_outputs=4, seed=0)


def tokens_for(config, batch, length, seed=0):
    from loralab import _rng

    return _rng.randint_block(batch * length, config.vocab_size, seed).reshape(batch, length)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=30, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(n_layers=0)
    for field, value in (("n_heads", 4.0), ("n_layers", True), ("d_model", 32.0),
                         ("vocab_size", "64"), ("max_len", None)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ModelConfig(**{field: value})
    assert ModelConfig(n_layers=np.int64(2)).n_layers == 2


def test_build_model_deterministic():
    w1 = model.build_model(SMALL)
    w2 = model.build_model(SMALL)
    for name in w1.names():
        assert np.array_equal(w1[name], w2[name]), name


def test_build_model_shapes():
    cfg = ModelConfig(n_layers=4, d_model=32)
    w = model.build_model(cfg)
    assert w.projection("query", 1).shape == (32, 32)
    assert w["layer4.value"].shape == (32, 32)
    assert w["embed.token"].shape == (cfg.vocab_size, 32)
    assert w["head.out"].shape == (32, cfg.n_outputs)


def test_projections_well_conditioned():
    # Eq-style conversion analysis needs invertible targets on the desk model
    w = model.build_model(ModelConfig())
    for m in ("query", "value"):
        for l in range(1, 5):
            assert matcore.condition_estimate(w.projection(m, l)) < 1e6


def test_weights_frozen():
    w = model.build_model(SMALL)
    with pytest.raises(ValueError):
        w["embed.token"][0, 0] = 1.0


def test_weights_take_read_only_arrays_and_copy_writable_ones():
    w = model.build_model(SMALL)
    assert all(not w[name].flags.writeable for name in w.names())
    mine = np.full((16, 16), 0.5)
    replaced = w.replace({"layer1.query": mine})
    assert mine.flags.writeable
    mine[0, 0] = 7.0
    assert replaced["layer1.query"][0, 0] == 0.5
    assert all(not replaced[name].flags.writeable for name in replaced.names())
    for name in w.names():
        if name != "layer1.query":
            assert np.shares_memory(replaced[name], w[name]), name
    as_list = w.replace({"head.out": np.zeros((16, 4)).tolist()})
    assert as_list["head.out"].dtype == np.float64 and not as_list["head.out"].flags.writeable


def test_reused_cache_gives_the_bits_of_a_fresh_one():
    # Same shape twice, a new shape, then the first shape again; what a pass
    # returns must also survive later passes through the same cache.
    w = model.build_model(SMALL)
    forward_only, kept = model.Cache(), model.Cache(keep_layers=True)
    returned = []
    for batch, length in ((3, 5), (3, 5), (2, 7), (3, 5)):
        toks = tokens_for(SMALL, batch, length, seed=batch * length + len(returned))
        fresh = model.forward(w, None, toks)
        logits = model.forward(w, None, toks, forward_only)
        assert np.array_equal(logits, fresh)
        assert np.array_equal(model.forward_pass(w, toks, cache=kept), fresh)
        grads = model.backward(kept, np.ones_like(fresh), [("query", 1), ("value", 2)])
        again = model.Cache(keep_layers=True)
        model.forward_pass(w, toks, cache=again)
        for key, g in model.backward(again, np.ones_like(fresh), grads).items():
            assert np.array_equal(g, grads[key]), key
        returned.append((logits, fresh.copy(), grads, {k: g.copy() for k, g in grads.items()}))
    for logits, logits_then, grads, grads_then in returned:
        assert np.array_equal(logits, logits_then)
        for key, g in grads.items():
            assert np.array_equal(g, grads_then[key]), key


def test_backward_needs_a_cache_that_kept_every_layer():
    w = model.build_model(SMALL)
    cache = model.Cache()
    logits = model.forward_pass(w, tokens_for(SMALL, 2, 4), cache=cache)
    with pytest.raises(ValueError, match="keep_layers"):
        model.backward(cache, np.ones_like(logits), [("query", 1)])


def test_forward_shapes_and_determinism():
    w = model.build_model(SMALL)
    toks = tokens_for(SMALL, 3, 5)
    logits = model.forward(w, None, toks)
    assert logits.shape == (3, SMALL.n_outputs)
    logits2 = model.forward(w, None, toks)
    assert np.array_equal(logits, logits2)


def test_forward_single_token():
    w = model.build_model(SMALL)
    logits = model.forward(w, None, np.array([[3]]))
    assert logits.shape == (1, SMALL.n_outputs)


def test_forward_zero_delta_bit_exact():
    w = model.build_model(SMALL)
    toks = tokens_for(SMALL, 4, 8, seed=1)
    base = model.forward(w, None, toks)
    zero = {("query", 1): np.zeros((16, 16)), ("value", 2): np.zeros((16, 16))}
    adapted = model.forward(w, zero, toks)
    assert np.array_equal(base, adapted)


def test_forward_nonzero_delta_changes_logits():
    w = model.build_model(SMALL)
    toks = tokens_for(SMALL, 2, 6, seed=2)
    base = model.forward(w, None, toks)
    dw = {("value", 1): matcore.gaussian(16, 16, 0, 0.1, 5)}
    out = model.forward(w, dw, toks)
    assert not np.array_equal(base, out)


def test_forward_permutation_equivariance():
    w = model.build_model(SMALL)
    toks = tokens_for(SMALL, 6, 7, seed=3)
    perm = np.array([4, 0, 5, 2, 1, 3])
    logits = model.forward(w, None, toks)
    permuted = model.forward(w, None, toks[perm])
    assert np.array_equal(permuted, logits[perm])


# The desk config and the gradcheck geometry (d=16), as ExperimentConfigs for their tasks.
INVARIANCE_CONFIGS = {
    "desk": ExperimentConfig(),
    "d16": ExperimentConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32, vocab_size=32,
                            max_len=16, n_outputs=4, rank=2, seq_len=8),
}


@pytest.mark.parametrize("name", INVARIANCE_CONFIGS)
def test_an_example_gets_the_bits_of_its_batch_row_when_alone(name):
    # Every product of the pass is per example, so an example's logits do not
    # depend on the batch it is in, nor on the chunks that batch runs in.
    cfg = INVARIANCE_CONFIGS[name]
    base = model.build_model(cfg.model_config())
    task = tasks.build_task("teacher", base, cfg.seed_data, cfg.rank, cfg.seq_len)
    teacher = adapters.merge(base, *task.hidden)
    for batch in (1, 2, 16, 256):
        toks, targets = task.batch(f"invariance.{batch}", batch)
        rows = range(batch)
        if batch == 256:  # each chunk's first and last example, and every 37th
            chunks = model.chunks(base.config, batch, cfg.seq_len)
            rows = sorted({*range(0, batch, 37), *(r.start for r in chunks),
                           *(r.stop - 1 for r in chunks)})
        for weights in (base, teacher):
            logits = model.forward_pass(weights, toks)
            if weights is teacher:
                assert np.array_equal(logits, targets)
            for i in rows:
                alone = model.forward_pass(weights, toks[i:i + 1])[0]
                assert np.array_equal(alone, logits[i]), (batch, i)


def test_forward_rejects_bad_tokens():
    w = model.build_model(SMALL)
    with pytest.raises(ValueError, match="out of range"):
        model.forward(w, None, np.array([[SMALL.vocab_size]]))
    with pytest.raises(ValueError, match="max_len"):
        model.forward(w, None, np.zeros((1, SMALL.max_len + 1), dtype=int))
    with pytest.raises(ValueError, match="integers"):
        model.forward(w, None, np.array([[0.5]]))


def test_forward_rejects_bad_delta_shape():
    w = model.build_model(SMALL)
    with pytest.raises(matcore.ShapeError):
        model.forward(w, {("query", 1): np.zeros((4, 4))}, np.array([[1]]))


def test_replace_rejects_unknown_name():
    w = model.build_model(SMALL)
    with pytest.raises(KeyError):
        w.replace({"nope": np.zeros((1, 1))})


def test_checkpoint_round_trip(tmp_path):
    w = model.build_model(SMALL)
    path = tmp_path / "model.ckpt"
    model.save_model(path, w)
    back = model.load_model(path)
    assert back.config == SMALL
    for name in w.names():
        assert np.array_equal(back[name], w[name]), name
    toks = tokens_for(SMALL, 2, 4, seed=9)
    assert np.array_equal(model.forward(back, None, toks), model.forward(w, None, toks))


def test_checkpoint_rejects_tampered_header(tmp_path):
    w = model.build_model(SMALL)
    path = tmp_path / "model.ckpt"
    model.save_model(path, w)
    rewrite_header(path, lambda line: line.replace("CONFIG", "KONFIG", 1))
    with pytest.raises(ValueError, match=f"{path}: line 1: expected CONFIG line, got 'KONFIG "):
        model.load_model(path)


@pytest.mark.parametrize("edit, message", [
    (lambda line: line + " bogus=3", "unknown key 'bogus'"),
    (lambda line: line.replace(" d_ff=32", " d_ff=wide"), "bad value for d_ff: 'wide'"),
    (lambda line: line.replace(" seed=0", ""), "missing key 'seed'"),
    (lambda line: line + " n_heads=4", "duplicate key 'n_heads'"),
    (lambda line: line.replace(" d_model=16", " d_model=0"), "d_model must be >= 1"),
])
def test_checkpoint_header_errors_name_the_key(tmp_path, edit, message):
    w = model.build_model(SMALL)
    path = tmp_path / "model.ckpt"
    model.save_model(path, w)
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match=f"model.ckpt: line 1: .*{message}"):
        model.load_model(path)



# --- row helpers ----------------------------------------------------------------

def test_row_max_equals_np_max_with_nan_inf_and_signed_zeros():
    rng = np.random.default_rng(0)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    for n in range(1, 34):
        for shape in ((n,), (7, n), (3, 5, n), (2, 3, 4, n)):
            z = rng.standard_normal(shape)
            hit = rng.random(shape) < 0.25
            z[hit] = rng.choice(specials, hit.sum())
            z[..., -1] = specials[n % 5]  # a special value in the odd tail too
            expected = np.max(z, axis=-1, keepdims=True)
            got = model._row_max(z)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected, equal_nan=True), (n, shape)
            out, tmp = np.empty(expected.shape), np.empty(shape[:-1] + (n // 2,))
            assert model._row_max(z, out, tmp) is out
            assert np.array_equal(out, expected, equal_nan=True), (n, shape)


def test_row_sum_is_within_n_eps_of_the_exact_sum():
    rng = np.random.default_rng(1)
    eps = np.finfo(np.float64).eps
    for n in (1, 2, 3, 5, 8, 16, 17, 32, 33, 64):
        for shape in ((n,), (9, n), (4, 6, n), (3, 4, 5, n)):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
            got = model._row_sum(x)
            assert got.shape == shape[:-1] + (1,)
            out, ones = np.empty(got.shape), np.ones((n, 1))
            assert model._row_sum(x, out, ones) is out
            assert np.array_equal(out, got)
            for index in np.ndindex(shape[:-1]):
                row = x[index]
                exact = math.fsum(row)
                assert abs(got[index][0] - exact) <= n * eps * math.fsum(np.abs(row)), (n, index)


def test_row_sums_do_not_depend_on_the_place_in_the_batch():
    # One GEMV per example: BLAS may add a row differently by its position in
    # one matrix, so a flat GEMV over the whole batch would break this.
    rng = np.random.default_rng(2)
    for shape in ((6, 7, 16), (5, 4, 7, 7), (9, 3, 33)):
        x = rng.standard_normal(shape)
        sums = model._row_sum(x)
        perm = rng.permutation(shape[0])
        assert np.array_equal(model._row_sum(x[perm]), sums[perm])
        assert np.array_equal(model._row_sum(x[2:3]), sums[2:3])
