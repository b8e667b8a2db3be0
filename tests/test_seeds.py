"""A seed enters the generator only if it fits its 64 bits (``_rng.check_seed``).

Masking would make seed 2**64 the stream of seed 0 and seed -1 that of
2**64 - 1, so every entry point rejects such a seed with one message that
names it, as the config file and the command line do.
"""

import numpy as np
import pytest

from loralab import _rng, adapters, matcore, model

SPEC = adapters.AdapterSpec("lora", 2, 2.0, ("query", "value"), (1, 2))
ENTRY_POINTS = {
    "derive_seed": lambda seed: _rng.derive_seed(seed, "label"),
    "gaussian_block": lambda seed: _rng.gaussian_block(4, seed),
    "randint_block": lambda seed: _rng.randint_block(4, 10, seed),
    "matcore.gaussian": lambda seed: matcore.gaussian(2, 2, seed=seed),
    "init_params": lambda seed: adapters.init_params(SPEC, 8, seed),
    "build_model": lambda seed: model.build_model(model.ModelConfig(
        n_layers=2, d_model=8, n_heads=2, d_ff=8, vocab_size=8, max_len=4, n_outputs=2,
        seed=seed)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("seed", [-1, 2 ** 64, -2 ** 70])
def test_a_seed_outside_64_bits_is_an_error(entry, seed):
    with pytest.raises(ValueError, match=f"^seed {seed} is not an unsigned 64-bit integer$"):
        ENTRY_POINTS[entry](seed)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_the_extreme_seeds_are_taken(entry):
    for seed in (0, _rng.MASK64):
        ENTRY_POINTS[entry](seed)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_float_seed_is_an_error(entry):
    with pytest.raises(ValueError, match="^seed 3.5 is not an unsigned 64-bit integer$"):
        ENTRY_POINTS[entry](3.5)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 3.5])
def test_an_empty_draw_still_checks_its_seed(seed):
    with pytest.raises(ValueError, match=f"^seed {seed} is not an unsigned 64-bit integer$"):
        _rng.gaussian_block(0, seed)



@pytest.mark.parametrize("seed", [np.uint64(2 ** 64 - 1), np.int64(5)])
def test_a_numpy_integer_seed_is_the_same_stream(seed):
    assert _rng.derive_seed(seed, "label") == _rng.derive_seed(int(seed), "label")
    assert _rng.gaussian_block(70_000, seed).tobytes() == _rng.gaussian_block(70_000, int(seed)).tobytes()
    assert _rng.randint_block(9, 10, seed).tobytes() == _rng.randint_block(9, 10, int(seed)).tobytes()
