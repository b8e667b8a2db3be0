import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from loralab import _rng, model

P = _rng._PAIR_BLOCK
SCALES = [(0.0, 1.0), (0.0, 0.0), (0.25, 1.7), (0.0, 1 / math.sqrt(768))]


def test_vectorized_matches_scalar_reference_bitwise():
    for seed in (0, 1, 12345, 2**63 + 17, _rng.MASK64):
        block = _rng.raw64_block(seed, 0, 128)
        reference = np.array([_rng.raw64(seed, k) for k in range(128)], dtype=np.uint64)
        assert (block == reference).all()


def test_block_start_offset():
    full = _rng.raw64_block(7, 0, 100)
    tail = _rng.raw64_block(7, 40, 60)
    assert (full[40:] == tail).all()


def test_uniforms_in_unit_interval():
    u = _rng.uniform_block(3, 0, 10_000)
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert _rng.uniform(3, 5) == u[5]


def test_gaussian_block_matches_scalar_pairs():
    g = _rng.gaussian_block(10, 99)
    pairs = [_rng.gaussian_pair(99, k) for k in range(5)]
    flat = [v for pair in pairs for v in pair]
    assert np.allclose(g, flat, rtol=1e-12, atol=0.0)


def _one_shot_gaussians(n, seed):
    """gaussian_block's formula evaluated over all n values in one pass."""
    z = _rng.raw64_block(seed, 0, 2 * ((n + 1) // 2))
    u1 = ((z[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _rng._TWO53
    u2 = (z[1::2] >> np.uint64(11)).astype(np.float64) * _rng._TWO53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(z.size)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


@pytest.mark.parametrize("n", [7, 2 * _rng._PAIR_BLOCK - 1, 2 * _rng._PAIR_BLOCK,
                               2 * _rng._PAIR_BLOCK + 1, 4 * _rng._PAIR_BLOCK + 3])
def test_gaussian_block_chunk_edges_match_both_references(n):
    # Scalar libm and numpy's vector math may differ in the last ulp, hence
    # the tolerance; against the same formula in one pass, every bit is equal.
    g = _rng.gaussian_block(n, 23)
    pairs = [_rng.gaussian_pair(23, k) for k in range((n + 1) // 2)]
    assert np.allclose(g, [v for pair in pairs for v in pair][:n], rtol=1e-12, atol=0.0)
    assert np.array_equal(g.view(np.uint64), _one_shot_gaussians(n, 23).view(np.uint64))


def test_gaussian_block_paper_size_is_bit_identical_to_one_pass():
    n = 768 * 3072
    g = _rng.gaussian_block(n, 77)
    assert np.array_equal(g.view(np.uint64), _one_shot_gaussians(n, 77).view(np.uint64))


def test_gaussian_odd_length_prefix_of_even():
    odd = _rng.gaussian_block(7, 11)
    even = _rng.gaussian_block(8, 11)
    assert (odd == even[:7]).all()


def test_derive_seed_distinct_labels():
    seeds = {_rng.derive_seed(0, label) for label in ("a", "b", "tokens.1", "tokens.2")}
    assert len(seeds) == 4
    assert _rng.derive_seed(5, "x") == _rng.derive_seed(5, "x")


def test_fnv1a64_known_value():
    # FNV-1a of empty input is the offset basis
    assert _rng.fnv1a64("") == 0xCBF29CE484222325


def test_randint_block_range_and_determinism():
    draws = _rng.randint_block(5_000, 64, 17)
    assert draws.min() >= 0 and draws.max() < 64
    again = _rng.randint_block(5_000, 64, 17)
    assert (draws == again).all()
    # every residue appears for a power-of-two bound at this sample size
    assert len(np.unique(draws)) == 64


@pytest.mark.parametrize("bound, message", [
    (0, "bound must be >= 1, got 0"),
    (-3, "bound must be >= 1, got -3"),
    (2.5, "bound must be an integer, got 2.5"),
    (float("nan"), "bound must be an integer, got nan"),
    (float("inf"), "bound must be an integer, got inf"),
    (True, "bound must be an integer, got True"),
    (2**53 + 1, f"bound must be <= 2**53, got {2**53 + 1}"),
    (2**70, f"bound must be <= 2**53, got {2**70}"),
], ids=["0", "-3", "2.5", "nan", "inf", "True", "2**53+1", "2**70"])
def test_randint_rejects_bad_bound(bound, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _rng.randint_block(4, bound, 1)


def test_randint_takes_the_largest_bound():
    draws = _rng.randint_block(1000, 2**53, 1)
    assert draws.dtype == np.int64 and draws.min() >= 0 and draws.max() < 2**53
    assert (draws == (_rng.raw64_block(1, 0, 1000) >> np.uint64(11)).astype(np.int64)).all()


@pytest.mark.parametrize("value, sign, message", [
    (True, None, "x must be a real number, got True"),
    (np.bool_(False), "non-negative", "x must be a real number, got np.False_"),
    ("1", "positive", "x must be a real number, got '1'"),
    (None, None, "x must be a real number, got None"),
    (1 + 0j, None, "x must be a real number, got (1+0j)"),
    (float("nan"), None, "x must be finite, got nan"),
    (-math.inf, "non-negative", "x must be finite and non-negative, got -inf"),
    (-1e-300, "non-negative", "x must be finite and non-negative, got -1e-300"),
    (0, "positive", "x must be positive and finite, got 0"),
    (np.float32(-2), "positive", "x must be positive and finite, got -2.0"),
    (10**400, "positive", f"x must be positive and finite, got {10**400}"),
], ids=["True", "np.False_", "str", "None", "complex", "nan", "-inf", "-1e-300", "0",
        "float32", "10**400"])
def test_check_real_names_the_value_and_its_rule(value, sign, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _rng.check_real("x", value, sign)


@pytest.mark.parametrize("value", [0, -3, 2.5, np.float32(0.5), np.float64(-1e300), np.int64(7)])
def test_check_real_takes_python_and_numpy_reals(value):
    _rng.check_real("x", value)


@pytest.mark.parametrize("call, name, value", [
    (lambda: _rng.gaussian_block(-1, 3), "n", -1),
    (lambda: _rng.gaussian_block(-2, 3), "n", -2),
    (lambda: _rng.gaussian_block(2.5, 3), "n", 2.5),
    (lambda: _rng.randint_block(-1, 5, 3), "n", -1),
    (lambda: _rng.raw64_block(3, 0, -4), "count", -4),
    (lambda: _rng.raw64_block(3, -1, 4), "start", -1),
])
def test_a_negative_or_fractional_count_is_an_error(call, name, value):
    # counts and starts follow _rng.check_int, the rule for sizes
    rule = ">= 0, got" if isinstance(value, int) else "an integer, got"
    with pytest.raises(ValueError, match=re.escape(f"{name} must be {rule} {value}")):
        call()


# --- the fill shared among threads -------------------------------------------------

@pytest.fixture()
def fill_calls(monkeypatch):
    """One list per ``run_parts`` call, of the (worker, block) pairs it ran:
    each worker's workspace is wrapped to carry the worker's index."""
    calls, real = [], _rng.run_parts

    def run_parts(parts, work, workspace, fold=None):
        ran = []
        calls.append(ran)

        def tagged(block, space):
            worker, buffers = space
            ran.append((worker, block))
            return work(block, buffers)

        real(parts, tagged, lambda worker: (worker, workspace(worker)), fold)

    monkeypatch.setattr(_rng, "run_parts", run_parts)
    return calls


@pytest.mark.parametrize("n", [2 * P - 1, 2 * P, 2 * P + 1, 4 * P + 1, 768 * 3072])
def test_gaussian_block_bytes_do_not_depend_on_the_worker_count(fill_calls, n, force_cpus):
    force_cpus(1)
    g = _rng.gaussian_block(n, 5)
    references = [g.tobytes()] + [(g * std + mean).tobytes() for mean, std in SCALES]
    blocks = -(-((n + 1) // 2) // P)
    for cpus in (1, 2, 3):
        force_cpus(cpus)
        fill_calls.clear()
        draws = [_rng.gaussian_block(n, 5)] + [_rng.gaussian_block(n, 5, s) for s in SCALES]
        assert [d.tobytes() for d in draws] == references, cpus
        workers = min(cpus, blocks)
        # worker i fills blocks i, i + workers, ...
        for ran in fill_calls:
            assert {w: [b for v, b in ran if v == w] for w, _ in ran} == {
                w: list(range(w, blocks, workers)) for w in range(workers)}, cpus


@pytest.mark.parametrize("failing", [None, 0, 1])
def test_an_error_in_any_block_is_raised_and_no_thread_survives(monkeypatch, force_cpus, failing):
    force_cpus(2)
    real = _rng._fill

    def fill(out, seed, block, buffers, scale):
        if block == failing:
            raise RuntimeError(f"block {block} failed")
        real(out, seed, block, buffers, scale)

    monkeypatch.setattr(_rng, "_fill", fill)
    before = threading.active_count()
    if failing is None:
        _rng.gaussian_block(4 * P + 1, 3)
    else:
        with pytest.raises(RuntimeError, match=f"^block {failing} failed$"):
            _rng.gaussian_block(4 * P + 1, 3)
    assert threading.active_count() == before


def test_the_lowest_failing_block_is_raised_on_any_number_of_cpus(monkeypatch, force_cpus):
    # Three blocks, of which 1 and 2 fail; on two CPUs worker 0 takes blocks
    # 0 and 2 and worker 1 block 1, so the error must not be the caller's own.
    real = _rng._mix

    def mix(z, tmp, seed, start, steps):
        block = start // (2 * P)
        if block in (1, 2):
            raise RuntimeError(f"block {block} failed")
        real(z, tmp, seed, start, steps)

    monkeypatch.setattr(_rng, "_mix", mix)
    for cpus in (1, 2, 3):
        force_cpus(cpus)
        with pytest.raises(RuntimeError, match="^block 1 failed$"):
            _rng.gaussian_block(6 * P, 3)


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_fill_temporaries_stay_small_whatever_n_is(force_cpus, cpus):
    # A worker's block buffers are the steps, the mix's output and scratch
    # (2P uint64 each), and the radii and angles (P float64 each).
    force_cpus(cpus)
    _rng.gaussian_block(4 * P, 1)  # the pool's first use loads concurrent.futures
    per_worker = P * (3 * 2 * 8 + 2 * 8)
    tracemalloc.start()
    try:
        g = _rng.gaussian_block(768 * 3072, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.nbytes + cpus * per_worker + (64 << 10), peak - g.nbytes


def test_a_one_block_call_and_a_desk_model_start_no_thread(force_cpus, no_threads):
    force_cpus(8)
    _rng.gaussian_block(2 * P, 3)
    model.build_model(model.ModelConfig())
    force_cpus(1)
    _rng.gaussian_block(2 * P + 1, 3)
    force_cpus(8)
    with pytest.raises(AssertionError, match="a thread was started"):
        _rng.gaussian_block(2 * P + 1, 3)
