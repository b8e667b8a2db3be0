import io
import math
import types

import numpy as np
import pytest

from loralab import _rng, adapters, analysis, matcore, model, trainer
from loralab.adapters import AdapterSpec
from loralab.model import ModelConfig

DESK = ModelConfig()

# Exact mean of phi between independent isotropic k-dim subspaces of R^d is
# k/d (E tr(P Q) = k^2/d). Random-pair assertions below test a band around
# that computed value rather than any looser folklore figure.


def random_pair(rows, cols, seed):
    return (
        matcore.gaussian(rows, cols, 0, 1, seed),
        matcore.gaussian(rows, cols, 0, 1, seed + 10_000),
    )


# --- subspace similarity -----------------------------------------------------

def test_phi_self_identity():
    x = matcore.gaussian(24, 6, 0, 1, 1)
    assert analysis.subspace_similarity(x, x, 6, 6) == pytest.approx(1.0, abs=1e-9)
    assert analysis.subspace_similarity(x, x, 3, 3) == pytest.approx(1.0, abs=1e-9)


def test_phi_orthogonal_subspaces():
    x = np.zeros((6, 2))
    x[0, 0] = 3.0
    x[1, 1] = 2.0
    y = np.zeros((6, 2))
    y[2, 0] = 5.0
    y[3, 1] = 4.0
    assert analysis.subspace_similarity(x, y, 2, 2) == 0.0


def test_phi_random_768x8_near_k_over_d():
    x, y = random_pair(768, 8, 0)
    value = analysis.subspace_similarity(x, y, 8, 8, side="left")
    assert 0.002 < value < 0.025  # concentrated around 8/768 ~ 0.0104


def test_phi_rejects_too_many_vectors():
    x = matcore.gaussian(10, 3, 0, 1, 2)
    with pytest.raises(ValueError):
        analysis.subspace_similarity(x, x, 4, 4)


def test_phi_rejects_mismatched_spaces():
    x = matcore.gaussian(10, 3, 0, 1, 3)
    y = matcore.gaussian(8, 3, 0, 1, 4)
    with pytest.raises(matcore.ShapeError):
        analysis.subspace_similarity(x, y, 2, 2, side="left")


def test_phi_rejects_unknown_side():
    x = matcore.gaussian(6, 3, 0, 1, 0)
    with pytest.raises(ValueError, match="side"):
        analysis.subspace_similarity(x, x, 2, 2, side="middle")


def test_phi_right_side_rejects_mismatched_columns():
    x = matcore.gaussian(4, 10, 0, 1, 1)
    y = matcore.gaussian(4, 9, 0, 1, 2)
    with pytest.raises(matcore.ShapeError):
        analysis.subspace_similarity(x, y, 2, 2, side="right")


def test_phi_right_side_uses_row_space():
    x = matcore.gaussian(4, 32, 0, 1, 5)
    assert analysis.subspace_similarity(x, x, 4, 4, side="right") == pytest.approx(1.0, abs=1e-9)
    y = matcore.gaussian(6, 32, 0, 1, 6)
    value = analysis.subspace_similarity(x, y, 4, 4, side="right")
    assert 0.0 <= value <= 1.0


def test_phi_properties_seeded():
    # range, symmetry, scale invariance quantified over seeded pairs
    for seed in range(120):
        rows = 8 + seed % 17
        cols = 3 + seed % 5
        x, y = random_pair(rows, cols, seed)
        i = 1 + seed % 3
        j = 1 + (seed // 3) % 3
        phi = analysis.subspace_similarity(x, y, i, j)
        assert 0.0 <= phi <= 1.0
        sym = analysis.subspace_similarity(y, x, j, i)
        assert abs(phi - sym) < 1e-9
        for c in (-3.0, 0.5, 10.0):
            scaled = analysis.subspace_similarity(c * x, y, i, j)
            assert abs(phi - scaled) < 1e-9


# --- conversion matrices -------------------------------------------------------

def test_conversion_identity_and_scalar():
    a = matcore.gaussian(4, 8, 0, 1, 7)
    assert np.allclose(analysis.conversion_a(np.eye(8), a), a.T, atol=1e-12)
    assert np.allclose(analysis.conversion_a(2 * np.eye(8), a), 0.5 * a.T, atol=1e-12)
    b = matcore.gaussian(8, 4, 0, 1, 8)
    assert np.allclose(analysis.conversion_b(np.eye(8), b), b, atol=1e-12)
    assert np.array_equal(analysis.conversion_b(np.eye(8), np.zeros((8, 4))), np.zeros((8, 4)))


def test_conversion_round_trip_seeded():
    for seed in range(30):
        n = 8 + seed % 32
        w0 = matcore.gaussian(n, n, 0, 1, seed)
        if matcore.condition_estimate(w0) > 1e6:
            continue
        a = matcore.gaussian(4, n, 0, 1, seed + 500)
        conv = analysis.conversion_a(w0, a)
        assert np.linalg.norm(w0 @ conv - a.T) / np.linalg.norm(a.T) < 1e-8
        b = matcore.gaussian(n, 4, 0, 1, seed + 900)
        conv_b = analysis.conversion_b(w0, b)
        assert np.linalg.norm(w0 @ conv_b - b) / np.linalg.norm(b) < 1e-8


def test_conversion_rejects_non_square():
    with pytest.raises(matcore.ShapeError, match="square"):
        analysis.conversion_a(np.ones((4, 6)), np.ones((2, 4)))


def test_conversion_rejects_a_singular_w0():
    w0 = np.zeros((4, 4))
    w0[0, 0] = 1.0
    a = matcore.gaussian(2, 4, 0, 1, 9)
    with pytest.raises(matcore.SingularMatrixError):
        analysis.conversion_a(w0, a)


# --- grids ----------------------------------------------------------------------

def test_grid_repeated_matrix_is_all_ones():
    m = matcore.gaussian(16, 4, 0, 1, 10)
    grid = analysis.layer_similarity_grid([m, m, m], 4, 4)
    assert np.allclose(grid.values, 1.0, atol=1e-9)
    assert grid.average_offdiagonal == pytest.approx(1.0, abs=1e-9)


def test_grid_diagonal_symmetry_and_range():
    mats = [matcore.gaussian(16, 4, 0, 1, seed) for seed in range(5)]
    grid = analysis.layer_similarity_grid(mats, 4, 4)
    assert np.allclose(np.diag(grid.values), 1.0, atol=1e-9)
    assert np.abs(grid.values - grid.values.T).max() < 1e-9
    assert (grid.values >= 0).all() and (grid.values <= 1 + 1e-9).all()


def test_grid_distinct_i_and_j():
    mats = [matcore.gaussian(12, 4, 0, 1, seed) for seed in range(3)]
    grid = analysis.layer_similarity_grid(mats, 2, 3)
    assert grid.i == 2 and grid.j == 3
    assert (grid.values >= 0).all() and (grid.values <= 1 + 1e-9).all()
    # diagonal compares a 2-dim subspace with its 3-dim superset: overlap 2/2
    assert np.allclose(np.diag(grid.values), 1.0, atol=1e-9)


def test_grid_requires_same_shapes():
    with pytest.raises(matcore.ShapeError):
        analysis.layer_similarity_grid([np.ones((4, 2)), np.ones((5, 2))], 2, 2)


def test_random_baseline_768_grid_near_k_over_d():
    grid = analysis.random_baseline_grid(768, 8, 12, 8, 8, seed=0)
    assert abs(grid.average_offdiagonal - 8 / 768) < 0.002
    assert np.allclose(np.diag(grid.values), 1.0, atol=1e-9)


def test_random_baseline_desk_shape_near_k_over_d():
    grid = analysis.random_baseline_grid(32, 4, 4, 4, 4, seed=1)
    assert abs(grid.average_offdiagonal - 4 / 32) < 0.08


def test_random_baseline_deterministic():
    g1 = analysis.random_baseline_grid(16, 4, 3, 4, 4, seed=5)
    g2 = analysis.random_baseline_grid(16, 4, 3, 4, 4, seed=5)
    assert np.array_equal(g1.values, g2.values)
    with pytest.raises(ValueError):
        analysis.random_baseline_grid(16, 4, 1, 4, 4)


def test_grid_csv_format():
    grid = analysis.layer_similarity_grid(
        [matcore.gaussian(8, 2, 0, 1, s) for s in range(3)], 2, 2, labels=["1", "2", "3"]
    )
    buf = io.StringIO()
    analysis.write_grid_csv(buf, grid)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "labels,1,2,3"
    assert len(lines) == 5
    assert lines[-1].startswith("# side=left i=2 j=2 avg_offdiag=")
    first_row = lines[1].split(",")
    assert first_row[0] == "1" and float(first_row[1]) == pytest.approx(1.0, abs=1e-9)


def test_grid_rejects_a_label_list_of_the_wrong_length():
    mats = [matcore.gaussian(8, 2, 0, 1, s) for s in range(4)]
    with pytest.raises(ValueError, match="^1 labels for a grid of 4 matrices$"):
        analysis.layer_similarity_grid(mats, 2, 2, labels=["1"])


# --- stacked phi against the per-pair formula ------------------------------------

def _per_pair_phi(bases, i, j):
    """The per-pair formula phi was computed with before it was stacked."""
    n = len(bases)
    return np.array([[min(max(np.linalg.norm(bases[p, :, :i].T @ bases[q, :, :j]) ** 2
                                  / min(i, j), 0.0), 1.0)
                      for q in range(n)] for p in range(n)])


@pytest.mark.parametrize("rows, cols, n", [(32, 4, 4), (768, 8, 12)])
@pytest.mark.parametrize("side", analysis.SIDES)
def test_stacked_phi_matches_the_per_pair_formula(rows, cols, n, side):
    mats = np.stack([matcore.gaussian(rows, cols, 0, 1, 50 + s) for s in range(n)])
    mats[1] = mats[0] * 3.0  # one pair spans the same subspace
    for i, j in ((cols, cols), (cols // 2, cols), (cols, 1), (1, 1)):
        grid = analysis.layer_similarity_grid(mats, i, j, side)
        oracle = _per_pair_phi(analysis._basis(mats, max(i, j), side), i, j)
        assert np.abs(grid.values - oracle).max() <= 1e-15, (i, j)


def test_phi_rejects_bases_that_are_not_orthonormal():
    bases = analysis._basis(np.stack([matcore.gaussian(16, 3, 0, 1, s) for s in range(3)]),
                            3, "left")
    assert analysis._phi(bases[:, None], bases[None], 3, 3).shape == (3, 3)
    scaled = bases.copy()
    scaled[2] *= 1.0 + 1e-6  # overlap (1 + 1e-6)^2 against itself
    with pytest.raises(matcore.NumericError, match="outside \\[0, 1\\] tolerance"):
        analysis._phi(scaled[:, None], scaled[None], 3, 3)
    with pytest.raises(matcore.NumericError):
        analysis._phi(scaled[2], bases[2] * 1.001, 3, 3)


# --- lora vs condlora comparison ----------------------------------------------------

@pytest.fixture(scope="module")
def desk_weights():
    return model.build_model(DESK)


def spec_pair():
    geometry = AdapterSpec("lora", 4, 4.0, ("query", "value"), (1, 2, 3, 4))
    return geometry


def random_params(method, seed):
    spec = adapters.as_method(spec_pair(), method)
    init = adapters.init_params(spec, 32, seed)
    tensors = {
        key: matcore.gaussian(*value.shape, 0.0, 0.25, seed + 31 + i)
        for i, (key, value) in enumerate(init.tensors.items())
    }
    return adapters.AdapterParams(tensors)


def test_compare_lora_condlora_shape(desk_weights):
    rows = analysis.compare_lora_condlora(
        random_params("lora", 1), random_params("condlora", 2), desk_weights, spec_pair()
    )
    assert len(rows) == 8  # 2 modules x 4 layers
    for row in rows:
        assert 0.0 <= row.phi_a <= 1.0
        assert 0.0 <= row.phi_b <= 1.0
        assert 0.0 <= row.phi_delta <= 1.0


def test_compare_self_similarity_is_one(desk_weights):
    # condlora compared against itself through the shared geometry
    cond = random_params("condlora", 3)
    lora_spec = spec_pair()
    mirrored = {}
    for m, l in lora_spec.targets():
        w0 = desk_weights.projection(m, l)
        a, b = adapters.adapter_factors(cond, adapters.as_method(lora_spec, "condlora"), w0, m, l)
        mirrored[f"lora.{m}.{l}.A"] = a
        mirrored[f"lora.{m}.{l}.B"] = b
    rows = analysis.compare_lora_condlora(
        adapters.AdapterParams(mirrored), cond, desk_weights, lora_spec
    )
    for row in rows:
        assert row.phi_a == pytest.approx(1.0, abs=1e-9)
        assert row.phi_b == pytest.approx(1.0, abs=1e-9)
        assert row.phi_delta == pytest.approx(1.0, abs=1e-9)


def test_compare_random_adapters_near_baseline(desk_weights):
    values = []
    for seed in range(8):
        rows = analysis.compare_lora_condlora(
            random_params("lora", 100 + seed),
            random_params("condlora", 300 + seed),
            desk_weights,
            spec_pair(),
        )
        values.extend([row.phi_a for row in rows])
    # independent subspaces in R^32 at rank 4: mean ~ 4/32
    assert abs(float(np.mean(values)) - 0.125) < 0.05


def test_comparison_csv(desk_weights):
    rows = analysis.compare_lora_condlora(
        random_params("lora", 7), random_params("condlora", 8), desk_weights, spec_pair()
    )
    buf = io.StringIO()
    analysis.write_comparison_csv(buf, rows)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "module,layer,phi_A,phi_B,phi_dW"
    assert len(lines) == 9


def test_conversion_grid_for_trained_shapes(desk_weights):
    spec = spec_pair()
    grid = analysis.conversion_grid(desk_weights, random_params("lora", 9), spec, "value", "A")
    assert grid.labels == ["1", "2", "3", "4"]
    assert grid.i == spec.rank and grid.side == "left"
    cond_grid = analysis.conversion_grid(
        desk_weights, random_params("condlora", 10), adapters.as_method(spec, "condlora"),
        "value", "B",
    )
    assert cond_grid.values.shape == (4, 4)


def test_condlora_conversion_a_grid_is_one(desk_weights):
    # W0^{-1} (W0 theta_A) = theta_A at every layer, so every pair is identical
    spec = adapters.as_method(spec_pair(), "condlora")
    for seed in range(3):
        params = random_params("condlora", 20 + seed)
        for module in spec.target_modules:
            grid = analysis.conversion_grid(desk_weights, params, spec, module, "A")
            assert np.abs(grid.values - 1.0).max() <= 1e-6, (seed, module)


def conv_a_errors(w0s, rank):
    """||conv_A - theta_A|| / ||theta_A|| per W0 for a CondLoRA adapter on the stack.

    conv_A = W0^{-1} (W0 theta_A) is theta_A exactly, so this is the forward
    error of the one stacked solve against a known answer, at no extra solve.
    """
    spec = AdapterSpec("condlora", rank, float(rank), ("query",), tuple(range(1, len(w0s) + 1)))
    params = adapters.init_params(spec, w0s[0].shape[0], seed=5)
    theta_a = params.tensors["cond.query.thetaA"]
    rhs = [adapters.adapter_factors(params, spec, w0, "query", l)[0].T
           for l, w0 in enumerate(w0s, start=1)]
    conv = analysis._convert(w0s, rhs, [f"layer{l}.query" for l in spec.target_layers])
    return np.linalg.norm(conv - theta_a, axis=(1, 2)) / np.linalg.norm(theta_a)


# A backward-stable solve has a forward error of order cond_2(W0) * eps. Measured
# with numpy's np.linalg.cond: error / (cond_2 * eps) was 0.28-0.62 on the
# 12-stack of Gaussian 768x768 W0s below and 0.10-0.33 on the desk stack; 4
# leaves room for another BLAS. The pivot-ratio estimate is no base for the
# bound: it read 15-74 where cond_2 read 1600-19100 on that stack.
FORWARD_ERROR_PER_COND_EPS = 4.0


def test_condlora_conv_a_recovers_theta_a_within_cond_eps_on_a_paper_dim_stack():
    # 12 Gaussian W0s at d=768 (std 1/sqrt(d), spectral norm about 2), as in
    # a paper-dim model but without building one. Their cond_2, rounded up,
    # measured once with np.linalg.cond (1.8 s for the stack, too slow to
    # repeat here):
    cond_2 = np.array([19100, 8800, 1700, 10700, 4400, 4600, 10100, 4600, 5800, 2100, 5800,
                       11400])
    d = 768
    w0s = [matcore.gaussian(d, d, 0.0, 1 / math.sqrt(d), _rng.derive_seed(0, f"paper.w0.{l}"))
           for l in range(1, 13)]
    errors = conv_a_errors(w0s, rank=8)
    assert np.all(errors <= FORWARD_ERROR_PER_COND_EPS * cond_2 * np.finfo(float).eps), errors


def test_condlora_conv_a_recovers_theta_a_within_cond_eps_on_the_desk_stack(desk_weights):
    w0s = [desk_weights.projection(m, l) for m in ("query", "value") for l in (1, 2, 3, 4)]
    errors = conv_a_errors(w0s, rank=4)
    cond_2 = np.linalg.cond(np.stack(w0s))
    assert np.all(errors <= FORWARD_ERROR_PER_COND_EPS * cond_2 * np.finfo(float).eps), errors


def test_compare_delta_matches_full_delta_similarity(desk_weights):
    geometry = spec_pair()
    lora_spec = adapters.as_method(geometry, "lora")
    cond_spec = adapters.as_method(geometry, "condlora")
    r = geometry.rank
    for seed in range(5):
        lora, cond = random_params("lora", 40 + seed), random_params("condlora", 60 + seed)
        rows = analysis.compare_lora_condlora(lora, cond, desk_weights, geometry)
        for row in rows:
            w0 = desk_weights.projection(row.module, row.layer)
            full = analysis.subspace_similarity(
                adapters.delta_w(lora, lora_spec, w0, row.module, row.layer),
                adapters.delta_w(cond, cond_spec, w0, row.module, row.layer),
                r, r,
            )
            assert abs(row.phi_delta - full) <= 1e-9, (seed, row)


def test_compare_delta_repeats_b_when_a_has_full_row_rank(desk_weights):
    # col(B A) = col(B) whenever A (r x d) has full row rank, which generic
    # factors of both methods have
    for seed in range(5):
        rows = analysis.compare_lora_condlora(random_params("lora", 80 + seed),
                                              random_params("condlora", 90 + seed),
                                              desk_weights, spec_pair())
        for row in rows:
            assert abs(row.phi_delta - row.phi_b) <= 1e-12, (seed, row)


# --- rank-deficient conversions ----------------------------------------------------

def test_zero_b_factors_are_a_numeric_error_naming_grid_and_layer(desk_weights):
    # zero-initialized B (an untrained adapter) spans no subspace, so no phi of it means anything
    geometry = spec_pair()
    untrained = {method: (adapters.init_params(adapters.as_method(geometry, method), 32, 5),
                          adapters.as_method(geometry, method))
                 for method in adapters.METHODS}
    for method, loaded in untrained.items():
        with pytest.raises(matcore.NumericError, match="^conv_B query layer1: rank below 4 "):
            analysis.analyze(desk_weights, [loaded], 4, 4)
    with pytest.raises(matcore.NumericError, match="^comparison B of condlora layer1.query: "):
        analysis.compare_lora_condlora(random_params("lora", 3), untrained["condlora"][0],
                                       desk_weights, geometry)
    with pytest.raises(matcore.NumericError, match="^y: rank below 2 "):
        analysis.subspace_similarity(matcore.gaussian(8, 2, 0, 1, 4), np.zeros((8, 2)), 2, 2)


def test_one_rank_deficient_layer_is_named(desk_weights):
    spec = adapters.as_method(spec_pair(), "lora")
    params = random_params("lora", 21)
    tensors = dict(params.tensors)
    b = tensors["lora.value.3.B"].copy()
    b[:, 1] = b[:, 0]
    tensors["lora.value.3.B"] = b
    with pytest.raises(matcore.NumericError, match="^conv_B value layer3: rank below 4 "):
        analysis.conversion_grid(desk_weights, adapters.AdapterParams(tensors), spec, "value", "B")
    grid = analysis.conversion_grid(desk_weights, adapters.AdapterParams(tensors), spec,
                                    "value", "B", 3, 3)
    assert grid.values.shape == (4, 4)


# --- stacked analysis against a per-layer reference --------------------------------

@pytest.mark.parametrize("method", adapters.METHODS)
@pytest.mark.parametrize("which", ["A", "B"])
@pytest.mark.parametrize("side, i, j", [("left", 4, 4), ("right", 2, 3)])
def test_conversion_grid_equals_a_per_layer_reference(desk_weights, method, which, side, i, j):
    spec = adapters.as_method(spec_pair(), method)
    params = random_params(method, 11)
    grid = analysis.conversion_grid(desk_weights, params, spec, "value", which, i, j, side)
    convs = []
    for layer in spec.target_layers:
        w0 = desk_weights.projection("value", layer)
        a, b = adapters.adapter_factors(params, spec, w0, "value", layer)
        convs.append(analysis.conversion_a(w0, a) if which == "A"
                     else analysis.conversion_b(w0, b))
    n = len(convs)
    reference = np.array([[analysis.subspace_similarity(convs[p], convs[q], i, j, side)
                           for q in range(n)] for p in range(n)])
    assert grid.values.tobytes() == reference.tobytes()


def test_compare_equals_a_per_layer_reference(desk_weights):
    geometry = spec_pair()
    lora_spec = adapters.as_method(geometry, "lora")
    cond_spec = adapters.as_method(geometry, "condlora")
    lora, cond = random_params("lora", 12), random_params("condlora", 13)
    r = geometry.rank
    rows = analysis.compare_lora_condlora(lora, cond, desk_weights, geometry)
    assert [(row.module, row.layer) for row in rows] == list(geometry.targets())
    for row in rows:
        w0 = desk_weights.projection(row.module, row.layer)
        a_l, b_l = adapters.adapter_factors(lora, lora_spec, w0, row.module, row.layer)
        a_c, b_c = adapters.adapter_factors(cond, cond_spec, w0, row.module, row.layer)
        assert row.phi_a == analysis.subspace_similarity(a_l, a_c, r, r, side="right")
        assert row.phi_b == analysis.subspace_similarity(b_l, b_c, r, r, side="left")
        assert row.phi_delta == row.phi_b


def test_grid_takes_one_svd_and_a_conversion_grid_one_solve(desk_weights, monkeypatch):
    calls = {"svd": 0, "solve": 0}
    for name in calls:
        real = getattr(matcore, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(matcore, name, counted)
    mats = [matcore.gaussian(12, 4, 0, 1, seed) for seed in range(3)]
    analysis.layer_similarity_grid(mats, 2, 3)
    assert calls == {"svd": 1, "solve": 0}
    spec = spec_pair()
    analysis.conversion_grid(desk_weights, random_params("lora", 14), spec, "query", "B", 1, 4)
    assert calls == {"svd": 2, "solve": 1}


def test_analyze_factors_each_w0_once(desk_weights, monkeypatch):
    solves = []  # (W0s, right-hand side columns) per matcore.solve call
    real = matcore.solve

    def counted(a, rhs):
        solves.append((len(a), np.shape(rhs)[-1]))
        return real(a, rhs)

    monkeypatch.setattr(matcore, "solve", counted)
    spec = spec_pair()
    analysis.analyze(desk_weights, [(random_params("lora", 26), spec)], 4, 4)
    assert solves == [(4, 8), (4, 8)]  # one per module, [A^T | B] on each of its 4 W0s
    solves.clear()
    analysis.conversion_grid(desk_weights, random_params("lora", 26), spec, "value", "B")
    assert solves == [(4, 4)]


def _assert_halves_equal_one_factor_solves(weights, params, spec, d):
    for module in spec.target_modules:
        both = analysis._conversions(weights, params, spec, module, "AB")
        assert list(both) == ["A", "B"]
        for which in "AB":
            alone = analysis._conversions(weights, params, spec, module, which)[which]
            assert both[which].shape == alone.shape == (len(spec.target_layers), d, spec.rank)
            assert both[which].tobytes() == alone.tobytes(), (spec.method, module, which)


@pytest.mark.parametrize("method", ["lora", "condlora"])
@pytest.mark.parametrize("seed", [27, 28])
def test_stacked_conversion_halves_equal_one_factor_solves_at_desk_dims(desk_weights, method,
                                                                          seed):
    spec = adapters.as_method(spec_pair(), method)
    _assert_halves_equal_one_factor_solves(desk_weights, random_params(method, seed), spec, 32)


def test_stacked_conversion_halves_equal_one_factor_solves_on_a_paper_dim_stack():
    d, layers = 768, tuple(range(1, 13))
    w0s = {l: matcore.gaussian(d, d, 0.0, 1 / math.sqrt(d), _rng.derive_seed(0, f"paper.w0.{l}"))
           for l in layers}
    weights = types.SimpleNamespace(projection=lambda module, layer: w0s[layer])  # query only
    spec = AdapterSpec("condlora", 8, 8.0, ("query",), layers)
    _assert_halves_equal_one_factor_solves(weights, trainer.generic_params(spec, d, 29), spec, d)


@pytest.mark.parametrize("i, j", [(0, 2), (2, 0), (5, 2), (2, 5)])
def test_grid_rejects_a_bad_i_or_j(i, j):
    mats = [matcore.gaussian(12, 4, 0, 1, seed) for seed in range(3)]
    with pytest.raises(ValueError, match="singular vectors"):
        analysis.layer_similarity_grid(mats, i, j)


def test_conversion_grid_names_a_singular_projection(desk_weights):
    spec = spec_pair()
    singular = np.zeros((32, 32))
    singular[0, 0] = 1.0
    broken = desk_weights.replace({"layer3.query": singular})
    with pytest.raises(matcore.SingularMatrixError,
                       match=r"^layer3\.query: singular matrix: condition estimate inf") as info:
        analysis.conversion_grid(broken, random_params("lora", 15), spec, "query", "A")
    assert info.value.index == 2


# --- the analyze recipe ------------------------------------------------------------

@pytest.mark.parametrize("order", [("lora", "condlora"), ("condlora", "lora")])
@pytest.mark.parametrize("side, i, j", [("left", 4, 4), ("right", 2, 3)])
def test_analyze_equals_its_functions_called_one_by_one(desk_weights, order, side, i, j):
    geometry = spec_pair()
    params = {"lora": random_params("lora", 21), "condlora": random_params("condlora", 22)}
    specs = {method: adapters.as_method(geometry, method) for method in params}
    loaded = [(params[method], specs[method]) for method in order]
    grids, rows = analysis.analyze(desk_weights, loaded, i, j, side, baseline_seed=7)
    first_params, first_spec = loaded[0]
    expected = {f"conv_{which} {module}": analysis.conversion_grid(
                    desk_weights, first_params, first_spec, module, which, i, j, side)
                for module in ("query", "value") for which in ("A", "B")}
    expected["random_baseline"] = analysis.random_baseline_grid(32, 4, 4, i, j, side, seed=7)
    assert list(grids) == list(expected)
    for name, grid in grids.items():
        assert grid.labels == expected[name].labels and (grid.side, grid.i, grid.j) == (side, i, j)
        assert np.array_equal(grid.values, expected[name].values), name
    expected_rows = analysis.compare_lora_condlora(params["lora"], params["condlora"],
                                                   desk_weights, specs["lora"])
    assert rows == expected_rows
    alone, no_rows = analysis.analyze(desk_weights, loaded[:1], i, j, side, baseline_seed=7)
    assert no_rows is None and list(alone) == list(expected)
    assert all(np.array_equal(alone[name].values, grids[name].values) for name in grids)


def test_analyze_applies_the_pair_rules(desk_weights):
    lora = (random_params("lora", 23), adapters.as_method(spec_pair(), "lora"))
    cond = (random_params("condlora", 24), adapters.as_method(spec_pair(), "condlora"))
    with pytest.raises(ValueError, match="^comparison needs one lora and one condlora checkpoint$"):
        analysis.analyze(desk_weights, [lora, lora], 4, 4)
    narrow = AdapterSpec("condlora", 4, 4.0, ("query",), (1, 2, 3, 4))
    narrow_params = adapters.init_params(narrow, 32, 25)
    with pytest.raises(ValueError, match="^adapter checkpoints target different shapes"):
        analysis.analyze(desk_weights, [lora, (narrow_params, narrow)], 4, 4)
    with pytest.raises(ValueError, match="one or two adapters, got 3"):
        analysis.analyze(desk_weights, [lora, cond, lora], 4, 4)
