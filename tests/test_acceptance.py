"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2 is expected to fail: the mean similarity between independent
isotropic k-dimensional subspaces of R^d is exactly k/d (here 8/768 =
0.010417), so the asserted < 0.01 bound on the random-baseline mean sits a
few standard errors above what any correct implementation can produce. The
test asserts the stated bound anyway and reports the measured value.

Heavy desk-scale training runs are shared across criteria 7-10 through a
module-scoped fixture; every run uses the default desk configuration
(4 layers, d_model 32, rank 4, teacher rank 4, batch 16, 2000 steps).
"""

import time

import numpy as np
import pytest

from loralab import adapters, analysis, matcore, model, tasks, trainer
from loralab.cli import main
from loralab.config import ExperimentConfig

MODEL_SEED = 0
SEED_PAIRS = ((1, 2), (11, 12), (21, 22))  # (adapter init, data) per training arm


@pytest.fixture()
def report(capsys):
    """Print one pass/fail line per criterion outside pytest's capture."""

    def announce(number, label, ok, detail):
        with capsys.disabled():
            print(f"criterion {number:>2} {label}: {'PASS' if ok else 'FAIL'} | {detail}")
        assert ok, f"criterion {number} {label}: {detail}"

    return announce


@pytest.fixture(scope="module")
def desk():
    cfg = ExperimentConfig(seed_model=MODEL_SEED)
    weights = model.build_model(cfg.model_config())
    return cfg, weights


@pytest.fixture(scope="module")
def trained(desk):
    """Canonical desk runs: lora at three seed pairs plus condlora at the first."""
    cfg, weights = desk
    runs = {}
    for method, pairs in (("lora", SEED_PAIRS), ("condlora", SEED_PAIRS[:1])):
        for adapter_seed, data_seed in pairs:
            cfg.seed_adapter, cfg.seed_data = adapter_seed, data_seed
            task = cfg.make_task(weights)
            spec = cfg.adapter_spec(method)
            started = time.perf_counter()
            params, rep = trainer.train_run(weights, spec, task, cfg.train_config(method))
            elapsed = time.perf_counter() - started
            runs[(method, adapter_seed)] = (params, spec, rep, elapsed)
    return runs


def test_criterion_1_parameter_counts(report, capsys):
    started = time.perf_counter()
    code = main(["count-params", "--paper-dims"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out.splitlines()
    ok = (
        code == 0
        and out == ["lora 294912", "condlora 24576", "ratio 12"]
        and elapsed < 1.0
    )
    report(1, "parameter counts (paper dims)", ok,
           f"output={out} elapsed={elapsed:.3f}s")


def test_criterion_2_random_baseline(report):
    started = time.perf_counter()
    means = [
        analysis.random_baseline_grid(768, 8, 12, 8, 8, side="left", seed=seed).average_offdiagonal
        for seed in range(10)
    ]
    elapsed = time.perf_counter() - started
    mean = float(np.mean(means))
    ok = elapsed < 10.0 and mean < 0.01
    report(2, "random baseline mean < 0.01", ok,
           f"mean={mean:.6f} over 10 seeds (exact expectation k/d = {8 / 768:.6f}), "
           f"elapsed={elapsed:.2f}s")


def test_criterion_3_similarity_properties(report):
    started = time.perf_counter()
    cases = 0
    for seed in range(350):
        rows = 8 + seed % 17
        cols = 3 + seed % 4
        i = 1 + seed % 3
        j = 1 + (seed // 3) % 3
        for offset in (0, 40_000, 80_000):
            x = matcore.gaussian(rows, cols, 0, 1, seed + offset)
            y = matcore.gaussian(rows, cols, 0, 1, seed + offset + 20_000)
            phi = analysis.subspace_similarity(x, y, i, j)
            assert 0.0 <= phi <= 1.0
            assert abs(analysis.subspace_similarity(x, x, i, i) - 1.0) < 1e-9
            assert abs(analysis.subspace_similarity(y, x, j, i) - phi) < 1e-9
            for c in (-3.0, 0.5, 10.0):
                assert abs(analysis.subspace_similarity(c * x, y, i, j) - phi) < 1e-9
            cases += 1
    elapsed = time.perf_counter() - started
    ok = cases >= 1000 and elapsed < 30.0
    report(3, "phi property suite", ok, f"{cases} seeded cases, elapsed={elapsed:.2f}s")


def test_criterion_4_conversion_round_trip(report):
    started = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        n = 8 + (seed * 7) % 57  # sizes 8..64
        w0 = matcore.gaussian(n, n, 0, 1, seed)
        if matcore.condition_estimate(w0) >= 1e6:
            continue
        r = 4 + seed % 5
        a = matcore.gaussian(r, n, 0, 1, seed + 10_000)
        b = matcore.gaussian(n, r, 0, 1, seed + 20_000)
        conv_a = analysis.conversion_a(w0, a)
        conv_b = analysis.conversion_b(w0, b)
        assert np.linalg.norm(w0 @ conv_a - a.T) / np.linalg.norm(a.T) < 1e-8, seed
        assert np.linalg.norm(w0 @ conv_b - b) / np.linalg.norm(b) < 1e-8, seed
        checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report(4, "conversion round-trip", ok, f"{checked} matrices, elapsed={elapsed:.2f}s")


def test_criterion_5_gradient_oracle(report):
    started = time.perf_counter()
    config = model.ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32,
                               vocab_size=32, max_len=16, n_outputs=4, seed=MODEL_SEED)
    weights = model.build_model(config)
    worst = 0.0
    for seed in range(20):
        task = tasks.TeacherTask(weights, rank=2, seed=seed + 100, seq_len=8)
        batch = task.batch("gradcheck", 4)
        for method in adapters.METHODS:
            spec = adapters.AdapterSpec(method, 2, 2.0, ("query", "value"), (1, 2))
            params = trainer.generic_params(spec, config.d_model, seed)
            errors = trainer.finite_difference_check(weights, params, spec, batch)
            worst = max(worst, max(errors.values()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 120.0
    report(5, "gradient oracle (20 seeds, both methods)", ok,
           f"max rel err={worst:.3e}, elapsed={elapsed:.1f}s")


def test_criterion_6_zero_init_equivalence(report, desk):
    cfg, weights = desk
    worst = 0.0
    for batch_seed in (5, 6, 7):
        task = tasks.TeacherTask(weights, rank=4, seed=batch_seed, seq_len=16)
        tokens = task.batch("zeroinit", 8)[0]
        base = model.forward(weights, None, tokens)
        for method in adapters.METHODS:
            spec = cfg.adapter_spec(method)
            params = adapters.init_params(spec, cfg.d_model, seed=batch_seed)
            adapted = adapters.forward_with_adapters(weights, params, spec, tokens)
            worst = max(worst, float(np.abs(adapted - base).max()))
    report(6, "zero-init equivalence", worst == 0.0, f"max |logit diff|={worst}")


def test_criterion_7_merge_equivalence(report, desk, trained):
    _, weights = desk
    worst = 0.0
    for method in adapters.METHODS:
        params, spec, _, _ = trained[(method, SEED_PAIRS[0][0])]
        task = tasks.TeacherTask(weights, rank=4, seed=42, seq_len=16)
        tokens = task.batch("merge", 8)[0]
        via_adapter = adapters.forward_with_adapters(weights, params, spec, tokens)
        merged = model.forward(adapters.merge(weights, params, spec), None, tokens)
        worst = max(worst, float(np.abs(via_adapter - merged).max()))
    report(7, "merge equivalence (trained)", worst < 1e-9, f"max |logit diff|={worst:.2e}")


def test_criterion_8_rank_bound(report, desk, trained):
    _, weights = desk
    worst = 0.0
    for method in adapters.METHODS:
        params, spec, _, _ = trained[(method, SEED_PAIRS[0][0])]
        for dw in adapters.materialize_deltas(params, spec, weights).values():
            tail = matcore.svd(dw).s[spec.rank]
            worst = max(worst, tail / np.linalg.norm(dw))
    report(8, "rank bound on trained deltas", worst < 1e-9,
           f"max s_(r+1)/||dW||_F = {worst:.2e}")


def test_criterion_9_training_parity(report, trained):
    lora = trained[("lora", SEED_PAIRS[0][0])]
    cond = trained[("condlora", SEED_PAIRS[0][0])]
    lora_rep, cond_rep = lora[2], cond[2]
    wall = lora[3] + cond[3]
    lora_ratio = lora_rep.final_loss / lora_rep.initial_loss
    cond_ratio = cond_rep.final_loss / cond_rep.initial_loss
    factor = cond_rep.final_loss / lora_rep.final_loss
    trend_ok = all(
        float(np.mean(rep.losses[-100:])) < float(np.mean(rep.losses[:100]))
        for rep in (lora_rep, cond_rep)
    )
    ok = (
        lora_ratio <= 0.1
        and cond_ratio <= 0.1
        and factor <= 2.0  # the reduced-parameter method must not trail far behind
        and lora_rep.trainable_param_count == 2048
        and cond_rep.trainable_param_count == 512
        and trend_ok
        and wall < 300.0
    )
    report(9, "desk training parity", ok,
           f"lora final/init={lora_ratio:.4f} cond final/init={cond_ratio:.4f} "
           f"cond/lora={factor:.3f} params={lora_rep.trainable_param_count}/"
           f"{cond_rep.trainable_param_count} trend_ok={trend_ok} wall={wall:.0f}s")


def test_criterion_10_conversion_grid_signal(report, desk, trained):
    cfg, weights = desk
    trained_means = []
    per_seed = {}
    for adapter_seed, _ in SEED_PAIRS:
        params, spec, _, _ = trained[("lora", adapter_seed)]
        values = []
        for which in ("A", "B"):
            grid = analysis.conversion_grid(weights, params, spec, "value", which,
                                            side="left")
            values.append(grid.average_offdiagonal)
        per_seed[adapter_seed] = values
        trained_means.extend(values)
    baseline_means = [
        analysis.random_baseline_grid(cfg.d_model, cfg.rank, cfg.n_layers,
                                      cfg.rank, cfg.rank, side="left", seed=s).average_offdiagonal
        for s in range(6)
    ]
    trained_mean = float(np.mean(trained_means))
    baseline_mean = float(np.mean(baseline_means))
    report(10, "conversion-grid signal", trained_mean > baseline_mean,
           f"trained={trained_mean:.4f} baseline={baseline_mean:.4f} "
           f"per-seed(A,B)={ {k: [round(v, 3) for v in vs] for k, vs in per_seed.items()} }")


def test_supplementary_method_comparison_trend(capsys, desk, trained):
    # Not a numbered criterion: desk-trained lora and condlora factors should
    # be far more similar to each other than independent random subspaces
    # (mean overlap r/d), since both fit the same teacher structure.
    cfg, weights = desk
    lora_params, spec, _, _ = trained[("lora", SEED_PAIRS[0][0])]
    cond_params, _, _, _ = trained[("condlora", SEED_PAIRS[0][0])]
    rows = analysis.compare_lora_condlora(lora_params, cond_params, weights, spec)
    mean_a = float(np.mean([r.phi_a for r in rows]))
    mean_b = float(np.mean([r.phi_b for r in rows]))
    mean_d = float(np.mean([r.phi_delta for r in rows]))
    baseline = cfg.rank / cfg.d_model
    with capsys.disabled():
        print(f"supplementary method comparison: phi_A={mean_a:.3f} phi_B={mean_b:.3f} "
              f"phi_dW={mean_d:.3f} random-subspace mean={baseline:.3f}")
    assert mean_a > 2 * baseline
    assert mean_b > 2 * baseline
    assert mean_d > 2 * baseline


def test_criterion_11_throughput_report(report, capsys):
    code = main(["bench", "--seconds", "1"])
    out = capsys.readouterr().out
    rates = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in adapters.METHODS and parts[2] == "examples/s":
            rates[parts[0]] = float(parts[1])
    ok = (
        code == 0
        and set(rates) == {"lora", "condlora"}
        and all(rate > 0 for rate in rates.values())
    )
    report(11, "throughput report", ok, f"rates={rates}")
