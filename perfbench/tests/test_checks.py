"""Output checks, including negative controls that corrupt a result on purpose.

Run with ``python -m pytest perfbench/tests``.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bench
from loralab import adapters, analysis, model, trainer

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def small():
    weights = model.build_model(model.ModelConfig(n_layers=3, d_model=16, n_heads=4, d_ff=32))
    spec = adapters.AdapterSpec("condlora", 2, 2.0, ("query", "value"), (1, 2, 3))
    params = trainer.generic_params(spec, 16, seed=5)
    return weights, spec, params


def test_condlora_conv_a_grid_is_one_and_a_corrupted_grid_fails(small):
    weights, spec, params = small
    grid = analysis.conversion_grid(weights, params, spec, "query", "A")
    assert bench.grid_is_one(grid)
    grid.values[0, 2] -= 1e-3
    assert not bench.grid_is_one(grid)


def test_conv_b_residual_and_a_corrupted_solution(small):
    weights, spec, params = small
    w0 = weights.projection("value", 2)
    _, b = adapters.adapter_factors(params, spec, w0, "value", 2)
    conv_b = analysis.conversion_b(w0, b)
    assert bench.conv_b_residual(w0, b, conv_b) < 1e-8
    conv_b[3, 1] += 1e-6
    assert bench.conv_b_residual(w0, b, conv_b) > 1e-8


def test_adapter_round_trip_is_bit_exact_and_a_flipped_bit_fails(small, tmp_path):
    _, spec, params = small
    path = tmp_path / "a.ckpt"
    adapters.save_adapter(path, params, spec)
    loaded = adapters.load_adapter(path)
    assert bench.round_trip_exact((params, spec), loaded)
    tensors = dict(loaded[0].tensors)
    key = next(iter(tensors))
    tensors[key] = tensors[key].copy()
    tensors[key].view(np.uint64)[0, 0] ^= 1  # one ulp
    assert not bench.round_trip_exact((params, spec), (replace(loaded[0], tensors=tensors), spec))
    assert not bench.round_trip_exact((params, spec), (loaded[0], replace(spec, alpha=3.0)))


def test_random_baseline_mean_is_k_over_d_and_a_shifted_grid_fails():
    grid = analysis.random_baseline_grid(64, 4, 12, 4, 4, seed=11)
    ok, detail = bench.baseline_within(grid, 4, 64)
    assert ok, detail
    grid.values += 0.05
    assert not bench.baseline_within(grid, 4, 64)[0]


def test_comparison_rows_count_and_range():
    row = analysis.ComparisonRow("query", 1, 0.5, 0.25, 1.0)
    assert bench.comparison_ok([row] * 4, 4)
    assert not bench.comparison_ok([row] * 3, 4)
    assert not bench.comparison_ok([row] * 3 + [replace(row, phi_delta=1.5)], 4)


def test_fingerprint_detects_a_corrupted_tensor_or_grid(small):
    weights, spec, params = small
    grid = analysis.conversion_grid(weights, params, spec, "value", "B")
    rows = analysis.compare_lora_condlora(
        trainer.generic_params(adapters.as_method(spec, "lora"), 16, seed=6), params, weights,
        adapters.as_method(spec, "lora"))

    def cycle(tensors, values):
        return bench.Cycle({}, {}, {"condlora": (replace(params, tensors=tensors), spec)}, [],
                           {"grids": {"conv_B_value": replace(grid, values=values)}, "rows": rows},
                           None)

    reference = bench.fingerprint(cycle(params.tensors, grid.values))
    assert bench.fingerprint(cycle(dict(params.tensors), grid.values.copy())) == reference
    bad_tensors = {k: v.copy() for k, v in params.tensors.items()}
    next(iter(bad_tensors.values()))[0, 0] += 1e-12
    assert bench.fingerprint(cycle(bad_tensors, grid.values)) != reference
    bad_grid = grid.values.copy()
    bad_grid[1, 0] = np.nextafter(bad_grid[1, 0], 0.0)
    assert bench.fingerprint(cycle(params.tensors, bad_grid)) != reference


def test_ledger_counts_exceptions_and_failed_checks():
    ops = bench.Ledger()
    assert ops.run("ok", lambda: 3) == 3
    with pytest.raises(bench.OperationFailed):
        ops.run("boom", lambda: 1 / 0)
    ops.check("holds", True)
    ops.check("broken", False, "detail")
    assert (ops.attempted, ops.failed) == (4, 2)
    assert "ZeroDivisionError" in ops.messages[0] and "broken detail" in ops.messages[1]


def test_benchmark_json_matches_the_metrics_the_code_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert {b.name for b in bench.BOUNDARIES} >= {
        name.rpartition(".")[0] for name, _, _ in bench.PER_LAYER
        if name.rpartition(".")[2] in ("calls", "busy_s", "self_s", "bytes")}


def test_traced_desk_run_passes_its_checks_and_reports_every_per_layer_metric(capsys):
    assert bench.main(["--workload", "desk-train", "--seed", "4", "--seconds", "1",
                       "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _, _ in bench.PER_LAYER]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["matcore.invert.calls"] == 16  # 4 grids x 4 layers
    assert metrics["autodiff.backward.calls"] == metrics["trainer.loss_and_grads.calls"] == 60
    assert metrics["tasks.batch.calls"] == 62  # 30 steps + 1 held-out batch, per method
