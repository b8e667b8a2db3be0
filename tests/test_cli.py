import argparse
import contextlib
import dataclasses
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkpoint_files import rewrite_header
from loralab import _rng, adapters, analysis, cli, matcore, model, trainer
from loralab import config as config_module
from loralab.cli import main

TINY_CONFIG = """
model.n_layers = 2
model.d_model = 16
model.n_heads = 4
model.d_ff = 32
model.vocab_size = 32
model.max_len = 16
model.n_outputs = 4
adapter.rank = 2
train.batch_size = 4
train.max_steps = 30
task.seq_len = 8
"""


def write_tiny_config(tmp_path, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG + extra)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- count-params ----------------------------------------------------------------

def test_count_params_paper_dims(capsys):
    code, out, _ = run_cli(capsys, "count-params", "--paper-dims")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lora 294912"
    assert lines[1] == "condlora 24576"
    assert lines[2] == "ratio 12"


def test_count_params_desk_defaults(capsys):
    code, out, _ = run_cli(capsys, "count-params")
    assert code == 0
    assert out.splitlines() == ["lora 2048", "condlora 512", "ratio 4"]


def test_count_params_single_layer_ratio_one(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, "adapter.target_layers = 1\n")
    code, out, _ = run_cli(capsys, "count-params", "--config", str(cfg))
    assert code == 0
    lines = out.splitlines()
    lora = int(lines[0].split()[1])
    cond = int(lines[1].split()[1])
    assert lora == cond
    assert lines[2] == "ratio 1"


# --- train -------------------------------------------------------------------------

def test_train_writes_outputs(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(
        capsys, "train", "--config", str(cfg), "--method", "lora", "--out", str(out_dir)
    )
    assert code == 0
    for name in ("model.ckpt", "adapter.ckpt", "report.csv", "run.json"):
        assert (out_dir / name).exists(), name
    summary = json.loads((out_dir / "run.json").read_text())
    assert summary["method"] == "lora"
    assert summary["trainable_params"] == 256
    assert summary["final_loss"] < summary["initial_loss"]
    report_lines = (out_dir / "report.csv").read_text().splitlines()
    assert report_lines[0] == "step,loss"
    assert len(report_lines) == 1 + 1 + 30 + 1  # header, step 0, 30 steps, footer
    assert "lora" in out


def test_train_records_its_environment(tmp_path, capsys, monkeypatch, force_cpus):
    force_cpus(3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = write_tiny_config(tmp_path)
    tiny = config_module.load_config(cfg)
    kept = model.Cache(keep_layers=True)
    # a budget of three step examples: batch 4 is two chunks of 2, held-out 16 uneven ones
    model.forward_pass(model.build_model(tiny.model_config()), np.zeros((1, 8), int), cache=kept)
    monkeypatch.setattr(model, "_WORKSPACE", 3 * sum(
        a.nbytes for group in (*kept.layers, kept.scratch, kept.grad)
        for name, a in group.items() if name not in ("x", "proj")))
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "train", "--config", str(cfg),
                         "--max-steps", "2", "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "run.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    chunks = {name: [rows.stop - rows.start for rows in
                     model.chunks(tiny.model_config(), batch, 8)]
              for name, batch in (("step", 4), ("held_out", 16))}
    assert chunks["step"] == [2, 2] and len(set(chunks["held_out"])) == 2, chunks
    assert summary["environment"] == {
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "blas_threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                         "MKL_NUM_THREADS": None},
        "bundled_openblas": _rng._openblas() is not None,
        "usable_cpus": 3,
        "chunks": {name: {"count": len(sizes), "examples_per_chunk": [max(sizes), min(sizes)]
                          if max(sizes) > min(sizes) else [max(sizes)]}
                   for name, sizes in chunks.items()},
    }
    assert list(summary)[:-1] == ["method", "task", "max_steps", "initial_loss", "final_loss",
                                  "examples_per_second", "trainable_params",
                                  "wall_clock_seconds", "seeds"]
    # where numpy's wheel brings no OpenBLAS, the run says so
    monkeypatch.setattr(_rng, "_openblas", lambda: None)
    code, _, _ = run_cli(capsys, "train", "--config", str(cfg),
                         "--max-steps", "0", "--out", str(tmp_path / "plain"))
    assert code == 0
    summary = json.loads((tmp_path / "plain" / "run.json").read_text())
    assert summary["environment"]["bundled_openblas"] is False


def test_train_zero_steps_single_report_entry(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out_dir = tmp_path / "zero"
    code, _, _ = run_cli(
        capsys, "train", "--config", str(cfg), "--max-steps", "0", "--out", str(out_dir)
    )
    assert code == 0
    lines = (out_dir / "report.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert lines[1].startswith("0,")
    assert lines[2].startswith("final_loss=")
    assert len(lines) == 3


def test_train_parity_task(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out_dir = tmp_path / "parity"
    code, _, _ = run_cli(
        capsys, "train", "--config", str(cfg), "--task", "parity",
        "--max-steps", "5", "--out", str(out_dir)
    )
    assert code == 0
    summary = json.loads((out_dir / "run.json").read_text())
    assert summary["task"] == "parity"
    assert summary["initial_loss"] > 0


def test_train_methods_share_initial_loss(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    finals = {}
    for method in ("lora", "condlora"):
        out_dir = tmp_path / method
        code, _, _ = run_cli(
            capsys, "train", "--config", str(cfg), "--method", method,
            "--max-steps", "0", "--out", str(out_dir)
        )
        assert code == 0
        summary = json.loads((out_dir / "run.json").read_text())
        finals[method] = summary["initial_loss"]
    # zero-initialized adapters leave both methods at the frozen-base loss
    assert finals["lora"] == finals["condlora"]


# --- analyze -----------------------------------------------------------------------

@pytest.fixture()
def trained_pair(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    dirs = {}
    for method in ("lora", "condlora"):
        out_dir = tmp_path / f"run_{method}"
        code, _, _ = run_cli(
            capsys, "train", "--config", str(cfg), "--method", method,
            "--out", str(out_dir), "--max-steps", "10",
        )
        assert code == 0
        dirs[method] = out_dir
    return dirs


def test_analyze_grids_and_comparison(tmp_path, trained_pair, capsys):
    out_dir = tmp_path / "analysis"
    code, out, _ = run_cli(
        capsys, "analyze",
        "--model", str(trained_pair["lora"] / "model.ckpt"),
        "--adapter", str(trained_pair["lora"] / "adapter.ckpt"),
        "--adapter", str(trained_pair["condlora"] / "adapter.ckpt"),
        "--out", str(out_dir),
    )
    assert code == 0
    for name in ("conv_A_query.csv", "conv_B_query.csv", "conv_A_value.csv",
                 "conv_B_value.csv", "random_baseline.csv", "comparison.csv"):
        assert (out_dir / name).exists(), name
    assert "random_baseline avg_offdiag=" in out
    comparison = (out_dir / "comparison.csv").read_text().splitlines()
    assert comparison[0] == "module,layer,phi_A,phi_B,phi_dW"
    assert len(comparison) == 1 + 4  # 2 modules x 2 layers


def test_analyze_missing_checkpoint_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--model", str(tmp_path / "nope.ckpt"),
        "--adapter", str(tmp_path / "nope2.ckpt"),
    )
    assert code == 1
    assert "error" in err.lower()


def test_analyze_singular_projection_exit_two(tmp_path, trained_pair, capsys):
    weights = model.load_model(trained_pair["lora"] / "model.ckpt")
    singular = np.zeros((16, 16))
    singular[0, 0] = 1.0
    broken = weights.replace({"layer1.value": singular})
    broken_path = tmp_path / "broken.ckpt"
    model.save_model(broken_path, broken)
    args = [
        "analyze", "--model", str(broken_path),
        "--adapter", str(trained_pair["lora"] / "adapter.ckpt"),
        "--out", str(tmp_path / "broken_analysis"),
    ]
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "singular" in err
    assert err.startswith("numeric error: layer1.value: singular matrix: condition estimate ")
    assert err.count("\n") == 1
    code, _, err = run_cli(capsys, *args, "--pseudoinverse")  # not a flag
    assert code == 1
    assert err.startswith("error: ") and "--pseudoinverse" in err and err.count("\n") == 1


def test_analyze_overflowing_projection_exit_two(tmp_path, trained_pair, capsys):
    # cond_2 of this W0 is 1, but its LU overflows: a numeric error that says
    # so, not a singular matrix, and no warning.
    weights = model.load_model(trained_pair["lora"] / "model.ckpt")
    huge = np.kron(np.eye(8), [[1e308, 1e308], [1e308, -1e308]])
    broken_path = tmp_path / "huge.ckpt"
    model.save_model(broken_path, weights.replace({"layer1.value": huge}))
    code, _, err = run_cli(capsys, "analyze", "--model", str(broken_path),
                           "--adapter", str(trained_pair["lora"] / "adapter.ckpt"),
                           "--out", str(tmp_path / "huge_analysis"))
    assert code == 2
    assert err == "numeric error: layer1.value: LU overflowed: a pivot is not finite\n"


def test_analyze_untrained_pair_exit_two(tmp_path, capsys):
    # --max-steps 0 leaves LoRA's B and CondLoRA's theta_B zero: no subspace to compare
    cfg = write_tiny_config(tmp_path)
    for method in ("lora", "condlora"):
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg), "--method", method,
                             "--max-steps", "0", "--out", str(tmp_path / method))
        assert code == 0
    code, out, err = run_cli(
        capsys, "analyze", "--model", str(tmp_path / "lora" / "model.ckpt"),
        "--adapter", str(tmp_path / "lora" / "adapter.ckpt"),
        "--adapter", str(tmp_path / "condlora" / "adapter.ckpt"),
        "--out", str(tmp_path / "analysis"),
    )
    assert code == 2
    assert err.startswith("numeric error: conv_B query layer1: rank below 2 (singular value 2 is 0")
    assert err.count("\n") == 1
    assert not (tmp_path / "analysis").exists()


@pytest.mark.parametrize("which, edit, message", [
    ("model", lambda line: line + " bogus=3", "unknown key 'bogus'"),
    ("model", lambda line: line.replace(" d_ff=32", " d_ff=3.5"), "bad value for d_ff: '3.5'"),
    ("adapter", lambda line: line.replace(" alpha=2", ""), "missing key 'alpha'"),
    ("adapter", lambda line: line.replace(" r=2", " r=two"), "bad value for r"),
])
def test_analyze_malformed_header_names_the_key(tmp_path, capsys, which, edit, message):
    config = model.ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32, vocab_size=32,
                               max_len=16, n_outputs=4)
    spec = adapters.AdapterSpec("lora", 2, 2.0, ("query", "value"), (1, 2))
    paths = {"model": tmp_path / "model.ckpt", "adapter": tmp_path / "adapter.ckpt"}
    model.save_model(paths["model"], model.build_model(config))
    adapters.save_adapter(paths["adapter"], adapters.init_params(spec, 16, 0), spec)
    rewrite_header(paths[which], edit)
    code, _, err = run_cli(capsys, "analyze", "--model", str(paths["model"]),
                           "--adapter", str(paths["adapter"]), "--out", str(tmp_path / "out"))
    assert code == 1
    assert f"{which}.ckpt: line 1: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--i", "0"), ("--j", "0"), ("--i", "-1"),
                                         ("--j", "-3"), ("--i", "3"), ("--j", "3")])
def test_analyze_rejects_out_of_range_vector_counts(tmp_path, trained_pair, capsys, flag, value):
    out_dir = tmp_path / "range_analysis"
    code, _, err = run_cli(
        capsys, "analyze",
        "--model", str(trained_pair["lora"] / "model.ckpt"),
        "--adapter", str(trained_pair["lora"] / "adapter.ckpt"),
        "--out", str(out_dir), f"{flag}={value}",
    )
    assert code == 1
    assert f"{flag} must be in [1, 2]" in err and f"got {value}" in err
    assert not out_dir.exists()  # rejected before any grid work


def test_analyze_rejects_a_third_adapter_before_reading_any_file(tmp_path, capsys):
    out_dir = tmp_path / "out"
    adapter_flags = [arg for name in ("a", "b", "c")
                     for arg in ("--adapter", str(tmp_path / f"{name}.ckpt"))]
    code, out, err = run_cli(capsys, "analyze", "--model", str(tmp_path / "missing.ckpt"),
                             *adapter_flags, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err == "error: at most two adapter checkpoints are supported\n"
    assert not out_dir.exists()


def test_analyze_rejects_a_single_layer_adapter_before_any_solve(tmp_path, capsys, monkeypatch):
    config = model.ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32, vocab_size=32,
                               max_len=16, n_outputs=4)
    spec = adapters.AdapterSpec("lora", 2, 2.0, ("query", "value"), (2,))
    model_path, adapter_path = tmp_path / "model.ckpt", tmp_path / "adapter.ckpt"
    model.save_model(model_path, model.build_model(config))
    adapters.save_adapter(adapter_path, adapters.init_params(spec, 16, 0), spec)

    def no_solve(*_args, **_kwargs):
        raise AssertionError("a conversion grid was solved")

    monkeypatch.setattr(analysis, "conversion_grid", no_solve)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "analyze", "--model", str(model_path),
                             "--adapter", str(adapter_path), "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err == (f"error: {adapter_path}: analyze needs an adapter on at least 2 layers, "
                   "this one has only layer 2\n")
    assert not out_dir.exists()


def test_analyze_names_the_adapter_on_a_layer_the_model_lacks(tmp_path, capsys):
    config = model.ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32, vocab_size=32,
                               max_len=16, n_outputs=4)
    spec = adapters.AdapterSpec("lora", 2, 2.0, ("query", "value"), (1, 3))
    model_path, adapter_path = tmp_path / "model.ckpt", tmp_path / "adapter.ckpt"
    model.save_model(model_path, model.build_model(config))
    adapters.save_adapter(adapter_path, adapters.init_params(spec, 16, 0), spec)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "analyze", "--model", str(model_path),
                             "--adapter", str(adapter_path), "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err == f"error: {adapter_path}: target layer 3 exceeds n_layers 2\n"
    assert not out_dir.exists()


# --- gradcheck -----------------------------------------------------------------------

def test_gradcheck_passes(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--trials", "1")
    assert code == 0
    assert "gradcheck PASS" in out
    assert "rel_err" in out


def test_gradcheck_perturb_fails(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--trials", "1", "--perturb")
    assert code == 2
    assert "gradcheck FAIL" in out


def test_gradcheck_trials_of_the_largest_seed_get_distinct_64_bit_seeds(capsys, monkeypatch):
    seeds = []
    generic_params = trainer.generic_params

    def recording(spec, d_model, seed):
        seeds.append(seed)
        return generic_params(spec, d_model, seed)

    monkeypatch.setattr(trainer, "generic_params", recording)
    code, _, _ = run_cli(capsys, "gradcheck", "--seed-adapter", str(2 ** 64 - 1),
                         "--trials", "2")
    assert code == 0
    assert len(seeds) == 4  # two trials per method
    assert seeds[0] != seeds[1] and seeds[2:] == seeds[:2]
    assert all(0 <= seed < 2 ** 64 for seed in seeds)


def test_gradcheck_rejects_large_model(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("model.d_model = 32\n")
    code, _, err = run_cli(capsys, "gradcheck", "--config", str(cfg))
    assert code == 1
    assert "limited" in err


# --- usage ---------------------------------------------------------------------------

def readme_usage() -> dict[str, set[str]]:
    """{subcommand: the flags it shows} from README's "Command line" block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    usage: dict[str, set[str]] = {}
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["loralab"]:
            command = words[1]
            usage[command] = set()
        if words:
            usage[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return usage


def test_readme_command_line_matches_the_parser():
    usage, subcommands = readme_usage(), _subcommands()
    assert set(usage) == set(subcommands)
    for command, flags in subcommands.items():
        assert usage[command] == flags, f"README's flags of {command} differ from its parser's"


def test_readme_chunk_sizes_match_the_workspace():
    # README: "up to 65 examples of a desk training step, 65 of a forward-only pass"
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    step, forward = map(int, re.search(r"up to (\d+) examples of a desk training step, "
                                       r"(\d+) of a forward-only pass", readme).groups())
    desk = config_module.ExperimentConfig()
    for most in (step, forward):  # a forward-only pass is cut as a training step is
        assert len(model.chunks(desk.model_config(), most, desk.seq_len)) == 1, most
        assert len(model.chunks(desk.model_config(), most + 1, desk.seq_len)) == 2, most


def _subcommands() -> dict[str, set[str]]:
    """{subcommand: the -- flags its parser takes, --help not counted}."""
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {command: {flag for flag in parser._option_string_actions
                      if flag.startswith("--") and flag != "--help"}
            for command, parser in subparsers.items()}


_ANALYZE = ["analyze", "--model", "m.ckpt", "--adapter", "a.ckpt"]


# flags a subcommand would parse and then drop; each must fail before any file is touched
@pytest.mark.parametrize("command, flags", [
    *[(_ANALYZE, [flag, value]) for flag, value in (
        ("--config", "exp.cfg"), ("--seed-model", "3"), ("--seed-adapter", "3"),
        ("--seed-data", "3"))],
    *[(["count-params"], [flag, "3"]) for flag in ("--seed-model", "--seed-adapter",
                                                   "--seed-data")],
    *[([command], ["--out", "OUT"]) for command in ("count-params", "bench", "gradcheck")],
    (["count-params", "--paper-dims"], ["--config", "exp.cfg"]),
], ids=lambda value: " ".join(value))
def test_a_flag_the_subcommand_does_not_read_is_an_error(
        tmp_path, capsys, monkeypatch, command, flags):
    cfg = write_tiny_config(tmp_path)
    out_dir = tmp_path / "out"
    flags = [{"exp.cfg": str(cfg), "OUT": str(out_dir)}.get(arg, arg) for arg in flags]
    if command[0] == "analyze":
        flags += ["--out", str(out_dir)]

    def no_open(*args, **kwargs):
        raise AssertionError(f"a file was opened: {args}")

    monkeypatch.setattr(io, "open", no_open)
    monkeypatch.setattr("builtins.open", no_open)
    code, out, err = run_cli(capsys, *command, *flags)
    assert code == 1 and out == ""
    if command[-1] == "--paper-dims":
        assert err == "error: argument --config: not allowed with argument --paper-dims\n"
    else:
        assert err == f"error: unrecognized arguments: {' '.join(flags[:2])}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--seed-model", "--seed-adapter", "--seed-data",
                                  "--baseline-seed"])
@pytest.mark.parametrize("value", ["-1", str(2 ** 64), str(-2 ** 70)])
def test_a_seed_flag_outside_64_bits_is_an_error(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "out"
    command = _ANALYZE if flag == "--baseline-seed" else ["train"]
    code, out, err = run_cli(capsys, *command, flag, value, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err == f"error: argument {flag}: bad value '{value}' (not an unsigned 64-bit integer)\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("value, problem", [("-1", "max_steps must be >= 0, got -1"),
                                            ("x", "not an integer")])
def test_a_bad_max_steps_flag_names_the_flag(tmp_path, capsys, value, problem):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "train", "--max-steps", value, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err == f"error: argument --max-steps: bad value {value!r} ({problem})\n"
    assert not out_dir.exists()


def test_unknown_command_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_bad_config_file_exit_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.d_model = nonsense\n")
    code, _, err = run_cli(capsys, "count-params", "--config", str(cfg))
    assert code == 1
    assert err == (f"config error: {cfg}: line 1: bad value for model.d_model: 'nonsense' "
                   "(not an integer)\n")


def test_config_errors_name_the_file(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, "adapter.target_layers = 3\n")
    code, _, err = run_cli(capsys, "count-params", "--config", str(cfg))
    assert code == 1 and err == f"config error: {cfg}: target layer 3 exceeds n_layers 2\n"
    cfg.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, "count-params", "--config", str(cfg))
    assert code == 1 and err.startswith(f"config error: cannot read config {cfg}: ")


def test_a_loss_kind_line_is_an_unknown_key(tmp_path, capsys):
    # neither the loss nor the teacher's rank is a setting any more
    for key, value in (("train.loss_kind", "mse"), ("task.teacher_rank", "2")):
        cfg = write_tiny_config(tmp_path, f"{key} = {value}\n")
        lineno = cfg.read_text().splitlines().index(f"{key} = {value}") + 1
        code, out, err = run_cli(capsys, "train", "--config", str(cfg),
                                 "--out", str(tmp_path / "run"))
        assert code == 1 and out == ""
        assert err == f"config error: {cfg}: line {lineno}: unknown key '{key}'\n"
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("old, new, problem", [
    ("task.seq_len = 8", "task.seq_len = 100", "seq_len 100 outside [1, 16]"),
    ("task.seq_len = 8", "task.seq_len = 0",
     "line 12: bad value for task.seq_len: '0' (seq_len must be >= 1, got 0)"),
    ("model.n_outputs = 4", "model.n_outputs = 1\ntask = parity",
     "parity needs n_outputs >= 2, got 1"),
])
def test_task_settings_are_checked_when_the_file_is_read(tmp_path, capsys, old, new, problem):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CONFIG.replace(old, new))
    code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 1 and out == ""
    assert err == f"config error: {cfg}: {problem}\n"
    assert not (tmp_path / "run").exists()


def test_bench_rejects_sub_second(capsys):
    code, _, err = run_cli(capsys, "bench", "--seconds", "0.2")
    assert code == 1


@pytest.mark.parametrize("seconds", ["nan", "inf", "-inf"])
def test_bench_rejects_non_finite_seconds(capsys, seconds):
    code, _, err = run_cli(capsys, "bench", f"--seconds={seconds}")
    assert code == 1
    assert err == f"error: --seconds must be finite and >= 1, got {float(seconds)}\n"


def test_bench_runs_each_method_with_its_train_config(tmp_path, capsys, monkeypatch):
    path = write_tiny_config(tmp_path)
    cfg = config_module.load_config(path)
    seen = {}

    def fake_throughput(weights, spec, task, seconds, config):
        seen[spec.method] = config
        return 12.5

    monkeypatch.setattr(trainer, "bench_throughput", fake_throughput)
    code, out, _ = run_cli(capsys, "bench", "--config", str(path), "--seconds", "1")
    assert code == 0
    assert out == "lora 12.500 examples/s\ncondlora 12.500 examples/s\n"
    assert seen == {method: dataclasses.replace(cfg.train_config(method), max_steps=1_000_000)
                    for method in adapters.METHODS}


@pytest.mark.parametrize("line, key", [
    ("adapter.alpha = nan", "adapter.alpha"),
    ("adapter.alpha = inf", "adapter.alpha"),
    ("train.learning_rate = nan", "train.learning_rate"),
    ("train.learning_rate = inf", "train.learning_rate"),
    ("train.learning_rate = -0.0", "train.learning_rate"),
    ("adapter.target_layers = 1,,2", "adapter.target_layers"),
    ("adapter.target_layers = 1,", "adapter.target_layers"),
    ("adapter.target_modules = query,,value", "adapter.target_modules"),
])
def test_train_rejects_non_finite_and_empty_config_values(tmp_path, capsys, line, key):
    cfg = write_tiny_config(tmp_path, line + "\n")
    code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.count("\n") == 1, err
    assert err.startswith(f"config error: {cfg}: line 13: bad value for {key}: "), err
    assert not (tmp_path / "o").exists()


def test_a_failed_output_write_keeps_the_old_file(tmp_path, trained_pair, capsys, monkeypatch):
    out_dir = tmp_path / "analysis"
    args = ["analyze", "--model", str(trained_pair["lora"] / "model.ckpt"),
            "--adapter", str(trained_pair["lora"] / "adapter.ckpt"), "--out", str(out_dir)]
    assert run_cli(capsys, *args)[0] == 0
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}

    def fail_midway(fh, grid):
        fh.write("labels,partial")
        raise OSError("disk full")

    monkeypatch.setattr(analysis, "write_grid_csv", fail_midway)
    code, _, err = run_cli(capsys, *args, "--baseline-seed", "5")
    assert code == 1 and err == "error: disk full\n"
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


def test_a_failed_train_write_replaces_no_file(tmp_path, capsys, monkeypatch):
    cfg = write_tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    args = ["train", "--config", str(cfg), "--method", "lora", "--out", str(out_dir)]
    assert run_cli(capsys, *args)[0] == 0
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert sorted(before) == ["adapter.ckpt", "model.ckpt", "report.csv", "run.json"]

    def disk_full(fh, report):
        fh.write("step,loss\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(trainer, "write_report", disk_full)
    code, out, err = run_cli(capsys, *args, "--seed-model", "7", "--seed-adapter", "8",
                             "--max-steps", "5")
    assert code == 1 and err == "error: [Errno 28] No space left on device\n" and out == ""
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before
    assert not list(out_dir.glob("*.tmp"))


def _analyze_args(trained_pair, out_dir, first="lora", second="condlora"):
    return ["analyze", "--model", str(trained_pair["lora"] / "model.ckpt"),
            "--adapter", str(trained_pair[first] / "adapter.ckpt"),
            "--adapter", str(trained_pair[second] / "adapter.ckpt"), "--out", str(out_dir)]


def test_analyze_rejects_an_invalid_pair_before_writing_anything(tmp_path, trained_pair, capsys):
    out_dir = tmp_path / "pair_analysis"
    code, out, err = run_cli(capsys, *_analyze_args(trained_pair, out_dir, "lora", "lora"))
    assert code == 1
    assert err == "error: comparison needs one lora and one condlora checkpoint\n"
    assert out == "" and not out_dir.exists()


def test_a_failed_analyze_leaves_the_previous_outputs_byte_identical(
        tmp_path, trained_pair, capsys, monkeypatch):
    out_dir = tmp_path / "analysis"
    args = _analyze_args(trained_pair, out_dir)
    assert run_cli(capsys, *args, "--i", "2")[0] == 0
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert len(before) == 6

    code, _, _ = run_cli(capsys, *_analyze_args(trained_pair, out_dir, "condlora", "condlora"),
                         "--i", "1")
    assert code == 1

    def fail_at_the_comparison(*_args):
        raise matcore.NumericError("comparison failed")

    monkeypatch.setattr(analysis, "compare_lora_condlora", fail_at_the_comparison)
    code, out, err = run_cli(capsys, *args, "--i", "1")
    assert code == 2 and err == "numeric error: comparison failed\n" and out == ""
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


def test_a_failed_comparison_write_replaces_no_file(tmp_path, trained_pair, capsys, monkeypatch):
    out_dir = tmp_path / "analysis"
    args = _analyze_args(trained_pair, out_dir)
    assert run_cli(capsys, *args, "--i", "2")[0] == 0
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}

    def disk_full(fh, rows):
        fh.write("module,layer")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(analysis, "write_comparison_csv", disk_full)
    code, out, err = run_cli(capsys, *args, "--i", "1")
    assert code == 1 and err == "error: [Errno 28] No space left on device\n" and out == ""
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


def test_a_model_too_large_to_allocate_is_one_error_line(tmp_path, capsys):
    # 2**50 columns: the first weight tensor needs 2**59 bytes, more than any
    # address space, so the allocation fails at once and nothing is touched.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"model.d_model = {2 ** 50}\n")
    out_dir = tmp_path / "huge"
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(out_dir))
    assert code == 1
    assert err.count("\n") == 1, err
    assert err.startswith("error: Unable to allocate ") and "float64" in err, err
    assert not out_dir.exists()


# --- fuzzing: malformed input is one stderr line, exit 0 or 1 --------------------

def _main_quietly(argv):
    """Exit code and stderr of cli.main(argv); an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


_CONFIG_VALUES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "0", "1,,2", "1,", ",", "query,value",
                     "lora", "condlora", "teacher", "parity", "mse", "cross_entropy", "",
                     "9" * 5000, "1_0", " 3 "]),
    st.text(max_size=12),
)
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(config_module._FIELDS) + ["model", "seeds.x", ""]),
              _CONFIG_VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
)
_CONFIG_FILES = st.one_of(
    st.lists(_CONFIG_LINES, max_size=6).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=40),
)


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(_CONFIG_FILES)
def test_fuzzed_config_files_through_count_params(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(data)
    code, err = _main_quietly(["count-params", "--config", str(path)])
    assert code in (0, 1)
    assert err.count("\n") == (code == 1), err


def _text_that_is_not(valid):
    """Flag values that must fail: text ``valid`` rejects (it raises or returns False)."""
    def rejected(text):
        try:
            return not valid(text)
        except (ValueError, OverflowError):
            return True
    return st.text(max_size=10).filter(rejected)


# Every flag value here fails before any training, analysis or benchmark runs.
_FAILING_FLAGS = st.one_of(
    st.tuples(st.just(["train"]), st.just("--max-steps"),
              st.integers(max_value=-1).map(str) | _text_that_is_not(lambda t: int(t) >= 0)),
    st.tuples(st.just(["train"]),
              st.sampled_from(["--seed-model", "--seed-adapter", "--seed-data"]),
              _text_that_is_not(int)),
    st.tuples(st.just(["train"]), st.just("--method"),
              _text_that_is_not(lambda t: t in ("lora", "condlora"))),
    st.tuples(st.just(["train"]), st.just("--task"),
              _text_that_is_not(lambda t: t in ("teacher", "parity"))),
    st.tuples(st.just(["bench"]), st.just("--seconds"),
              st.floats(max_value=0.999).map(repr) | st.sampled_from(["nan", "inf", "-inf"])
              | _text_that_is_not(float)),
    st.tuples(st.just(["gradcheck"]), st.just("--trials"),
              st.integers(max_value=0).map(str) | _text_that_is_not(int)),
    st.tuples(st.just(["gradcheck"]), st.just("--method"),
              _text_that_is_not(lambda t: t in ("lora", "condlora", "both"))),
    st.tuples(st.just(["analyze", "--model", "m.ckpt", "--adapter", "a.ckpt"]),
              st.sampled_from(["--i", "--j", "--baseline-seed"]), _text_that_is_not(int)),
    st.tuples(st.just(["analyze", "--model", "m.ckpt", "--adapter", "a.ckpt"]),
              st.just("--side"), _text_that_is_not(lambda t: t in analysis.SIDES)),
)


@settings(deadline=None, derandomize=True, database=None, max_examples=120)
@given(_FAILING_FLAGS)
def test_fuzzed_flag_values_fail_with_one_line(tmp_path_factory, case):
    command, flag, value = case
    out_dir = tmp_path_factory.getbasetemp() / "fuzz_out"
    out = ["--out", str(out_dir)] if command[0] in ("train", "analyze") else []
    code, err = _main_quietly(command + [f"{flag}={value}"] + out)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert not out_dir.exists()
