import pytest

from loralab.adapters import AdapterSpec
from loralab.config import ConfigError, ExperimentConfig, parse_config, serialize_config
from loralab.trainer import TrainConfig


def test_round_trip_defaults():
    cfg = ExperimentConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_fully_specified():
    cfg = ExperimentConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=24, vocab_size=16, max_len=12, n_outputs=3,
        method="condlora", rank=2, alpha=1.5, target_modules=("query", "key", "value"),
        target_layers=(1, 2), batch_size=4, learning_rate=0.004, max_steps=17,
        loss_kind="mse", task="parity", teacher_rank=2, seq_len=6,
        output_dir="runs/x", seed_model=7, seed_adapter=8, seed_data=9,
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_comments_and_blanks():
    text = """
# a comment
model.d_model = 16   # trailing comment
model.n_heads = 2

adapter.rank = 2
"""
    cfg = parse_config(text)
    assert cfg.d_model == 16 and cfg.n_heads == 2 and cfg.rank == 2
    assert cfg.n_layers == 4  # untouched default


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model.width = 4\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("model.d_model = 16\nmodel.d_model = 32\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config("model.d_model = wide\n")


@pytest.mark.parametrize("text", ["adapter.alpha = nan", "adapter.alpha = inf",
                                  "adapter.alpha = 0", "train.learning_rate = nan",
                                  "train.learning_rate = inf", "train.learning_rate = -1e-3"])
def test_parse_rejects_non_finite_and_non_positive_floats(text):
    with pytest.raises(ConfigError, match=f"line 1: bad value for {text.split()[0]}"):
        parse_config(text + "\n")


@pytest.mark.parametrize("text", ["adapter.target_layers = 1,,2", "adapter.target_layers = ,1",
                                  "adapter.target_layers =", "adapter.target_modules = query,",
                                  "adapter.target_modules = query, ,value"])
def test_parse_rejects_empty_list_items(text):
    with pytest.raises(ConfigError, match=f"bad value for {text.split()[0]}: empty item"):
        parse_config(text + "\n")


def test_non_finite_values_fail_outside_files_too():
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        AdapterSpec("lora", 2, float("nan"))
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            TrainConfig(learning_rate=lr, max_steps=1)


def test_parse_rejects_invalid_combination():
    with pytest.raises(ConfigError):
        parse_config("model.d_model = 30\n")  # not divisible by default 4 heads
    with pytest.raises(ConfigError):
        parse_config("adapter.rank = 64\n")  # exceeds default d_model 32
    with pytest.raises(ConfigError):
        parse_config("task = mystery\n")


def test_defaults_resolution():
    cfg = ExperimentConfig()
    spec = cfg.adapter_spec()
    assert spec.alpha == spec.rank == 4
    assert spec.target_layers == (1, 2, 3, 4)
    assert cfg.resolved_loss_kind() == "mse"
    assert cfg.train_config().learning_rate == 0.02
    cfg.task = "parity"
    assert cfg.resolved_loss_kind() == "cross_entropy"
    cfg.learning_rate = 0.001
    assert cfg.train_config().learning_rate == 0.001


def test_model_config_carries_model_seed():
    cfg = ExperimentConfig(seed_model=123)
    assert cfg.model_config().seed == 123
