import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkpoint_files import rewrite_header
from loralab import adapters, matcore, tasks
from loralab.adapters import METHODS, AdapterSpec
from loralab.config import ConfigError, ExperimentConfig, parse_config, serialize_config
from loralab.model import ATTENTION_MODULES
from loralab.trainer import TrainConfig


def test_round_trip_defaults():
    cfg = ExperimentConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_fully_specified():
    cfg = ExperimentConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=24, vocab_size=16, max_len=12, n_outputs=3,
        method="condlora", rank=2, alpha=1.5, target_modules=("query", "key", "value"),
        target_layers=(1, 2), batch_size=4, learning_rate=0.004, max_steps=17,
        task="teacher", seq_len=6,
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
    key, value = text.split(" = ")
    rule = f"{key.split('.')[1]} must be positive and finite, got {float(value)}"
    with pytest.raises(ConfigError, match=f"^line 1: bad value for {key}: '{value}' \\({rule}\\)$"):
        parse_config(text + "\n")


@pytest.mark.parametrize("text", ["adapter.target_layers = 1,,2", "adapter.target_layers = ,1",
                                  "adapter.target_layers =", "adapter.target_modules = query,",
                                  "adapter.target_modules = query, ,value"])
def test_parse_rejects_empty_list_items(text):
    with pytest.raises(ConfigError, match=rf"bad value for {text.split()[0]}: '.*' \(empty item\)"):
        parse_config(text + "\n")


@pytest.mark.parametrize("make, message", [
    (lambda: AdapterSpec("lora", 4, True), "alpha must be a real number, got True"),
    (lambda: AdapterSpec("lora", 4, "1"), "alpha must be a real number, got '1'"),
    (lambda: TrainConfig(learning_rate=True, max_steps=1),
     "learning_rate must be a real number, got True"),
    (lambda: TrainConfig(learning_rate="0.01", max_steps=1),
     "learning_rate must be a real number, got '0.01'"),
    (lambda: matcore.gaussian(1, 2, mean=True), "mean must be a real number, got True"),
    (lambda: matcore.gaussian(1, 2, std=True), "std must be a real number, got True"),
], ids=["alpha-True", "alpha-str", "learning_rate-True", "learning_rate-str", "mean-True",
        "std-True"])
def test_real_fields_reject_bools_and_strings(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_real_fields_take_numpy_reals():
    assert AdapterSpec("lora", 4, np.float64(2.0)).alpha == 2.0
    assert TrainConfig(learning_rate=np.float32(0.5), max_steps=1).learning_rate == 0.5
    assert np.array_equal(matcore.gaussian(2, 3, np.int64(1), np.float64(0.5), 4),
                          matcore.gaussian(2, 3, 1.0, 0.5, 4))


def test_non_finite_values_fail_outside_files_too():
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        AdapterSpec("lora", 2, float("nan"))
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            TrainConfig(learning_rate=lr, max_steps=1)


@pytest.mark.parametrize("field, value, message", [
    ("max_steps", 10.5, "max_steps must be an integer, got 10.5"),
    ("max_steps", True, "max_steps must be an integer, got True"),
    ("max_steps", -1, "max_steps must be >= 0, got -1"),
    ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
    ("batch_size", False, "batch_size must be an integer, got False"),
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
], ids=["max_steps-10.5", "max_steps-True", "max_steps--1",
        "batch_size-2.5", "batch_size-False", "batch_size-0"])
def test_train_config_sizes_are_integers(field, value, message):
    sizes = {"max_steps": 10, "batch_size": 2, field: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(learning_rate=0.01, **sizes)


def test_parse_rejects_invalid_combination():
    with pytest.raises(ConfigError):
        parse_config("model.d_model = 30\n")  # not divisible by default 4 heads
    with pytest.raises(ConfigError):
        parse_config("adapter.rank = 64\n")  # exceeds default d_model 32
    with pytest.raises(ConfigError):
        parse_config("task = mystery\n")


@pytest.mark.parametrize("key, low", [
    *((f"model.{name}", 1) for name in ("n_layers", "d_model", "n_heads", "d_ff", "vocab_size",
                                        "max_len", "n_outputs")),
    ("adapter.rank", 1), ("train.batch_size", 1), ("train.max_steps", 0), ("task.seq_len", 1),
])
def test_parse_names_the_line_and_key_of_an_integer_below_its_bound(key, low):
    field = key.split(".")[1]
    with pytest.raises(ConfigError, match=rf"^line 2: bad value for {re.escape(key)}: '{low - 1}' "
                                           rf"\({field} must be >= {low}, got {low - 1}\)$"):
        parse_config(f"# sizes\n{key} = {low - 1}\n")


@pytest.mark.parametrize("key", ["seeds.model", "seeds.adapter", "seeds.data"])
@pytest.mark.parametrize("value", [-1, 2 ** 64, -2 ** 70])
def test_parse_rejects_a_seed_outside_64_bits(key, value):
    with pytest.raises(ConfigError, match=rf"^line 2: bad value for {key}: '{value}' "
                                           r"\(not an unsigned 64-bit integer\)$"):
        parse_config(f"# seeds\n{key} = {value}\n")
    assert parse_config(f"{key} = {2 ** 64 - 1}\n") != parse_config(f"{key} = 0\n")
    cfg = ExperimentConfig(**{"seed_" + key.split(".")[1]: value})
    with pytest.raises(ValueError, match=f"^cannot write {key} = {value}: it would not read back"):
        serialize_config(cfg)


def test_defaults_resolution():
    cfg = ExperimentConfig()
    spec = cfg.adapter_spec()
    assert spec.alpha == spec.rank == 4
    assert spec.target_layers == (1, 2, 3, 4)
    assert cfg.train_config().learning_rate == 0.02
    cfg.learning_rate = 0.001
    assert cfg.train_config().learning_rate == 0.001


def test_model_config_carries_model_seed():
    cfg = ExperimentConfig(seed_model=123)
    assert cfg.model_config().seed == 123


# --- one key/value reader for config files and checkpoint headers --------------------

@pytest.mark.parametrize("config_text, header_text, problem", [
    ("model.width = 4", "width=4", "unknown key '{key}'"),
    ("adapter.rank = four", "r=four", "bad value for {key}: 'four' (not an integer)"),
    ("adapter.alpha = nan", "alpha=nan",
     "bad value for {key}: 'nan' (alpha must be positive and finite, got nan)"),
    ("adapter.alpha = x", "alpha=x", "bad value for {key}: 'x' (not a number)"),
])
def test_config_and_header_errors_share_one_wording(tmp_path, config_text, header_text, problem):
    with pytest.raises(ConfigError) as info:
        parse_config(config_text + "\n")
    assert str(info.value).startswith("line 1: " + problem.format(key=config_text.split()[0]))
    path = tmp_path / "adapter.ckpt"
    spec = AdapterSpec("lora", 2, 2.0, ("query",), (1,))
    adapters.save_adapter(path, adapters.init_params(spec, 4, 0), spec)
    key = header_text.split("=")[0]
    rewrite_header(path, lambda header: " ".join(
        [item for item in header.split() if not item.startswith(key + "=")] + [header_text]))
    with pytest.raises(ValueError) as info:
        adapters.load_adapter(path)
    assert str(info.value).startswith(f"{path}: line 1: " + problem.format(key=key))


def test_duplicate_and_missing_keys_name_the_key():
    with pytest.raises(ConfigError, match=r"^line 2: duplicate key 'adapter.rank'$"):
        parse_config("adapter.rank = 2\nadapter.rank = 2\n")
    fields = {"a": ("a", int, str), "b": ("b", int, str)}
    with pytest.raises(ValueError, match=r"^line 3: duplicate key 'a'$"):
        matcore.read_fields([(1, "a", "1"), (3, "a", "1")], fields)
    with pytest.raises(ValueError, match=r"^line 1: missing key 'b'$"):
        matcore.read_fields([(1, "a", "1")], fields)
    assert matcore.read_fields([(1, "a", "1")], fields, {"b": 7}) == {"a": 1, "b": 7}


# --- serialize_config writes only what it reads back ----------------------------------

@pytest.mark.parametrize("changes, key", [
    ({"output_dir": "a#b"}, "output_dir"),
    ({"output_dir": " lead"}, "output_dir"),
    ({"output_dir": "trail "}, "output_dir"),
    ({"output_dir": "two\nlines"}, "output_dir"),
    ({"output_dir": "x\nseeds.data = 5"}, "output_dir"),
    ({"method": "lora # comment"}, "adapter.method"),
    ({"alpha": float("nan")}, "adapter.alpha"),
    ({"learning_rate": -1.0}, "train.learning_rate"),
    ({"target_layers": ()}, "adapter.target_layers"),
])
def test_serialize_refuses_a_value_it_cannot_read_back(changes, key):
    cfg = ExperimentConfig(**changes)
    with pytest.raises(ValueError, match=f"^cannot write {key} = "):
        serialize_config(cfg)


positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def configs(draw):
    n_heads = draw(st.integers(1, 4))
    n_layers = draw(st.integers(1, 4))
    d_model = n_heads * draw(st.integers(1, 8))
    layers = st.lists(st.integers(1, n_layers), min_size=1, unique=True).map(tuple)
    small = st.integers(1, 10**6)
    task = draw(st.sampled_from(tasks.TASK_KINDS))
    max_len = draw(small)
    return ExperimentConfig(
        n_layers=n_layers, d_model=d_model, n_heads=n_heads, d_ff=draw(small),
        vocab_size=draw(small), max_len=max_len,
        n_outputs=draw(st.integers(2 if task == "parity" else 1, 10**6)),
        method=draw(st.sampled_from(METHODS)), rank=draw(st.integers(1, d_model)),
        alpha=draw(st.none() | positive_floats),
        target_modules=tuple(draw(st.lists(st.sampled_from(ATTENTION_MODULES),
                                           min_size=1, unique=True))),
        target_layers=draw(st.none() | layers), batch_size=draw(small),
        learning_rate=draw(st.none() | positive_floats), max_steps=draw(st.integers(0, 10**9)),
        task=task, seq_len=draw(st.integers(1, max_len)),
        output_dir=draw(st.text(max_size=12)),
        seed_model=draw(st.integers(-2**70, 2**70)), seed_adapter=draw(st.integers(0, 2**64)),
        seed_data=draw(st.integers(0, 2**64)),
    )


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(configs())
def test_serialize_round_trips_every_valid_config_or_names_the_key(cfg):
    out = cfg.output_dir
    writable = "#" not in out and out == out.strip() and len(out.splitlines()) <= 1
    if not writable:
        with pytest.raises(ValueError, match="^cannot write output_dir = "):
            serialize_config(cfg)
        return
    wrapped = [name for name in ("model", "adapter", "data")
               if not 0 <= getattr(cfg, f"seed_{name}") < 2 ** 64]
    if wrapped:
        with pytest.raises(ValueError, match=rf"^cannot write seeds\.{wrapped[0]} = "):
            serialize_config(cfg)
        return
    assert parse_config(serialize_config(cfg)) == cfg
