"""Checkpoint files: load-time checks, atomic saves, property and fuzz tests.

Model and adapter checkpoints share one reader and one writer in ``matcore``;
every malformed file must fail with a ``ValueError`` that starts with the
path and the line, and ``loralab analyze`` must turn it into exit code 1.
"""

import os
import re
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loralab import adapters, matcore, model
from loralab.adapters import AdapterSpec
from loralab.cli import main
from loralab.model import ModelConfig

TINY = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32, vocab_size=32,
                   max_len=16, n_outputs=4)
TINY_SPEC = AdapterSpec("lora", 2, 2.0, ("query", "value"), (1, 2))

# Deterministic, so that tier-1 runs are repeatable; no example database.
FUZZ = settings(deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_pair(directory, spec=TINY_SPEC, d=16):
    paths = {"model": directory / "model.ckpt", "adapter": directory / "adapter.ckpt"}
    model.save_model(paths["model"], model.build_model(TINY))
    params = adapters.init_params(spec, d, 0)
    params.tensors = {k: v + 0.25 for k, v in params.tensors.items()}
    adapters.save_adapter(paths["adapter"], params, spec)
    return paths


def edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def analyze(capsys, paths, out):
    code = main(["analyze", "--model", str(paths["model"]), "--adapter", str(paths["adapter"]),
                 "--out", str(out)])
    return code, capsys.readouterr().err


def assert_located(message, path):
    assert re.match(rf"{re.escape(str(path))}: line \d+: ", message), message


# --- malformed blocks ------------------------------------------------------------

def set_value(line_no, value):
    """Edit that puts value in place of the second entry of line line_no (1-based)."""
    def edit(lines):
        parts = lines[line_no - 1].split()
        parts[1] = value
        lines[line_no - 1] = " ".join(parts) + "\n"
        return lines
    return edit


# Adapter file: line 1 SPEC, line 2 "MATRIX lora.query.1.A 2 16", lines 3-4 its rows.
@pytest.mark.parametrize("which, edit, message", [
    ("adapter", set_value(4, "nan"), "line 4: tensor lora.query.1.A: non-finite entry nan"),
    ("adapter", set_value(3, "-inf"), "line 3: tensor lora.query.1.A: non-finite entry -inf"),
    ("model", set_value(3, "nan"), "line 3: tensor embed.token: non-finite entry nan"),
    ("adapter", set_value(3, "abc"),
     "line 3: tensor lora.query.1.A: could not convert string to float: 'abc'"),
    ("adapter", lambda lines: lines[:1] + ["MATRIX lora.query.1.A x 16\n"] + lines[2:],
     "line 2: tensor lora.query.1.A: bad dimensions in 'MATRIX lora.query.1.A x 16'"),
    ("adapter", lambda lines: lines + lines[1:4],
     "tensor lora.query.1.A: duplicate tensor name"),
    ("adapter", lambda lines: lines[:1] + ["NOTMATRIX lora.query.1.A 2 16\n"] + lines[2:],
     "line 2: expected MATRIX header"),
])
def test_malformed_block_names_file_line_and_tensor(tmp_path, capsys, which, edit, message):
    paths = write_pair(tmp_path)
    edit_lines(paths[which], edit)
    load = model.load_model if which == "model" else adapters.load_adapter
    with pytest.raises(ValueError) as info:
        load(paths[which])
    assert_located(str(info.value), paths[which])
    assert message in str(info.value)
    code, err = analyze(capsys, paths, tmp_path / "out")
    assert code == 1
    assert err.splitlines() == [f"error: {info.value}"]


def test_truncated_last_row_is_an_error(tmp_path):
    paths = write_pair(tmp_path)
    text = paths["adapter"].read_text()
    paths["adapter"].write_text(text[:-3])  # mid-number in the last row
    with pytest.raises(ValueError, match="ends without a newline"):
        adapters.load_adapter(paths["adapter"])


def test_absurd_layer_count_fails_fast(tmp_path):
    paths = write_pair(tmp_path)
    text = paths["model"].read_text()
    paths["model"].write_text(text.replace("n_layers=2", f"n_layers={10**12}", 1))
    with pytest.raises(ValueError, match=r"line \d+: end of file, missing tensor layer3.query"):
        model.load_model(paths["model"])


# --- atomic saves ----------------------------------------------------------------

def bad_params():
    params = adapters.init_params(TINY_SPEC, 16, 0)
    params.tensors["has space"] = np.ones((1, 1))  # write_matrix rejects the name
    return params


def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    paths = write_pair(tmp_path)
    before = paths["adapter"].read_bytes()
    with pytest.raises(ValueError, match="matrix name"):
        adapters.save_adapter(paths["adapter"], bad_params(), TINY_SPEC)
    assert paths["adapter"].read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["adapter.ckpt", "model.ckpt"]


def test_atomic_write_replaces_only_on_success(tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(b"step,loss\r\n0,1\n")
    before = path.read_bytes()
    with pytest.raises(KeyboardInterrupt):
        with matcore.atomic_write(path) as fh:
            fh.write("step,loss\n")
            raise KeyboardInterrupt
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.csv"]
    with matcore.atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["report.csv"]


def test_failed_first_save_leaves_nothing(tmp_path):
    with pytest.raises(ValueError, match="matrix name"):
        adapters.save_adapter(tmp_path / "adapter.ckpt", bad_params(), TINY_SPEC)
    assert os.listdir(tmp_path) == []


# --- adapter shapes against the SPEC ---------------------------------------------

def test_load_adapter_rejects_a_factor_of_the_wrong_rank(tmp_path):
    spec = AdapterSpec("lora", 4, 4.0, ("query",), (1,))
    params = adapters.init_params(spec, 32, 0)
    params.tensors["lora.query.1.A"] = np.ones((3, 32))
    path = tmp_path / "adapter.ckpt"
    adapters.save_adapter(path, params, spec)
    with pytest.raises(ValueError, match=f"{path}: line 2: tensor lora.query.1.A: "
                                         "shape 3x32, expected 4x32"):
        adapters.load_adapter(path)


def test_load_adapter_rejects_tensors_of_different_widths(tmp_path):
    spec = AdapterSpec("condlora", 4, 4.0, ("value",), (1, 2))
    params = adapters.init_params(spec, 32, 0)
    params.tensors["cond.value.thetaB"] = np.zeros((16, 4))
    path = tmp_path / "adapter.ckpt"
    adapters.save_adapter(path, params, spec)
    with pytest.raises(ValueError, match="tensor cond.value.thetaB: shape 16x4, expected 32x4"):
        adapters.load_adapter(path)


def test_analyze_rejects_an_adapter_of_another_width(tmp_path, capsys):
    paths = write_pair(tmp_path)
    adapters.save_adapter(paths["adapter"], adapters.init_params(TINY_SPEC, 8, 0), TINY_SPEC)
    code, err = analyze(capsys, paths, tmp_path / "out")
    assert code == 1
    assert err.splitlines() == [
        f"error: {paths['adapter']}: "
        "adapter tensor lora.query.1.A is 2x8, expected 2x16 for d_model 16"
    ]
    assert not (tmp_path / "out").exists()


# --- round trips -----------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def model_weights(draw):
    n_heads = draw(st.integers(1, 2))
    config = ModelConfig(
        n_layers=draw(st.integers(1, 2)), d_model=n_heads * draw(st.integers(1, 3)),
        n_heads=n_heads, d_ff=draw(st.integers(1, 4)), vocab_size=draw(st.integers(1, 4)),
        max_len=draw(st.integers(1, 3)), n_outputs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**31)),
    )
    tensors = {name: draw(arrays(np.float64, shape, elements=finite))
               for name, shape in model.tensor_layout(config)}
    return model.BaseWeights(config, tensors)


@st.composite
def adapter_pairs(draw):
    modules = draw(st.lists(st.sampled_from(model.ATTENTION_MODULES), min_size=1, unique=True))
    spec = AdapterSpec(
        method=draw(st.sampled_from(adapters.METHODS)), rank=draw(st.integers(1, 3)),
        alpha=draw(st.floats(min_value=1e-300, max_value=1e300)),
        target_modules=tuple(modules),
        target_layers=tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3,
                                          unique=True))),
    )
    d = draw(st.integers(1, 4))
    tensors = {name: draw(arrays(np.float64, shape, elements=finite))
               for name, shape in adapters.tensor_shapes(spec, d).items()}
    params = adapters.AdapterParams(tensors)
    return params, spec


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(FUZZ, max_examples=40)
@given(weights=model_weights())
def test_model_round_trip_is_bit_exact(tmp_path, weights):
    path = tmp_path / "model.ckpt"
    model.save_model(path, weights)
    back = model.load_model(path)
    assert back.config == weights.config
    assert all(same_bits(back[name], weights[name]) for name in weights.names())


@settings(FUZZ, max_examples=60)
@given(pair=adapter_pairs())
def test_adapter_round_trip_is_bit_exact(tmp_path, pair):
    params, spec = pair
    path = tmp_path / "adapter.ckpt"
    adapters.save_adapter(path, params, spec)
    back, back_spec = adapters.load_adapter(path)
    assert back_spec == spec and type(back) is type(params)
    assert list(back.tensors) == list(params.tensors)
    assert all(same_bits(back.tensors[k], params.tensors[k]) for k in params.tensors)


# --- fuzz ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_files(tmp_path_factory):
    """A desk model checkpoint and a trained-looking condlora adapter for it."""
    directory = tmp_path_factory.mktemp("desk")
    spec = AdapterSpec("condlora", 4, 4.0, ("query", "value"), (1, 2, 3, 4))
    params = adapters.init_params(spec, 32, 1)
    params.tensors = {k: v + matcore.gaussian(*v.shape, 0.0, 0.1, 7)
                      for k, v in params.tensors.items()}
    model.save_model(directory / "model.ckpt", model.build_model(ModelConfig()))
    adapters.save_adapter(directory / "adapter.ckpt", params, spec)
    return {which: (directory / f"{which}.ckpt").read_text() for which in ("model", "adapter")}


tokens = st.one_of(
    st.from_regex(r"[-+]?[0-9]{1,14}", fullmatch=True),
    st.sampled_from(["", "nan", "inf", "-inf", "1e999", "0x1f", "abc", "MATRIX", "CONFIG",
                     "SPEC", "r=4", "n_layers=3", "d_model=-1", "layers=1,1", "1.5"]),
    st.text(alphabet=string.ascii_letters + string.digits + ".,=+-_", max_size=8),
)


@st.composite
def line_mutations(draw, text):
    """text with one line deleted, duplicated, swapped, replaced or one token changed."""
    lines = text.splitlines(keepends=True)
    headers = [i for i, line in enumerate(lines) if line.startswith(("MATRIX", "CONFIG", "SPEC"))]
    i = draw(st.one_of(st.sampled_from(headers), st.integers(0, len(lines) - 1)))
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "token"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif kind == "replace":
        lines[i] = draw(st.text(alphabet=string.printable.strip() + " ", max_size=40)) + "\n"
    else:
        parts = lines[i].split()
        parts[draw(st.integers(0, len(parts) - 1))] = draw(tokens)
        lines[i] = " ".join(parts) + "\n"
    return "".join(lines)


def load(which, path):
    return model.load_model(path) if which == "model" else adapters.load_adapter(path)


@settings(FUZZ, max_examples=40)
@given(which=st.sampled_from(["model", "adapter"]), data=st.data())
def test_truncated_checkpoint_fails_with_its_path_and_line(tmp_path, desk_files, which, data):
    text = desk_files[which]
    path = tmp_path / f"{which}.ckpt"
    path.write_text(text[: data.draw(st.integers(0, len(text) - 1))])
    with pytest.raises(ValueError) as info:
        load(which, path)
    assert_located(str(info.value), path)


@settings(FUZZ, max_examples=100)
@given(which=st.sampled_from(["model", "adapter"]), data=st.data())
def test_mutated_checkpoint_loads_or_fails_with_its_path_and_line(tmp_path, desk_files,
                                                                   which, data):
    path = tmp_path / f"{which}.ckpt"
    path.write_text(data.draw(line_mutations(desk_files[which])))
    try:
        load(which, path)
    except ValueError as exc:
        assert_located(str(exc), path)


@settings(FUZZ, max_examples=30)
@given(which=st.sampled_from(["model", "adapter"]), data=st.data())
def test_analyze_on_a_mutated_checkpoint_exits_cleanly(tmp_path, capsys, which, data):
    paths = write_pair(tmp_path)
    mutate = data.draw(st.sampled_from(["truncate", "mutate"]))
    text = paths[which].read_text()
    if mutate == "truncate":
        text = text[: data.draw(st.integers(0, len(text)))]
    else:
        text = data.draw(line_mutations(text))
    paths[which].write_text(text)
    code, err = analyze(capsys, paths, tmp_path / "out")
    assert code in (0, 1, 2)
    if code:
        assert len(err.splitlines()) == 1 and "Traceback" not in err
