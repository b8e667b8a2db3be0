"""Checkpoint files: load-time checks, atomic saves, property and fuzz tests.

Model and adapter checkpoints share one reader and one writer in ``matcore``;
every malformed file must fail with a ``ValueError`` that starts with the
path and ``line 1`` (the header) or the byte offset, and ``loralab analyze``
must turn it into exit code 1 and one line.
"""

import os
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from checkpoint_files import blocks, header_end, put_value, rewrite_header, text_format
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


def load(which, path):
    return model.load_model(path) if which == "model" else adapters.load_adapter(path)


def analyze(capsys, paths, out):
    code = main(["analyze", "--model", str(paths["model"]), "--adapter", str(paths["adapter"]),
                 "--out", str(out)])
    return code, capsys.readouterr().err


def assert_located(message, path):
    assert re.match(rf"{re.escape(str(path))}: (line 1|byte \d+): ", message), message


# --- malformed blocks ------------------------------------------------------------
# Each edit takes the file's bytes and blocks and returns the edited bytes and
# the error expected after the path. The adapter's first block is
# lora.query.1.A (2x16), its last lora.value.2.B (16x2); the model's first
# block is embed.token.

def non_finite(name, row, col, value, shown):
    def edit(data, found):
        data, at = put_value(data, found[name], row, col, value)
        return data, (f"byte {at}: tensor {name}: non-finite entry {shown} "
                      f"at row {row + 1}, column {col + 1}")
    return edit


def matrix_line(line, problem):
    """Edit that replaces the MATRIX line of lora.query.1.A with line."""
    def edit(data, found):
        a = found["lora.query.1.A"]
        return (data[: a.start] + line.encode() + b"\n" + data[a.payload :],
                f"byte {a.start}: {problem}")
    return edit


def cut_payload(data, found):
    a = found["lora.query.1.A"]
    return (data[: a.payload + 100],
            f"byte {a.start}: tensor lora.query.1.A: payload cut short: 100 of 256 bytes")


def repeat_first(data, found):
    a = found["lora.query.1.A"]
    return (data + data[a.start : a.end],
            f"byte {len(data)}: tensor lora.query.1.A: duplicate tensor name")


def drop_last(data, found):
    b = found["lora.value.2.B"]
    return data[: b.start], f"byte {b.start}: end of file, missing tensor lora.value.2.B"


def old_format(data, found):
    first = next(iter(found.values()))
    line = f"MATRIX {first.name} {first.rows} {first.cols}"
    return text_format(data), (f"byte {first.start}: {line!r} has no <f8 marker: a text "
                               "checkpoint of the pre-raw format, which this version does not read")


@pytest.mark.parametrize("which, edit", [
    pytest.param("adapter", non_finite("lora.query.1.A", 1, 0, np.nan, "nan"), id="adapter-nan"),
    pytest.param("adapter", non_finite("lora.query.1.A", 0, 1, -np.inf, "-inf"),
                 id="adapter-minus-inf"),
    pytest.param("adapter", non_finite("lora.value.2.B", 15, 1, np.inf, "inf"),
                 id="adapter-inf-last-value"),
    pytest.param("model", non_finite("embed.token", 0, 0, np.nan, "nan"), id="model-nan"),
    pytest.param("adapter", cut_payload, id="payload-cut-short"),
    pytest.param("adapter", matrix_line("MATRIX lora.query.1.A 3 16 <f8",
                                        "tensor lora.query.1.A: shape 3x16, expected 2x16"),
                 id="wrong-size"),
    pytest.param("adapter", matrix_line(
        "MATRIX lora.query.1.A x 16 <f8",
        "tensor lora.query.1.A: bad dimensions in 'MATRIX lora.query.1.A x 16 <f8'"),
        id="bad-dimensions"),
    pytest.param("adapter", repeat_first, id="duplicate"),
    pytest.param("adapter", drop_last, id="missing"),
    pytest.param("adapter", matrix_line(
        "NOTMATRIX lora.query.1.A 2 16 <f8",
        "expected MATRIX line, got 'NOTMATRIX lora.query.1.A 2 16 <f8'"), id="not-matrix"),
    pytest.param("adapter", matrix_line(
        "MATRIX lora.query.1.A 2 16 >f8",
        "expected 'MATRIX <name> <rows> <cols> <f8', got 'MATRIX lora.query.1.A 2 16 >f8'"),
        id="big-endian-marker"),
    pytest.param("adapter", old_format, id="adapter-old-text-format"),
    pytest.param("model", old_format, id="model-old-text-format"),
])
def test_malformed_block_names_file_byte_and_tensor(tmp_path, capsys, which, edit):
    paths = write_pair(tmp_path)
    data = paths[which].read_bytes()
    data, message = edit(data, blocks(data))
    paths[which].write_bytes(data)
    with pytest.raises(ValueError) as info:
        load(which, paths[which])
    assert str(info.value) == f"{paths[which]}: {message}"
    code, err = analyze(capsys, paths, tmp_path / "out")
    assert code == 1
    assert err.splitlines() == [f"error: {info.value}"]


def test_truncated_last_row_is_an_error(tmp_path):
    paths = write_pair(tmp_path)
    data = paths["adapter"].read_bytes()
    paths["adapter"].write_bytes(data[:-3])  # mid-value in the last row
    with pytest.raises(ValueError, match=r"byte \d+: tensor lora.value.2.B: "
                                         "payload cut short: 253 of 256 bytes"):
        adapters.load_adapter(paths["adapter"])


@pytest.mark.parametrize("which", ["model", "adapter"])
def test_header_without_an_end_of_line_is_read_no_further_than_its_cap(tmp_path, capsys, which):
    paths = write_pair(tmp_path)
    paths[which].write_bytes(bytes(2 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            load(which, paths[which])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (f"{paths[which]}: line 1: "
                               "no end of line in the first 1048576 bytes")
    assert peak < 3 << 20  # the 1 MiB read (twice, in the reader's buffer), not the file
    code, err = analyze(capsys, paths, tmp_path / "out")
    assert code == 1
    assert err.splitlines() == [f"error: {info.value}"]


def test_absurd_layer_count_fails_fast(tmp_path):
    paths = write_pair(tmp_path)
    rewrite_header(paths["model"], lambda line: line.replace("n_layers=2", f"n_layers={10**12}"))
    with pytest.raises(ValueError, match=r"byte \d+: end of file, missing tensor layer3.query"):
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
    first = header_end(path.read_bytes())
    with pytest.raises(ValueError, match=f"{path}: byte {first}: tensor lora.query.1.A: "
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
    return {which: (directory / f"{which}.ckpt").read_bytes() for which in ("model", "adapter")}


tokens = st.one_of(
    st.from_regex(r"[-+]?[0-9]{1,14}", fullmatch=True),
    st.sampled_from(["", "nan", "inf", "-inf", "1e999", "0x1f", "abc", "MATRIX", "CONFIG",
                     "SPEC", "r=4", "n_layers=3", "d_model=-1", "layers=1,1", "1.5", "<f8", ">f8"]),
    st.text(alphabet=string.ascii_letters + string.digits + ".,=+-_<>", max_size=8),
)


@st.composite
def cut_points(draw, data):
    """(offset, block or None): an offset inside the header, a MATRIX line or a payload."""
    kind = draw(st.sampled_from(["header", "matrix line", "payload"]))
    if kind == "header":
        return draw(st.integers(0, header_end(data) - 1)), None
    block = draw(st.sampled_from(list(blocks(data).values())))
    if kind == "matrix line":
        return draw(st.integers(block.start, block.payload - 1)), None
    return draw(st.integers(block.payload, block.end - 1)), block


@st.composite
def mutations(draw, data):
    """data with a byte flipped, a block deleted, repeated or moved, or a text token changed."""
    found = list(blocks(data).values())
    kind = draw(st.sampled_from(["flip", "delete", "duplicate", "swap", "token"]))
    b = draw(st.sampled_from(found))
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if kind == "delete":
        return data[: b.start] + data[b.end :]
    if kind == "duplicate":
        return data[: b.end] + data[b.start :]
    if kind == "swap":
        c = draw(st.sampled_from(found))
        b, c = sorted((b, c), key=lambda block: block.start)
        if b != c:
            return (data[: b.start] + data[c.start : c.end] + data[b.end : c.start]
                    + data[b.start : b.end] + data[c.end :])
    start, end = draw(st.sampled_from([(0, header_end(data)), (b.start, b.payload)]))
    parts = data[start:end].decode().split()
    parts[draw(st.integers(0, len(parts) - 1))] = draw(tokens)
    return data[:start] + (" ".join(parts) + "\n").encode() + data[end:]


@settings(FUZZ, max_examples=60)
@given(which=st.sampled_from(["model", "adapter"]), data=st.data())
def test_truncated_checkpoint_fails_with_its_path_and_line(tmp_path, desk_files, which, data):
    """A cut in the header, a MATRIX line or a payload; a cut payload names its tensor."""
    at, block = data.draw(cut_points(desk_files[which]))
    path = tmp_path / f"{which}.ckpt"
    path.write_bytes(desk_files[which][:at])
    with pytest.raises(ValueError) as info:
        load(which, path)
    assert_located(str(info.value), path)
    if block is not None:
        assert str(info.value) == (
            f"{path}: byte {block.start}: tensor {block.name}: payload cut short: "
            f"{at - block.payload} of {block.end - block.payload} bytes")


@settings(FUZZ, max_examples=100)
@given(which=st.sampled_from(["model", "adapter"]), data=st.data())
def test_mutated_checkpoint_loads_or_fails_with_its_path_and_line(tmp_path, desk_files,
                                                                   which, data):
    path = tmp_path / f"{which}.ckpt"
    path.write_bytes(data.draw(mutations(desk_files[which])))
    try:
        load(which, path)
    except ValueError as exc:
        assert_located(str(exc), path)


@settings(FUZZ, max_examples=60)
@given(which=st.sampled_from(["model", "adapter"]), data=st.data())
def test_flipped_payload_byte_loads_as_one_changed_value_or_names_its_tensor(
        tmp_path, desk_files, which, data):
    original = desk_files[which]
    block = data.draw(st.sampled_from(list(blocks(original).values())))
    at = data.draw(st.integers(block.payload, block.end - 1))
    mask = data.draw(st.integers(1, 255))
    flipped = original[:at] + bytes([original[at] ^ mask]) + original[at + 1 :]
    path = tmp_path / f"{which}.ckpt"
    path.write_bytes(flipped)
    value_at = at - (at - block.payload) % 8
    try:
        loaded = load(which, path)
    except ValueError as exc:
        assert str(exc).startswith(
            f"{path}: byte {value_at}: tensor {block.name}: non-finite entry ")
        return
    got = loaded[block.name] if which == "model" else loaded[0].tensors[block.name]
    expected = np.frombuffer(flipped[block.payload : block.end], "<f8")
    assert np.array_equal(got.ravel().view(np.uint64), expected.view(np.uint64))


@settings(FUZZ, max_examples=40)
@given(which=st.sampled_from(["model", "adapter"]), data=st.data())
def test_analyze_on_a_mutated_checkpoint_exits_cleanly(tmp_path, capsys, which, data):
    paths = write_pair(tmp_path)
    mutate = data.draw(st.sampled_from(["truncate", "mutate", "old format"]))
    original = paths[which].read_bytes()
    if mutate == "truncate":
        edited = original[: data.draw(cut_points(original))[0]]
    elif mutate == "mutate":
        edited = data.draw(mutations(original))
    else:
        edited = text_format(original)
    paths[which].write_bytes(edited)
    code, err = analyze(capsys, paths, tmp_path / "out")
    assert code in (0, 1, 2)
    if code:
        assert len(err.splitlines()) == 1 and "Traceback" not in err
