"""Experiment configuration: one flat dataclass plus a line-based file format.

Files hold ``key = value`` pairs with dotted keys (``model.d_model = 32``)
and ``#`` comments. ``_FIELDS`` is a ``matcore.Fields`` table, as for the
checkpoint headers, and ``matcore.read_fields`` reads it; an integer key
below its lower bound fails as its line is read, naming the line and key, as
any other bad value does. Optional fields are
omitted when unset and resolved at use time: alpha to the rank, the learning
rate per method, the target layers to every layer. No key picks the loss: the
task's targets do (see ``trainer``), and no key sets the teacher's rank:
``make_task`` passes ``adapter.rank``, so every key is read by every task.
``parse_config`` checks the task settings against the model too, so a bad
value fails when the file is read.
``serialize_config`` refuses a value it could not read back,
so ``parse_config(serialize_config(cfg)) == cfg`` for every valid config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

from . import matcore
from .adapters import AdapterSpec
from .model import ModelConfig
from .tasks import build_task, check_task
from .trainer import DEFAULT_LEARNING_RATE, TrainConfig


class ConfigError(ValueError):
    """Malformed configuration file or invalid field value."""


# the ModelConfig fields an experiment sets, as its keys model.<name>
_MODEL_FIELDS = tuple(f.name for f in fields(ModelConfig) if f.name != "seed")


@dataclass
class ExperimentConfig:
    # model geometry
    n_layers: int = 4
    d_model: int = 32
    n_heads: int = 4
    d_ff: int = 64
    vocab_size: int = 64
    max_len: int = 32
    n_outputs: int = 8
    # adapter
    method: str = "lora"
    rank: int = 4
    alpha: float | None = None
    target_modules: tuple[str, ...] = ("query", "value")
    target_layers: tuple[int, ...] | None = None
    # training
    batch_size: int = 16
    learning_rate: float | None = None
    max_steps: int = 2000
    # task
    task: str = "teacher"
    seq_len: int = 16
    # output and seeds
    output_dir: str = "out"
    seed_model: int = 0
    seed_adapter: int = 1
    seed_data: int = 2

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{name: getattr(self, name) for name in _MODEL_FIELDS},
                           seed=self.seed_model)

    def adapter_spec(self, method: str | None = None) -> AdapterSpec:
        layers = self.target_layers or tuple(range(1, self.n_layers + 1))
        spec = AdapterSpec(
            method=method or self.method,
            rank=self.rank,
            alpha=float(self.rank if self.alpha is None else self.alpha),
            target_modules=self.target_modules,
            target_layers=layers,
        )
        spec.validate_for(self.model_config())
        return spec

    def train_config(self, method: str | None = None) -> TrainConfig:
        method = method or self.method
        lr = self.learning_rate
        if lr is None:
            lr = DEFAULT_LEARNING_RATE[method]
        return TrainConfig(
            learning_rate=lr,
            max_steps=self.max_steps,
            batch_size=self.batch_size,
            seed=self.seed_adapter,
        )

    def make_task(self, weights):
        return build_task(self.task, weights, self.seed_data,
                          rank=self.rank, seq_len=self.seq_len)


# key -> (field, parser, formatter), the table type of the checkpoint headers
_FIELDS: matcore.Fields = {
    **{f"model.{name}": (name, matcore.int_at_least(name, 1), str) for name in _MODEL_FIELDS},
    "adapter.method": ("method", str, str),
    "adapter.rank": ("rank", matcore.int_at_least("rank", 1), str),
    "adapter.alpha": ("alpha", matcore.positive_float, matcore.format_float),
    "adapter.target_modules": ("target_modules", matcore.parse_items, matcore.format_items),
    "adapter.target_layers": ("target_layers", matcore.parse_layers, matcore.format_items),
    "train.batch_size": ("batch_size", matcore.int_at_least("batch_size", 1), str),
    "train.learning_rate": ("learning_rate", matcore.positive_float, matcore.format_float),
    "train.max_steps": ("max_steps", matcore.int_at_least("max_steps", 0), str),
    "task": ("task", str, str),
    "task.seq_len": ("seq_len", matcore.int_at_least("seq_len", 1), str),
    "output_dir": ("output_dir", str, str),
    **{f"seeds.{name}": (f"seed_{name}", matcore.parse_seed, str)
       for name in ("model", "adapter", "data")},
}


def _entries(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) per ``key = value`` line; ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def serialize_config(cfg: ExperimentConfig) -> str:
    """The file text of cfg; a value it could not read back is a ValueError naming the key."""
    lines = []
    for key, text in matcore.format_fields(cfg, _FIELDS):
        line = f"{key} = {text}"
        try:
            same = list(_entries(line)) == [(1, key, text)]
        except ConfigError:
            same = False
        if not same:
            raise ValueError(f"cannot write {key} = {text!r}: a config line cannot hold it")
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    defaults = vars(ExperimentConfig())
    try:
        cfg = ExperimentConfig(**matcore.read_fields(_entries(text), _FIELDS, defaults))
        cfg.adapter_spec()
        cfg.train_config()
        check_task(cfg.task, cfg.model_config(), cfg.seq_len, cfg.rank)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path) -> ExperimentConfig:
    """parse_config of the file at path; every ConfigError names the file."""
    try:
        return parse_config(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
