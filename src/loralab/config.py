"""Experiment configuration: one flat dataclass plus a line-based file format.

Files hold ``key = value`` pairs with dotted keys (``model.d_model = 32``)
and ``#`` comments. Optional fields are omitted when unset and resolved to
method- or task-appropriate defaults at use time, so
``parse_config(serialize_config(cfg)) == cfg`` for every valid config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .adapters import AdapterSpec
from .model import ModelConfig
from .tasks import build_task
from .trainer import DEFAULT_LEARNING_RATE, TrainConfig


class ConfigError(ValueError):
    """Malformed configuration file or invalid field value."""


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
    loss_kind: str | None = None
    # task
    task: str = "teacher"
    teacher_rank: int | None = None
    seq_len: int = 16
    # output and seeds
    output_dir: str = "out"
    seed_model: int = 0
    seed_adapter: int = 1
    seed_data: int = 2

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            n_layers=self.n_layers,
            d_model=self.d_model,
            n_heads=self.n_heads,
            d_ff=self.d_ff,
            vocab_size=self.vocab_size,
            max_len=self.max_len,
            n_outputs=self.n_outputs,
            seed=self.seed_model,
        )

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

    def resolved_loss_kind(self) -> str:
        if self.loss_kind is not None:
            return self.loss_kind
        return "cross_entropy" if self.task == "parity" else "mse"

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
            loss_kind=self.resolved_loss_kind(),
        )

    def make_task(self, weights):
        rank = self.rank if self.teacher_rank is None else self.teacher_rank
        return build_task(self.task, weights, self.seed_data, rank=rank, seq_len=self.seq_len)


def _parse_items(text: str) -> tuple[str, ...]:
    """Comma-separated items; an empty one is an error, never skipped."""
    items = tuple(part.strip() for part in text.split(","))
    if not all(items):
        raise ValueError(f"empty item in {text!r}")
    return items


def _parse_layers(text: str) -> tuple[int, ...]:
    return tuple(int(item) for item in _parse_items(text))


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0) or not math.isfinite(value):
        raise ValueError(f"{text!r} is not a positive finite number")
    return value


# key -> (field, parser); serialize_config formats every value with _format_value
_KEYS = {
    "model.n_layers": ("n_layers", int),
    "model.d_model": ("d_model", int),
    "model.n_heads": ("n_heads", int),
    "model.d_ff": ("d_ff", int),
    "model.vocab_size": ("vocab_size", int),
    "model.max_len": ("max_len", int),
    "model.n_outputs": ("n_outputs", int),
    "adapter.method": ("method", str),
    "adapter.rank": ("rank", int),
    "adapter.alpha": ("alpha", _positive_float),
    "adapter.target_modules": ("target_modules", _parse_items),
    "adapter.target_layers": ("target_layers", _parse_layers),
    "train.batch_size": ("batch_size", int),
    "train.learning_rate": ("learning_rate", _positive_float),
    "train.max_steps": ("max_steps", int),
    "train.loss_kind": ("loss_kind", str),
    "task": ("task", str),
    "task.teacher_rank": ("teacher_rank", int),
    "task.seq_len": ("seq_len", int),
    "output_dir": ("output_dir", str),
    "seeds.model": ("seed_model", int),
    "seeds.adapter": ("seed_adapter", int),
    "seeds.data": ("seed_data", int),
}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for key, (field_name, _) in _KEYS.items():
        value = getattr(cfg, field_name)
        if value is None:
            continue
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        field_name, parser = _KEYS[key]
        try:
            setattr(cfg, field_name, parser(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    _validate(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _validate(cfg: ExperimentConfig) -> None:
    try:
        cfg.model_config()
        cfg.adapter_spec()
        cfg.train_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.task not in ("teacher", "parity"):
        raise ConfigError(f"unknown task {cfg.task!r}")
