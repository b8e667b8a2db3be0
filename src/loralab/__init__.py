"""loralab: LoRA and CondLoRA adapter training plus weight-space analysis."""

__version__ = "0.1.0"

from .adapters import AdapterParams, AdapterSpec
from .model import BaseWeights, ModelConfig, build_model
from .trainer import TrainConfig, TrainReport

__all__ = [
    "AdapterParams",
    "AdapterSpec",
    "BaseWeights",
    "ModelConfig",
    "TrainConfig",
    "TrainReport",
    "build_model",
    "__version__",
]
