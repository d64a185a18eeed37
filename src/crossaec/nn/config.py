"""Model and optimizer configuration records."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from crossaec.errors import ConfigurationError
from crossaec.util import as_count, as_number


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the corrector. Defaults are the desk-scale model."""

    model_dim: int = 64
    num_heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    feedforward_dim: int = 128
    max_seq_len: int = 48
    vocab_size: int = 4
    seed: int = 0
    feature_dim: int = 16

    def __post_init__(self):
        for f in fields(self):
            floor = 0 if f.name == "seed" else 1  # numpy takes no negative seed
            value = as_count(getattr(self, f.name), f.name, ConfigurationError, floor)
            object.__setattr__(self, f.name, value)
        if self.model_dim % self.num_heads != 0:
            raise ConfigurationError(
                f"model_dim {self.model_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(f"ModelConfig must be a JSON object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown ModelConfig keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam's learning rate. The moment decays and epsilon are the fixed
    ``BETA1``, ``BETA2`` and ``EPSILON`` of ``crossaec.nn.optim``."""

    learning_rate: float = 1e-3

    def __post_init__(self):
        lr = self.learning_rate
        rate = as_number(lr, float)
        if rate is None or not (math.isfinite(rate) and rate >= 0):
            raise ConfigurationError(f"learning_rate must be in [0, inf), got {lr!r}")
        object.__setattr__(self, "learning_rate", rate)
