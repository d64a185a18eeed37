"""Model and optimizer configuration records."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Tuple

from crossaec.errors import ConfigurationError


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
        counts = {
            "model_dim": self.model_dim,
            "num_heads": self.num_heads,
            "encoder_layers": self.encoder_layers,
            "decoder_layers": self.decoder_layers,
            "feedforward_dim": self.feedforward_dim,
            "max_seq_len": self.max_seq_len,
            "vocab_size": self.vocab_size,
            "feature_dim": self.feature_dim,
        }
        for key, value in counts.items():
            if value < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {value}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigurationError(
                f"model_dim {self.model_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam hyperparameters with a weight-decay exemption list.

    Parameters whose name contains any of ``decay_exempt_names`` receive
    no weight decay (biases and normalization gains by default).
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    decay_exempt_names: Tuple[str, ...] = ("bias", "norm")

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigurationError("beta1 and beta2 must be in (0, 1)")
        if self.epsilon <= 0.0:
            raise ConfigurationError("epsilon must be > 0")
        if self.learning_rate < 0.0:
            raise ConfigurationError("learning_rate must be >= 0")

    def is_exempt(self, name: str) -> bool:
        return any(pattern in name for pattern in self.decay_exempt_names)
