"""Model and optimizer configuration records."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

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
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass, but True is not a dimension.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
            floor = 0 if f.name == "seed" else 1  # numpy takes no negative seed
            if value < floor:
                raise ConfigurationError(f"{f.name} must be >= {floor}, got {value}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigurationError(
                f"model_dim {self.model_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown ModelConfig keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam hyperparameters."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigurationError("beta1 and beta2 must be in (0, 1)")
        if self.epsilon <= 0.0:
            raise ConfigurationError("epsilon must be > 0")
        if self.learning_rate < 0.0:
            raise ConfigurationError("learning_rate must be >= 0")
