"""Named parameter tensors with deterministic iteration order."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from crossaec.errors import DegenerateInputError, ShapeError
from crossaec.nn.tensor import Tensor


class ParameterStore:
    """Insertion-ordered mapping name -> trainable Tensor.

    Iteration order is the construction order, which makes optimizer
    trajectories and checkpoints reproducible.
    """

    def __init__(self):
        self._params: Dict[str, Tensor] = {}

    def create(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ShapeError(f"duplicate parameter name: {name}")
        # A copy: the optimizer updates parameters in place.
        t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> Iterator[Tuple[str, Tensor]]:
        return iter(self._params.items())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def num_values(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        if set(state) != set(self._params):
            missing = set(self._params) - set(state)
            extra = set(state) - set(self._params)
            raise ShapeError(
                f"parameter names mismatch (missing={sorted(missing)}, "
                f"unexpected={sorted(extra)})"
            )
        for name, value in state.items():
            t = self._params[name]
            try:
                value = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError):
                raise ShapeError(f"value for {name} is not numeric") from None
            if value.shape != t.data.shape:
                raise ShapeError(
                    f"shape mismatch for {name}: {value.shape} vs {t.data.shape}"
                )
            if not np.isfinite(value).all():
                raise DegenerateInputError(f"non-finite value for {name}")
            t.data = value.copy()
