"""Named parameter tensors with deterministic iteration order."""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterator, Tuple

import numpy as np

from crossaec.errors import ShapeError
from crossaec.nn.tensor import Tensor
from crossaec.util import as_array


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
        value = as_array(value, float, f"value for {name}", ShapeError).copy()
        t = Tensor(value, requires_grad=True)
        self._params[name] = t
        return t

    def items(self) -> Iterator[Tuple[str, Tensor]]:
        return iter(self._params.items())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def num_values(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        if not isinstance(state, Mapping):
            raise ShapeError(f"state must be a mapping, got {type(state).__name__}")
        if set(state) != set(self._params):
            missing = set(self._params) - set(state)
            extra = set(state) - set(self._params)
            raise ShapeError(
                f"parameter names mismatch (missing={sorted(missing)}, "
                f"unexpected={sorted(extra)})"
            )
        # Check every value before installing any: a rejected state changes nothing.
        checked = {}
        for name, value in state.items():
            t = self._params[name]
            # A copy: the caller keeps its own array.
            value = as_array(value, float, f"value for {name}", ShapeError).copy()
            if value.shape != t.data.shape:
                raise ShapeError(
                    f"shape mismatch for {name}: {value.shape} vs {t.data.shape}"
                )
            checked[name] = value
        for name, value in checked.items():
            self._params[name].data = value
