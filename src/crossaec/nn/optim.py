"""Bias-corrected Adam with fixed moment decays ``BETA1``, ``BETA2`` and
denominator offset ``EPSILON``; only the learning rate is configured."""

from __future__ import annotations

from typing import Dict

import numpy as np

from crossaec.nn.config import OptimizerConfig
from crossaec.nn.params import ParameterStore

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class AdamOptimizer:
    """Adam state (first/second moments) bound to one ParameterStore."""

    def __init__(self, store: ParameterStore, config: OptimizerConfig):
        self.store = store
        self.config = config
        self.step_count = 0
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}

    def step(self) -> None:
        """Apply one update from the gradients currently in the store.

        Parameters with no gradient are left untouched.
        """
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - BETA1**t
        bias2 = 1.0 - BETA2**t
        for name, param in self.store.items():
            if param.grad is None:
                continue
            g = param.grad
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(param.data)
                self._m[name] = m
                self._v[name] = np.zeros_like(param.data)
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            # In place, in the order (m / bias1) / (sqrt(v / bias2) + eps).
            update = m / bias1
            denom = v / bias2
            np.sqrt(denom, out=denom)
            denom += EPSILON
            update /= denom
            update *= self.config.learning_rate
            param.data -= update

