"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from crossaec.nn.params import ParameterStore
from crossaec.nn.tensor import Tensor

# Coordinates checked per tensor, the central-difference step, and the seed
# that picks the coordinates.
COORDS_PER_TENSOR = 20
STEP = 1e-5
SEED = 0


def gradient_check(loss_fn: Callable[[], Tensor], store: ParameterStore) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must be a pure function of the store's current values.
    For each tensor, 20 coordinates (all of them for small tensors) are
    perturbed by ±1e-5. The relative error for a coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    store.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in store.items()
    }

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for name, param in store.items():
        flat = param.data.reshape(-1)
        n = flat.size
        if n <= COORDS_PER_TENSOR:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=COORDS_PER_TENSOR, replace=False)
        grad_flat = analytic[name].reshape(-1)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + STEP
            up = float(loss_fn().data)
            flat[idx] = original - STEP
            down = float(loss_fn().data)
            flat[idx] = original
            numeric = (up - down) / (2.0 * STEP)
            a = float(grad_flat[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
