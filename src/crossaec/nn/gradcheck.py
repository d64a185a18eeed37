"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from crossaec.nn.params import ParameterStore
from crossaec.nn.tensor import Tensor

# The step of the central differences. The whole corrector's loss has
# gradients below 1e-7, whose differences at a smaller step are mostly
# rounding, and ReLU kinks that a larger step crosses. At this step a
# two-point difference lets curvature in; the fourth-order one cancels it.
STEP = 1e-4


def gradient_check(loss_fn: Callable[[], Tensor], store: ParameterStore) -> float:
    """Max relative error between analytic and finite-difference gradients.

    ``loss_fn`` must be a pure function of the store's current values.
    Every coordinate of every tensor is perturbed by ±``STEP`` and
    ±2·``STEP``, and the fourth-order central difference of the four losses
    is its numeric gradient. The relative error for a coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    The store's tensors keep the analytic gradients afterwards.
    """
    store.zero_grad()
    loss_fn().backward()
    worst = 0.0
    for _, param in store.items():
        flat = param.data.reshape(-1)
        grad = param.grad.reshape(-1) if param.grad is not None else np.zeros(flat.size)
        for idx in range(flat.size):
            original = flat[idx]
            losses = []
            for offset in (STEP, -STEP, 2.0 * STEP, -2.0 * STEP):
                flat[idx] = original + offset
                losses.append(float(loss_fn().data))
            flat[idx] = original
            up, down, up2, down2 = losses
            numeric = (8.0 * (up - down) - (up2 - down2)) / (12.0 * STEP)
            a = float(grad[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
