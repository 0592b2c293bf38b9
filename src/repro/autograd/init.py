"""Parameter initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so that every
trainer in the reproduction can be seeded deterministically — the gradient
equivalence tests (HongTu vs monolithic) depend on both trainers starting
from identical parameters.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["xavier_uniform", "zeros"]


def xavier_uniform(shape: tuple, rng: np.random.Generator,
                   dtype=np.float64) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def zeros(shape: tuple, dtype=np.float64) -> np.ndarray:
    """Zero initialization (biases)."""
    return np.zeros(shape, dtype=dtype)


def _fans(shape: tuple) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
