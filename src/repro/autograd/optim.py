"""Optimizers: plain SGD and Adam.

Full-graph GNN training uses *global* gradient descent — one optimizer step
per epoch over gradients accumulated from every chunk (paper §2.3). The
optimizers therefore operate on whatever is in ``param.grad`` when ``step()``
is called; the trainers are responsible for accumulating chunk gradients
there (and for all-reducing across simulated GPUs) beforehand.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Dict, Iterable, List

import numpy as np

from repro.autograd.module import Parameter
from repro.errors import ConfigurationError

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ConfigurationError("optimizer received no parameters")
        if (isinstance(lr, bool) or not isinstance(lr, Real)
                or not 0 < lr < math.inf):  # NaN fails both comparisons
            raise ConfigurationError(
                f"learning rate must be a finite number > 0, got {lr!r}")
        self.lr = lr

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Plain gradient descent: ``w -= lr * grad``."""

    def step(self) -> None:
        for param in self.params:
            if param.grad is not None:
                param.data = param.data - self.lr * param.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction, β = (0.9, 0.999), ε = 1e-8."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3):
        super().__init__(params, lr)
        self._step_count = 0
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            m = self._m.get(id(param))
            v = self._v.get(id(param))
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self._m[id(param)] = m
            self._v[id(param)] = v
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
