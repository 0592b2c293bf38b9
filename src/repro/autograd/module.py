"""Lightweight Module/Parameter containers (a deliberate PyTorch subset).

A :class:`Parameter` is just a Tensor with ``requires_grad=True`` and a
stable name. A :class:`Module` collects parameters from its attributes and
sub-modules, providing ``parameters()`` / ``named_parameters()`` /
``state_dict()`` traversal — enough for optimizers, parameter all-reduce
across simulated GPUs, and comparing trained weights.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = ["Parameter", "Module", "Linear"]


class Parameter(Tensor):
    """A trainable tensor."""

    def __init__(self, data, name: str = ""):
        super().__init__(np.asarray(data), requires_grad=True, name=name)


class Module:
    """Base class for neural-network building blocks."""

    # -- traversal ------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield (dotted_name, parameter) for this module and children."""
        for attr, value in vars(self).items():
            full = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> List[Parameter]:
        """All trainable parameters, in deterministic traversal order."""
        return [p for _, p in self.named_parameters()]

    # -- state management -------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def parameter_nbytes(self) -> int:
        """Total parameter payload in bytes (for the memory model)."""
        return sum(p.nbytes() for p in self.parameters())

    # -- call protocol ------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine transform ``x @ W + b``, optionally followed by a ReLU.

    Weight shape is (in_features, out_features) so the forward is a plain
    right-multiplication, matching the paper's ``a × W`` notation (§2.3).
    The map and its activation are one tape node
    (:func:`repro.autograd.ops.linear`).
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True,
                 dtype=np.float64):
        super().__init__()
        from repro.autograd.init import xavier_uniform, zeros

        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            xavier_uniform((in_features, out_features), rng, dtype=dtype),
            name="weight",
        )
        self.bias = Parameter(zeros((out_features,), dtype=dtype), name="bias") if bias else None

    def forward(self, x: Tensor, activation: Optional[str] = None) -> Tensor:
        from repro.autograd import ops

        return ops.linear(x, self.weight, self.bias, activation)
