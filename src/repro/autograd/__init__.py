"""Reverse-mode autograd engine on numpy (the neural-network substrate).

Public surface::

    from repro.autograd import Tensor, no_grad, ops
    from repro.autograd import Module, Linear, Parameter
    from repro.autograd import SGD, Adam
    from repro.autograd.functional import accuracy

``ops`` holds exactly what the layers and the examples call: ``add``,
``sub``, ``mul``, ``matmul``, ``reshape``, ``concat``, ``relu``,
``leaky_relu``, ``elu``, ``sigmoid``, ``tanh``, ``spmm``,
``gather_rows``, ``scatter_add_rows`` and ``segment_softmax``.
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled
from repro.autograd import ops
from repro.autograd.module import Module, Linear, Parameter
from repro.autograd.optim import Optimizer, SGD, Adam
from repro.autograd import init
from repro.autograd import functional

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "ops",
    "Module", "Linear", "Parameter",
    "Optimizer", "SGD", "Adam",
    "init", "functional",
]
