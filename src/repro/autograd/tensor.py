"""A small reverse-mode automatic differentiation engine on numpy.

This is the neural-network substrate of the reproduction: the paper's
computation engine is PyTorch + cuSparse; here every differentiable value is a
:class:`Tensor` holding a ``numpy.ndarray`` plus a closure that propagates the
adjoint to its parents. The engine supports exactly what GNN training needs —
dense linear algebra, pointwise nonlinearities, gather/scatter along edges and
segment softmax — and is deliberately free of magic: one class, an explicit
tape, topological backward.

Design notes
------------
* Gradients are accumulated (``+=``) so that a tensor consumed by several ops
  (e.g. a representation used by both the attention score and the message)
  receives the sum of the partial adjoints, exactly like PyTorch.
* ``no_grad`` disables tape construction. The HongTu trainer uses it for the
  memory-saving first forward pass (intermediate data are *not* retained) and
  rebuilds the tape only during backward-pass recomputation, which is the
  recomputation strategy of Chen et al. [5] that the paper adopts.
* No operator overloads: every layer and loss calls
  :mod:`repro.autograd.ops` by name.
* dtype defaults to float64 so gradient-equivalence tests can use tight
  tolerances; training code may choose float32 to mirror GPU arithmetic.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.errors import AutogradError

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape construction.

    Inside the context, every new :class:`Tensor` produced by an op is a leaf
    with ``requires_grad=False``; nothing references the inputs, so the
    intermediate buffers are freed as soon as they go out of scope. This is
    what makes recomputation-based training actually save memory.
    """
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def is_grad_enabled() -> bool:
    """Return whether ops currently record onto the autograd tape."""
    return _GRAD_ENABLED[-1]


class Tensor:
    """A numpy array with an optional gradient and backward closure.

    Parameters
    ----------
    data:
        Array (or array-like) payload. Copied only if conversion requires it.
    requires_grad:
        Whether backward should compute a gradient for this tensor.
    parents:
        Tensors this value was computed from (tape edges).
    backward_fn:
        Closure invoked with the output adjoint; must call
        :meth:`Tensor.accumulate_grad` on each parent that requires grad.
    name:
        Optional label used in error messages and tape dumps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = np.asarray(data)
        # Integer payloads (vertex ids, masks) are fine as constants but
        # can never require grad.
        if self.data.dtype.kind not in "fc" and requires_grad:
            raise AutogradError(
                f"cannot require grad for non-float dtype {self.data.dtype}"
            )
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = tuple(parents) if self.requires_grad else ()
        self._backward_fn = backward_fn if self.requires_grad else None
        self.name = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def as_tensor(value, dtype=None) -> "Tensor":
        """Wrap ``value`` in a Tensor if it is not one already."""
        if isinstance(value, Tensor):
            return value
        arr = np.asarray(value, dtype=dtype)
        return Tensor(arr)

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
        name: str = "",
    ) -> "Tensor":
        """Create the output tensor of an op, respecting ``no_grad``."""
        needs = is_grad_enabled() and any(p.requires_grad for p in parents)
        return Tensor(
            data,
            requires_grad=needs,
            parents=[p for p in parents if p.requires_grad] if needs else (),
            backward_fn=backward_fn if needs else None,
            name=name,
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def nbytes(self) -> int:
        """Payload size in bytes (used by the simulated memory pools)."""
        return int(self.data.nbytes)

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if not self.requires_grad:
            return
        if grad.shape != self.data.shape:
            raise AutogradError(
                f"gradient shape {grad.shape} does not match tensor shape "
                f"{self.data.shape} for tensor {self.name or '<unnamed>'}"
            )
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Adjoint of this tensor. Defaults to 1 for scalars (the loss).
        """
        if not self.requires_grad:
            raise AutogradError("called backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise AutogradError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        self.accumulate_grad(np.asarray(grad, dtype=self.data.dtype))

        for node in self._topological_order():
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def _topological_order(self) -> Iterable["Tensor"]:
        """Tensors reachable from self, outputs before inputs (iterative)."""
        order: list[Tensor] = []
        visited: set[int] = set()
        # Iterative DFS with an explicit stack: full-graph models stack many
        # layers over many chunks and recursion would overflow.
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return reversed(order)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag}{label})"
