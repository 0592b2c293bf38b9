"""Differentiable operations for the autograd engine.

Each op computes a numpy result eagerly and registers a vector-Jacobian
product (VJP) closure on the output tensor. The op set is what the GNN
layers and the examples call:

* dense ops — ``add``, ``sub``, ``mul``, ``matmul``, ``linear`` (an
  affine map and an optional ReLU as one node), ``reshape``,
  ``concat``; activations ``relu``, ``leaky_relu``, ``elu``,
  ``sigmoid``, ``tanh``;
* irregular ops — ``spmm`` (a linear AGGREGATE as one sparse product),
  ``gather_rows`` (neighbor lookup), ``scatter_add_rows`` (gradient
  accumulation along out-edges) and ``segment_softmax``
  (GAT's per-destination edge softmax).

Broadcasting follows numpy semantics; :func:`_unbroadcast` reduces an output
adjoint back to an input's shape. A multi-parent op computes a parent's VJP
only when that parent ``requires_grad`` (PyTorch's ``needs_input_grad``): a
constant operand — the input features of layer 0 — costs no adjoint
product. A single-parent op of a constant gets no backward at all
(:meth:`Tensor.from_op`).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from repro.autograd.tensor import Tensor
from repro.errors import AutogradError

__all__ = [
    "add", "sub", "mul", "matmul", "linear", "reshape", "concat",
    "relu", "leaky_relu", "elu", "sigmoid", "tanh",
    "spmm", "gather_rows", "scatter_add_rows", "segment_softmax",
]

#: slope of :func:`leaky_relu` below zero
LEAKY_SLOPE = 0.2


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the input.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = Tensor.as_tensor(a), Tensor.as_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad, b.shape))

    return Tensor.from_op(out_data, (a, b), backward, name="add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = Tensor.as_tensor(a), Tensor.as_tensor(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-grad, b.shape))

    return Tensor.from_op(out_data, (a, b), backward, name="sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = Tensor.as_tensor(a), Tensor.as_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad * a.data, b.shape))

    return Tensor.from_op(out_data, (a, b), backward, name="mul")


# ----------------------------------------------------------------------
# linear algebra
# ----------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b`` for 2-D operands."""
    a, b = Tensor.as_tensor(a), Tensor.as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise AutogradError(
            f"matmul expects 2-D operands, got {a.shape} @ {b.shape}"
        )
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ grad)

    return Tensor.from_op(out_data, (a, b), backward, name="matmul")


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           activation: Optional[str] = None) -> Tensor:
    """``act(x @ weight + bias)`` as one tape node (PyTorch's ``addmm``).

    ``activation`` is None or ``"relu"``. The result and the gradients
    are those of ``relu(add(matmul(x, weight), bias))`` to the bit: the
    bias add and the mask act in place on the fresh product, and the VJP
    runs the three ops' expressions in their order, with one closure and
    none of their intermediate tensors on the tape. ``bias`` has
    ``weight``'s dtype (as :class:`~repro.autograd.module.Linear` makes
    it), so adding it in place never narrows it.
    """
    x = Tensor.as_tensor(x)
    if x.ndim != 2 or weight.ndim != 2:
        raise AutogradError(
            f"linear expects 2-D operands, got {x.shape} @ {weight.shape}"
        )
    if bias is not None and (bias.shape != weight.shape[1:]
                             or bias.dtype != weight.dtype):
        raise AutogradError(
            f"linear bias must be {weight.shape[1:]} {weight.dtype}, got "
            f"{bias.shape} {bias.dtype}"
        )
    if activation not in (None, "relu"):
        raise AutogradError(f"linear has no activation {activation!r}")
    out_data = x.data @ weight.data
    if bias is not None:
        out_data += bias.data
    mask = None
    if activation == "relu":
        mask = out_data > 0
        out_data *= mask

    def backward(grad: np.ndarray) -> None:
        if mask is not None:
            grad = grad * mask
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=0))
        if x.requires_grad:
            x.accumulate_grad(grad @ weight.data.T)
        if weight.requires_grad:
            weight.accumulate_grad(x.data.T @ grad)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(out_data, parents, backward, name="linear")


def reshape(a: Tensor, shape: tuple) -> Tensor:
    a = Tensor.as_tensor(a)
    in_shape = a.shape

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad.reshape(in_shape))

    return Tensor.from_op(a.data.reshape(shape), (a,), backward, name="reshape")


# ----------------------------------------------------------------------
# activations
# ----------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    a = Tensor.as_tensor(a)
    mask = a.data > 0

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * mask)

    return Tensor.from_op(a.data * mask, (a,), backward, name="relu")


def leaky_relu(a: Tensor) -> Tensor:
    """LeakyReLU with slope :data:`LEAKY_SLOPE` below zero (GAT's)."""
    a = Tensor.as_tensor(a)
    # the scale in the input's own dtype: a float32 input stays float32
    scale = np.where(a.data > 0, 1.0, LEAKY_SLOPE).astype(a.data.dtype)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * scale)

    return Tensor.from_op(a.data * scale, (a,), backward, name="leaky_relu")


def elu(a: Tensor) -> Tensor:
    """ELU with alpha 1: ``exp(x) - 1`` below zero."""
    a = Tensor.as_tensor(a)
    mask = a.data > 0
    exp_part = np.exp(np.minimum(a.data, 0.0)) - 1.0
    out_data = np.where(mask, a.data, exp_part)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * np.where(mask, 1.0, exp_part + 1.0))

    return Tensor.from_op(out_data, (a,), backward, name="elu")


def sigmoid(a: Tensor) -> Tensor:
    a = Tensor.as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * out_data * (1.0 - out_data))

    return Tensor.from_op(out_data, (a,), backward, name="sigmoid")


def tanh(a: Tensor) -> Tensor:
    a = Tensor.as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * (1.0 - out_data * out_data))

    return Tensor.from_op(out_data, (a,), backward, name="tanh")


# ----------------------------------------------------------------------
# shape manipulation
# ----------------------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [Tensor.as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not tensor.requires_grad:
                continue
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor.accumulate_grad(grad[tuple(index)])

    return Tensor.from_op(out_data, tensors, backward, name="concat")


# ----------------------------------------------------------------------
# irregular (graph) ops
# ----------------------------------------------------------------------

def spmm(matrix: sparse.spmatrix, h: Tensor,
         adjoint: Optional[sparse.spmatrix] = None) -> Tensor:
    """Sparse-dense product ``matrix @ h`` with a constant sparse operand.

    A linear AGGREGATE is this one product over the block's operator
    (:meth:`repro.gnn.block.Block.operator`); the VJP is the product with
    the transpose, which for a CSR matrix is the CSC view of the same
    arrays — ``adjoint`` when the caller holds it already (the block
    caches one beside the operator), else ``matrix.T`` built at backward.
    No per-edge message tensor exists in either direction.
    """
    h = Tensor.as_tensor(h)
    if h.ndim != 2 or matrix.shape[1] != h.shape[0]:
        raise AutogradError(
            f"spmm expects {matrix.shape} @ (n, dim), got {h.shape}"
        )
    if adjoint is not None and adjoint.shape != matrix.shape[::-1]:
        raise AutogradError(
            f"spmm adjoint of {matrix.shape} must be {matrix.shape[::-1]}, "
            f"got {adjoint.shape}"
        )
    out_data = matrix @ h.data

    def backward(grad: np.ndarray) -> None:
        h.accumulate_grad((matrix.T if adjoint is None else adjoint) @ grad)

    return Tensor.from_op(out_data, (h,), backward, name="spmm")


def _checked_index(index: np.ndarray, num_rows: int) -> np.ndarray:
    """``index`` as int64, every entry in ``[0, num_rows)``."""
    index = np.asarray(index, dtype=np.int64)
    if len(index) and (index.min() < 0 or index.max() >= num_rows):
        raise AutogradError(f"row index out of range for {num_rows} rows")
    return index


def _scatter_add(index: np.ndarray, values: np.ndarray,
                 num_rows: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` into zeros, adding in index order.

    Rows go through the CSC incidence matrix of ``index`` (one column per
    value, built in O(len) without a sort), 1-D values through
    ``np.bincount``; both add in array order like a scalar loop would.
    ``index`` must come from :func:`_checked_index`: the sparse kernel
    does not bounds-check.
    """
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=num_rows) \
            .astype(values.dtype, copy=False)
    count = len(index)
    incidence = sparse.csc_matrix(
        (np.ones(count, dtype=values.dtype), index, np.arange(count + 1)),
        shape=(num_rows, count),
    )
    trailing = values.shape[1:]
    out = incidence @ values.reshape(count, math.prod(trailing))
    return out.reshape((num_rows,) + trailing)


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Row lookup ``a[index]`` — the edge-source gather of GNN aggregation.

    The VJP is a scatter-add: several edges may read the same source row, so
    their adjoints sum (this *is* the out-edge gradient accumulation that
    Section 4.1 of the paper relies on being associative).
    """
    a = Tensor.as_tensor(a)
    index = _checked_index(index, len(a.data))
    out_data = a.data[index]

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(_scatter_add(index, grad, len(a.data)))

    return Tensor.from_op(out_data, (a,), backward, name="gather_rows")


def scatter_add_rows(a: Tensor, index: np.ndarray, num_rows: int) -> Tensor:
    """Scatter-add rows of ``a`` into a ``(num_rows, dim)`` output.

    ``out[index[i]] += a[i]``. This is the destination-side reduction of
    message passing; the VJP is a plain gather.
    """
    a = Tensor.as_tensor(a)
    index = _checked_index(index, num_rows)
    out_data = _scatter_add(index, a.data, num_rows)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad[index])

    return Tensor.from_op(out_data, (a,), backward, name="scatter_add_rows")


def segment_softmax(scores: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Numerically-stable softmax over variable-length segments.

    ``segments[i]`` names the destination vertex of edge ``i``; the softmax is
    taken over all edges sharing a destination. This is GAT's
    neighbor-oriented softmax (Eq. 3 in the paper) and is the reason HongTu's
    chunking must keep *all* in-edges of a destination in one chunk.
    ``segments`` must be sorted (edges are destination-major in a block).
    """
    scores = Tensor.as_tensor(scores)
    segments = _checked_index(segments, num_segments)
    if scores.ndim not in (1, 2):
        raise AutogradError(
            f"segment_softmax expects 1-D or 2-D scores, got {scores.shape}"
        )
    if (segments[1:] < segments[:-1]).any():
        raise AutogradError("segment_softmax expects sorted segments")

    data = scores.data
    # Per-segment max for stability: one reduceat over the non-empty
    # segments' start offsets (reduceat misreads an empty slice).
    counts = np.bincount(segments, minlength=num_segments)
    occupied = counts > 0
    seg_max = np.full((num_segments,) + data.shape[1:], -np.inf,
                      dtype=data.dtype)
    seg_max[occupied] = np.maximum.reduceat(
        data, (np.cumsum(counts) - counts)[occupied])
    e = np.exp(data - seg_max[segments])
    out_data = e / _scatter_add(segments, e, num_segments)[segments]

    def backward(grad: np.ndarray) -> None:
        # d softmax: s * (g - sum_j s_j g_j) within each segment.
        seg_dot = _scatter_add(segments, grad * out_data, num_segments)
        scores.accumulate_grad(out_data * (grad - seg_dot[segments]))

    return Tensor.from_op(out_data, (scores,), backward, name="segment_softmax")
