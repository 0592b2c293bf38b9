"""The loss on the autograd tape — the oracle of the trainers' split loss.

Every trainer computes the downstream loss and its seed gradient ∇h^L as
plain arrays (:func:`~repro.autograd.functional.masked_cross_entropy_value_and_grad`),
never on the tape. :func:`cross_entropy` is the same mean masked
cross-entropy built from differentiable ops, so a test can check the
split path's value and gradient against the tape's backward. Its two
reductions, :func:`sum_` and :func:`log_softmax`, are ops only this
reference needs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor, ops

__all__ = ["sum_", "log_softmax", "cross_entropy"]


def sum_(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    a = Tensor.as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate_grad(np.broadcast_to(g, a.shape).astype(a.dtype))

    return Tensor.from_op(out_data, (a,), backward, name="sum")


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = Tensor.as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor.from_op(out_data, (a,), backward, name="log_softmax")


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  mask: Optional[np.ndarray] = None) -> Tensor:
    """Mean cross-entropy over the (optionally masked) rows of the
    ``(N, C)`` scores ``logits`` against the ``(N,)`` class ids."""
    labels = np.asarray(labels, dtype=np.int64)
    if mask is not None:
        rows = np.flatnonzero(np.asarray(mask))
        picked = ops.gather_rows(logits, rows)
        picked_labels = labels[rows]
    else:
        picked = logits
        picked_labels = labels
    log_probs = log_softmax(picked, axis=-1)
    n = picked.shape[0]
    onehot = np.zeros(picked.shape, dtype=log_probs.dtype)
    onehot[np.arange(n), picked_labels] = 1.0
    picked_ll = sum_(ops.mul(log_probs, Tensor(onehot)))
    return ops.mul(picked_ll, Tensor(np.asarray(-1.0 / max(n, 1))))
