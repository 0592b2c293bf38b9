"""Loss functions for the downstream node-classification task.

The paper's downstream task takes the final-layer representations ``h^L``,
computes a loss against ground-truth labels on the training mask, and seeds
the backward pass with ``∇h^L`` (Algorithm 1, lines 10-11). Every trainer
takes the split path: ``∇h^L`` is a raw array computed from host-resident
final representations, without building a tape over the whole graph.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "masked_cross_entropy_value_and_grad",
    "accuracy",
    "split_accuracies",
]


def masked_cross_entropy_value_and_grad(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Loss value and d(loss)/d(logits) as plain arrays (no tape).

    This is the host-side "downstream task" of Algorithm 1: HongTu keeps
    ``h^L`` in CPU memory, computes the loss and the seed gradient ``∇h^L``
    there, and feeds the gradient back through the chunked backward pass.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.flatnonzero(np.asarray(mask))
    n = len(rows)
    grad = np.zeros_like(logits)
    if n == 0:
        return 0.0, grad

    picked = logits[rows]
    shifted = picked - picked.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logsumexp
    loss = -log_probs[np.arange(n), labels[rows]].mean()

    probs = np.exp(log_probs)
    probs[np.arange(n), labels[rows]] -= 1.0
    grad[rows] = probs / n
    return float(loss), grad


def accuracy(logits: np.ndarray, labels: np.ndarray,
             mask: Optional[np.ndarray] = None) -> float:
    """Fraction of correctly classified (masked) rows."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    predictions = logits.argmax(axis=1)
    if mask is not None:
        rows = np.flatnonzero(np.asarray(mask))
        if len(rows) == 0:
            return 0.0
        predictions = predictions[rows]
        labels = labels[rows]
    return float((predictions == labels).mean())


def split_accuracies(logits: np.ndarray, graph) -> Dict[str, float]:
    """``{split}_accuracy`` of ``logits`` on each of ``graph``'s train /
    val / test masks that is present — every trainer's ``evaluate()``."""
    return {
        f"{split}_accuracy": accuracy(logits, graph.labels, mask)
        for split in ("train", "val", "test")
        if (mask := getattr(graph, f"{split}_mask")) is not None
    }
