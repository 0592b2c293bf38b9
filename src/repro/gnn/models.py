"""Stacked GNN models and a model factory.

A :class:`GNNModel` is a list of layers with matching dims; its ``forward``
runs the whole stack over one block (monolithic execution). Chunked trainers
instead drive the layers one at a time — the model is just the layer
container plus shared bookkeeping (dims, flop model, memory model inputs).

``build_model("gcn", [F, 128, 128, C], rng)`` mirrors the paper's model
configs, e.g. Table 1's ``256-128-128-64`` is ``dims=[256, 128, 128, 64]``
(3 layers).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import Module, Tensor
from repro.errors import ConfigurationError
from repro.gnn.block import Block
from repro.gnn.extensions import GGNNLayer
from repro.gnn.layers import (
    CommNetLayer,
    GATLayer,
    GCNLayer,
    GINLayer,
    GNNLayer,
    GraphSAGELayer,
)

__all__ = ["GNNModel", "build_model", "MODEL_REGISTRY"]


class GNNModel(Module):
    """A stack of aggregate-update layers."""

    def __init__(self, layers: Sequence[GNNLayer], arch: str = "custom"):
        super().__init__()
        if not layers:
            raise ConfigurationError("model needs at least one layer")
        for upper, lower in zip(layers[1:], layers[:-1]):
            if upper.in_dim != lower.out_dim:
                raise ConfigurationError(
                    f"layer dim mismatch: {lower.out_dim} -> {upper.in_dim}"
                )
        self.layers: List[GNNLayer] = list(layers)
        self.arch = arch

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def dtype(self) -> np.dtype:
        """The one floating dtype of the model's parameters — the dtype
        every trainer computes in. Parameters of mixed, non-floating or
        no dtype raise :class:`~repro.errors.ConfigurationError` naming
        the dtypes found."""
        found = sorted({p.data.dtype.name for p in self.parameters()})
        if len(found) != 1 or np.dtype(found[0]).kind != "f":
            raise ConfigurationError(
                f"a trainer computes in its model's dtype, so the model's "
                f"parameters must share one floating dtype; found {found}"
            )
        return np.dtype(found[0])

    @property
    def dims(self) -> List[int]:
        """[input_dim, hidden..., output_dim]."""
        return [self.layers[0].in_dim] + [layer.out_dim for layer in self.layers]

    def forward(self, block: Block, h: Tensor) -> Tensor:
        """Monolithic forward over one block covering the whole graph."""
        for layer in self.layers:
            h = layer(block, h)
        return h

    def forward_flops(self, num_src: int, num_dst: int, num_edges: int) -> int:
        """Total forward flops of the stack over one block."""
        return sum(
            layer.forward_flops(num_src, num_dst, num_edges)
            for layer in self.layers
        )

    def __repr__(self) -> str:
        return f"GNNModel(arch={self.arch!r}, dims={self.dims})"


MODEL_REGISTRY = {
    "gcn": GCNLayer,
    "gat": GATLayer,
    "graphsage": GraphSAGELayer,
    "gin": GINLayer,
    "commnet": CommNetLayer,
    "ggnn": GGNNLayer,
}


def build_model(arch: str, dims: Sequence[int], rng: np.random.Generator,
                dtype=np.float64) -> GNNModel:
    """Build a model of ``len(dims) - 1`` layers of architecture ``arch``.

    The final layer emits raw logits (no activation), as usual for node
    classification.
    """
    arch = arch.lower()
    if arch not in MODEL_REGISTRY:
        raise ConfigurationError(
            f"unknown architecture {arch!r}; known: {sorted(MODEL_REGISTRY)}"
        )
    if len(dims) < 2:
        raise ConfigurationError(f"dims needs >= 2 entries, got {list(dims)}")

    layer_cls = MODEL_REGISTRY[arch]
    layers: List[GNNLayer] = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        is_last = i == len(dims) - 2
        activation = None if is_last else _default_activation(arch)
        layers.append(layer_cls(d_in, d_out, rng, activation=activation,
                                dtype=dtype))
    return GNNModel(layers, arch=arch)


def _default_activation(arch: str) -> Optional[str]:
    if arch == "gat":
        return "elu"
    if arch == "ggnn":
        return None  # the GRU gate bounds the output; no extra activation
    return "relu"
