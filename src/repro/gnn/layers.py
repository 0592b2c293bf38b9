"""GNN layers in the AGGREGATE/UPDATE decomposition of the paper (§2.2).

Every layer implements

* ``aggregate(block, h)``      — collect neighbor representations per
  destination from the block's input rows;
* ``update(block, agg, h_dst)`` — combine the aggregate with the
  destinations' own previous representations and the layer parameters;
* ``forward(block, h)``         — ``update(block, aggregate(block, h),
  h[dst_pos])``.

The split signature is what enables the recomputation-caching-hybrid of
§4.2: for *cacheable* layers the backward pass reconstructs the UPDATE from
the host-cached aggregate plus only the destinations' own rows — no reload
of the O(α|V|) neighbor set — and propagates the neighbor gradient through
the closed-form :meth:`GNNLayer.aggregate_backward` adjoint.

``cacheable_aggregate`` is True for GCN, GraphSAGE, GIN and CommNet (their
AGGREGATE is linear in ``h`` with constant coefficients) and False for GAT
(parameterized per-edge attention with O(|E|) intermediates — cheaper to
recompute than to cache, Fig. 4 b).

Flop accounting is split into :meth:`aggregate_flops` / :meth:`update_flops`
so the simulated clock can price the hybrid backward (recompute UPDATE only)
differently from the full recompute backward.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Linear, Module, Parameter, Tensor, init, ops
from repro.errors import require_count
from repro.gnn.block import Block

__all__ = [
    "GNNLayer", "GCNLayer", "GraphSAGELayer", "GINLayer",
    "CommNetLayer", "GATLayer",
]


class GNNLayer(Module):
    """Common interface for aggregate-update GNN layers."""

    #: whether the AGGREGATE output may be cached instead of recomputed
    cacheable_aggregate: bool = False
    #: whether UPDATE reads the destinations' own previous representations
    update_uses_self: bool = False

    def __init__(self, in_dim: int, out_dim: int):
        require_count("in_dim", in_dim, 1)
        require_count("out_dim", out_dim, 1)
        self.in_dim = in_dim
        self.out_dim = out_dim

    # -- computation ------------------------------------------------------
    def aggregate(self, block: Block, h: Tensor) -> Tensor:
        raise NotImplementedError

    def update(self, block: Block, agg: Tensor, h_dst: Tensor) -> Tensor:
        raise NotImplementedError

    def forward(self, block: Block, h: Tensor) -> Tensor:
        h_dst = ops.gather_rows(h, block.dst_pos) if self.update_uses_self else h
        return self.update(block, self.aggregate(block, h), h_dst)

    def aggregate_backward(self, block: Block, grad_agg: np.ndarray) -> np.ndarray:
        """Adjoint of the (cacheable, linear) aggregate: ∇h from ∇agg.

        Only valid when ``cacheable_aggregate`` is True.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-form aggregate adjoint"
        )

    # -- cost accounting (used by the simulated clock) ---------------------
    def aggregate_flops(self, num_src: int, num_dst: int, num_edges: int) -> int:
        """Flops of one AGGREGATE pass."""
        raise NotImplementedError

    def update_flops(self, num_dst: int) -> int:
        """Flops of one UPDATE pass."""
        raise NotImplementedError

    def forward_flops(self, num_src: int, num_dst: int, num_edges: int) -> int:
        return (self.aggregate_flops(num_src, num_dst, num_edges)
                + self.update_flops(num_dst))

    def aggregate_dim(self) -> int:
        """Width of the aggregate tensor (for cache-volume accounting)."""
        return self.in_dim

    def forward_workspace_scalars(self, num_src: int, num_dst: int,
                                  num_edges: int) -> int:
        """Transient scalars resident during one chunk-layer forward.

        This models the paper's CUDA implementation: cuSparse SpMM does not
        materialize per-edge messages for linear aggregates, and neither
        does the numpy path (:func:`repro.autograd.ops.spmm` over the
        block's operator). Layers with a per-edge path (GAT, GGNN) override
        it. The simulated memory pools charge these analytic sizes.
        """
        return num_dst * (self.aggregate_dim() + self.out_dim)


def _inverse_degrees(block: Block, dtype) -> np.ndarray:
    """(num_dst, 1) column of 1/in-degree (1 for isolated destinations)."""
    inv_deg = 1.0 / np.maximum(block.in_degrees(), 1)
    return inv_deg.astype(dtype, copy=False).reshape(-1, 1)


def _mean_aggregate(block: Block, h: Tensor) -> Tensor:
    """Degree-normalized mean: neighbor sum, then scale by 1/deg."""
    total = ops.spmm(block.operator(h.dtype, weighted=False), h,
                     block.adjoint(h.dtype, weighted=False))
    return ops.mul(total, Tensor(_inverse_degrees(block, h.dtype)))


def _mean_aggregate_backward(block: Block, grad_agg: np.ndarray) -> np.ndarray:
    """Shared adjoint for degree-normalized mean aggregation."""
    dtype = grad_agg.dtype
    scaled = grad_agg * _inverse_degrees(block, dtype)
    return block.adjoint(dtype, weighted=False) @ scaled


class GCNLayer(GNNLayer):
    """Graph convolution (Eq. 2): h' = σ(W ⊗ Σ_u d_uv h_u).

    The aggregate is a weighted neighbor sum with constant normalization
    d_uv, hence cacheable. ``activation=None`` makes the last layer emit raw
    logits.
    """

    cacheable_aggregate = True
    update_uses_self = False

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 activation: Optional[str] = "relu", dtype=np.float64):
        super().__init__(in_dim, out_dim)
        self.linear = Linear(in_dim, out_dim, rng, dtype=dtype)
        self.activation = activation

    def aggregate(self, block: Block, h: Tensor) -> Tensor:
        return ops.spmm(block.operator(h.dtype), h, block.adjoint(h.dtype))

    def update(self, block: Block, agg: Tensor, h_dst: Tensor) -> Tensor:
        return self.linear(agg, self.activation)

    def aggregate_backward(self, block: Block, grad_agg: np.ndarray) -> np.ndarray:
        return block.adjoint(grad_agg.dtype) @ grad_agg

    def aggregate_flops(self, num_src: int, num_dst: int, num_edges: int) -> int:
        return 2 * num_edges * self.in_dim

    def update_flops(self, num_dst: int) -> int:
        return 2 * num_dst * self.in_dim * self.out_dim


class GraphSAGELayer(GNNLayer):
    """GraphSAGE-mean: h' = σ([h_v ‖ mean_u h_u] W)."""

    cacheable_aggregate = True
    update_uses_self = True

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 activation: Optional[str] = "relu", dtype=np.float64):
        super().__init__(in_dim, out_dim)
        self.linear = Linear(2 * in_dim, out_dim, rng, dtype=dtype)
        self.activation = activation

    def aggregate(self, block: Block, h: Tensor) -> Tensor:
        return _mean_aggregate(block, h)

    def update(self, block: Block, agg: Tensor, h_dst: Tensor) -> Tensor:
        return self.linear(ops.concat([h_dst, agg], axis=1), self.activation)

    def aggregate_backward(self, block: Block, grad_agg: np.ndarray) -> np.ndarray:
        return _mean_aggregate_backward(block, grad_agg)

    def aggregate_flops(self, num_src: int, num_dst: int, num_edges: int) -> int:
        return 2 * num_edges * self.in_dim + num_dst * self.in_dim

    def update_flops(self, num_dst: int) -> int:
        return 2 * num_dst * 2 * self.in_dim * self.out_dim


class GINLayer(GNNLayer):
    """Graph isomorphism network: h' = MLP((1+ε) h_v + Σ_u h_u).

    The two-layer MLP is ``out_dim`` wide throughout."""

    cacheable_aggregate = True
    update_uses_self = True

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 activation: Optional[str] = "relu", dtype=np.float64):
        super().__init__(in_dim, out_dim)
        self.mlp1 = Linear(in_dim, out_dim, rng, dtype=dtype)
        self.mlp2 = Linear(out_dim, out_dim, rng, dtype=dtype)
        self.epsilon = Parameter(np.zeros(1, dtype=dtype), name="epsilon")
        self.activation = activation

    def aggregate(self, block: Block, h: Tensor) -> Tensor:
        return ops.spmm(block.operator(h.dtype, weighted=False), h,
                        block.adjoint(h.dtype, weighted=False))

    def update(self, block: Block, agg: Tensor, h_dst: Tensor) -> Tensor:
        one_plus_eps = ops.add(self.epsilon, Tensor(np.ones(1)))
        combined = ops.add(ops.mul(h_dst, one_plus_eps), agg)
        return self.mlp2(self.mlp1(combined, "relu"), self.activation)

    def aggregate_backward(self, block: Block, grad_agg: np.ndarray) -> np.ndarray:
        return block.adjoint(grad_agg.dtype, weighted=False) @ grad_agg

    def aggregate_flops(self, num_src: int, num_dst: int, num_edges: int) -> int:
        return 2 * num_edges * self.in_dim

    def update_flops(self, num_dst: int) -> int:
        return 2 * num_dst * (self.in_dim * self.out_dim
                              + self.out_dim * self.out_dim)


class CommNetLayer(GNNLayer):
    """CommNet: h' = σ(h_v H + mean_u(h_u) C)."""

    cacheable_aggregate = True
    update_uses_self = True

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 activation: Optional[str] = "relu", dtype=np.float64):
        super().__init__(in_dim, out_dim)
        self.self_linear = Linear(in_dim, out_dim, rng, dtype=dtype)
        self.comm_linear = Linear(in_dim, out_dim, rng, bias=False, dtype=dtype)
        self.activation = activation

    def aggregate(self, block: Block, h: Tensor) -> Tensor:
        return _mean_aggregate(block, h)

    def update(self, block: Block, agg: Tensor, h_dst: Tensor) -> Tensor:
        out = ops.add(self.self_linear(h_dst), self.comm_linear(agg))
        if self.activation == "relu":
            out = ops.relu(out)
        return out

    def aggregate_backward(self, block: Block, grad_agg: np.ndarray) -> np.ndarray:
        return _mean_aggregate_backward(block, grad_agg)

    def aggregate_flops(self, num_src: int, num_dst: int, num_edges: int) -> int:
        return 2 * num_edges * self.in_dim + num_dst * self.in_dim

    def update_flops(self, num_dst: int) -> int:
        return 4 * num_dst * self.in_dim * self.out_dim


class GATLayer(GNNLayer):
    """Graph attention (Eq. 3), one head.

    The per-edge attention path — LeakyReLU(0.2) of aᵀ[W h_v ‖ W h_u]
    followed by a neighbor-oriented softmax — creates O(|E|)-sized
    parameterized intermediates, so the aggregate is *not* cacheable:
    HongTu recomputes the whole layer in the backward pass from the
    (re-gathered) input (Fig. 4 b). It is also the workload that requires
    full-neighbor chunks: the softmax normalizes over a destination's
    entire in-neighbor set.
    """

    cacheable_aggregate = False
    update_uses_self = False

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 activation: Optional[str] = "elu", dtype=np.float64):
        super().__init__(in_dim, out_dim)
        self.activation = activation
        self.weight = Parameter(
            init.xavier_uniform((in_dim, out_dim), rng, dtype=dtype),
            name="weight",
        )
        # Attention vector a = [a_dst ; a_src], one (1, out_dim) row each.
        self.attn_dst = Parameter(
            init.xavier_uniform((1, out_dim), rng, dtype=dtype),
            name="attn_dst",
        )
        self.attn_src = Parameter(
            init.xavier_uniform((1, out_dim), rng, dtype=dtype),
            name="attn_src",
        )

    def aggregate(self, block: Block, h: Tensor) -> Tensor:
        """Attention-weighted neighbor sum; returns (num_dst, out_dim)."""
        wh = ops.matmul(h, self.weight)  # (num_src, out_dim)
        column = (self.out_dim, 1)
        score_dst = ops.matmul(wh, ops.reshape(self.attn_dst, column))
        score_src = ops.matmul(wh, ops.reshape(self.attn_src, column))
        edge_score = ops.add(
            ops.gather_rows(score_dst, block.dst_pos[block.edge_dst]),
            ops.gather_rows(score_src, block.edge_src),
        )
        alpha = ops.segment_softmax(
            ops.reshape(ops.leaky_relu(edge_score), (block.num_edges,)),
            block.edge_dst, block.num_dst,
        )
        messages = ops.mul(
            ops.gather_rows(wh, block.edge_src),
            ops.reshape(alpha, (block.num_edges, 1)),
        )
        return ops.scatter_add_rows(messages, block.edge_dst, block.num_dst)

    def update(self, block: Block, agg: Tensor, h_dst: Tensor) -> Tensor:
        if self.activation == "elu":
            return ops.elu(agg)
        if self.activation == "relu":
            return ops.relu(agg)
        return agg

    def aggregate_flops(self, num_src: int, num_dst: int, num_edges: int) -> int:
        projection = 2 * num_src * self.in_dim * self.out_dim
        scores = 4 * num_src * self.out_dim + 2 * num_edges
        softmax = 6 * num_edges
        weighted_sum = 3 * num_edges * self.out_dim
        return projection + scores + softmax + weighted_sum

    def update_flops(self, num_dst: int) -> int:
        return num_dst * self.out_dim  # pointwise activation

    def aggregate_dim(self) -> int:
        return self.out_dim

    def forward_workspace_scalars(self, num_src: int, num_dst: int,
                                  num_edges: int) -> int:
        # Wh projection + per-edge scores and attention coefficients +
        # per-edge weighted messages + output.
        return (num_src * self.out_dim
                + 3 * num_edges
                + num_edges * self.out_dim
                + num_dst * self.out_dim)
