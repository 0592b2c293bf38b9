"""Additional GNN models beyond the paper's two headline workloads.

The paper's framework claims generality across the aggregate-update family
(§2.2), explicitly citing gated models (GGNN/GGCN [25, 26]) as the class
whose *parameterized aggregation* forces the pure-recomputation path.
:class:`GGNNLayer` implements that class: per-edge parameterized messages
``W_msg·h_u`` summed per destination, consumed by a GRU-style update. Its
AGGREGATE is linear in ``h`` but *not* in constants — the adjoint needs the
layer input to form ∇W_msg — so ``cacheable_aggregate`` is False and HongTu
recomputes it from the re-gathered input, exactly like GAT.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Linear, Tensor, ops
from repro.gnn.block import Block
from repro.gnn.layers import GNNLayer

__all__ = ["GGNNLayer"]


class GGNNLayer(GNNLayer):
    """Gated graph layer: h' = GRU(Σ_u W_msg h_u, P h_v).

    ``P`` projects the previous state to ``out_dim`` when the layer changes
    width (classic GGNN keeps a constant state width; stacked classifier
    configs like F→128→C need the projection).
    """

    cacheable_aggregate = False
    update_uses_self = True

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 activation: Optional[str] = None, dtype=np.float64):
        super().__init__(in_dim, out_dim)
        self.message = Linear(in_dim, out_dim, rng, bias=False, dtype=dtype)
        self.project = (Linear(in_dim, out_dim, rng, bias=False, dtype=dtype)
                        if in_dim != out_dim else None)
        # GRU gates over (message m, state h): z, r, candidate.
        self.gate_z = Linear(2 * out_dim, out_dim, rng, dtype=dtype)
        self.gate_r = Linear(2 * out_dim, out_dim, rng, dtype=dtype)
        self.candidate = Linear(2 * out_dim, out_dim, rng, dtype=dtype)
        self.activation = activation  # accepted for factory uniformity

    def aggregate(self, block: Block, h: Tensor) -> Tensor:
        projected = self.message(h)  # parameterized message per source row
        return ops.spmm(block.operator(projected.dtype), projected,
                        block.adjoint(projected.dtype))

    def update(self, block: Block, agg: Tensor, h_dst: Tensor) -> Tensor:
        state = self.project(h_dst) if self.project is not None else h_dst
        combined = ops.concat([agg, state], axis=1)
        z = ops.sigmoid(self.gate_z(combined))
        r = ops.sigmoid(self.gate_r(combined))
        candidate_in = ops.concat([agg, ops.mul(r, state)], axis=1)
        candidate = ops.tanh(self.candidate(candidate_in))
        one = Tensor(np.ones((1, 1)))
        return ops.add(ops.mul(ops.sub(one, z), state),
                       ops.mul(z, candidate))

    def aggregate_flops(self, num_src: int, num_dst: int, num_edges: int) -> int:
        projection = 2 * num_src * self.in_dim * self.out_dim
        return projection + 2 * num_edges * self.out_dim

    def update_flops(self, num_dst: int) -> int:
        gates = 3 * 2 * num_dst * 2 * self.out_dim * self.out_dim
        projection = (2 * num_dst * self.in_dim * self.out_dim
                      if self.project is not None else 0)
        return gates + projection + 6 * num_dst * self.out_dim

    def forward_workspace_scalars(self, num_src: int, num_dst: int,
                                  num_edges: int) -> int:
        # Projected sources + per-edge messages (edge-dominated, like GAT)
        # + GRU gate activations.
        return (num_src * self.out_dim
                + num_edges * self.out_dim
                + 6 * num_dst * self.out_dim)
