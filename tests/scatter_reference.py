"""Linear aggregation, one edge at a time — the oracle for the SpMM path.

The layers run a linear AGGREGATE as one sparse product over the block's
cached operator (:meth:`repro.gnn.block.Block.operator`,
:func:`repro.autograd.ops.spmm`). This module keeps the aggregate in the
form it is *defined* in: gather every edge's source row into an
``(E, dim)`` message tensor, scale it by the edge weight, and scatter-add
the messages row by row with ``np.add.at`` — forward onto destinations,
adjoint back onto sources. Both walk the edges in array order, which is
also the order the CSR/CSC kernels add in, so for float64 the two agree
to the last bit and the tests compare with ``assert_array_equal``.

GAT's aggregate is not linear; :func:`reference_gat_aggregate` writes it
out one destination at a time (Eq. 3) as the oracle of the vectorized
per-edge path. It sums in a different order, so it agrees to rounding.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.gnn.block import Block

__all__ = ["REFERENCE_AGGREGATES", "block_zoo", "reference_aggregate",
           "reference_aggregate_backward", "reference_gat_aggregate"]

#: layer class name -> (uses the block's edge weights, divides by in-degree)
REFERENCE_AGGREGATES = {
    "GCNLayer": (True, False),
    "GraphSAGELayer": (False, True),
    "GINLayer": (False, False),
    "CommNetLayer": (False, True),
}


def _inverse_degrees(block: Block) -> np.ndarray:
    degrees = np.bincount(block.edge_dst, minlength=block.num_dst)
    return (1.0 / np.maximum(degrees, 1)).reshape(-1, 1)


def reference_aggregate(block: Block, h: np.ndarray, weighted: bool,
                        mean: bool) -> np.ndarray:
    """``out[dst] += w * h[src]`` per edge, then the optional 1/deg scale."""
    messages = h[block.edge_src]
    if weighted and block.edge_weight is not None:
        messages = messages * block.edge_weight.reshape(-1, 1)
    out = np.zeros((block.num_dst, h.shape[1]), dtype=h.dtype)
    np.add.at(out, block.edge_dst, messages)
    return out * _inverse_degrees(block) if mean else out


def reference_aggregate_backward(block: Block, grad_agg: np.ndarray,
                                 weighted: bool, mean: bool) -> np.ndarray:
    """The adjoint: ``grad_h[src] += w * grad_agg[dst]`` per edge."""
    if mean:
        grad_agg = grad_agg * _inverse_degrees(block)
    grad_messages = grad_agg[block.edge_dst]
    if weighted and block.edge_weight is not None:
        grad_messages = grad_messages * block.edge_weight.reshape(-1, 1)
    grad_h = np.zeros((block.num_src, grad_agg.shape[1]),
                      dtype=grad_agg.dtype)
    np.add.at(grad_h, block.edge_src, grad_messages)
    return grad_h



def reference_gat_aggregate(block: Block, h: np.ndarray, weight: np.ndarray,
                            attn_dst: np.ndarray,
                            attn_src: np.ndarray) -> np.ndarray:
    """GAT's AGGREGATE for each destination on its own.

    For destination ``d`` (input row ``dst_pos[d]``) and its in-edges
    ``u -> d``: score ``a_dst·Wh_d + a_src·Wh_u``, LeakyReLU(0.2), a
    softmax over exactly those edges, then the alpha-weighted sum of
    ``Wh_u``. A destination without in-edges aggregates to zero.
    """
    wh = h @ weight
    out = np.zeros((block.num_dst, weight.shape[1]), dtype=h.dtype)
    for d in range(block.num_dst):
        sources = block.edge_src[block.edge_dst == d]
        if not len(sources):
            continue
        score = wh[block.dst_pos[d]] @ attn_dst.ravel() \
            + wh[sources] @ attn_src.ravel()
        score = np.where(score > 0, score, 0.2 * score)
        alpha = np.exp(score - score.max())
        out[d] = (alpha / alpha.sum()) @ wh[sources]
    return out

def block_zoo(graph) -> dict:
    """Blocks covering every shape the operator must get right."""
    rng = np.random.default_rng(7)
    chunk_src = np.array([4, 0, 4, 6, 2, 2, 5, 1])
    chunk_dst = np.array([0, 0, 1, 1, 1, 3, 3, 3])
    chunk = dict(edge_src=chunk_src, edge_dst=chunk_dst, num_dst=4,
                 num_src=7, dst_pos=np.array([3, 0, 6, 1]))
    return {
        "from_graph": Block.from_graph(graph),
        "from_graph_unweighted": replace(Block.from_graph(graph),
                                         edge_weight=None),
        # num_src > num_dst, destination 2 has no in-edge
        "chunk_weighted": Block(edge_weight=rng.random(8), **chunk),
        "chunk_unweighted": Block(**chunk),
        # the same (src, dst) pair twice, with different weights
        "multi_edge": Block(
            edge_src=np.array([1, 1, 0, 2, 2, 2]),
            edge_dst=np.array([0, 0, 0, 1, 1, 2]),
            num_dst=3, num_src=3, dst_pos=np.arange(3),
            edge_weight=rng.random(6)),
        "zero_edges": Block(
            edge_src=np.empty(0, dtype=np.int64),
            edge_dst=np.empty(0, dtype=np.int64),
            num_dst=2, num_src=3, dst_pos=np.array([2, 0]),
            edge_weight=np.empty(0)),
    }
