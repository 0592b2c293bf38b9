"""Execution blocks: the unit a GNN layer computes on.

A :class:`Block` is a reindexed bipartite view of (a piece of) the graph:
``num_src`` input rows (the neighbor set, *including* the destinations
themselves so UPDATE functions can read ``h_v^{l-1}``), ``num_dst`` output
rows, and edges in local coordinates. The same layer code therefore runs
unchanged in three settings:

* monolithic full-graph training (one block covering the whole graph),
* HongTu chunked training (one block per subgraph chunk over the rows
  the deduplicated communication framework stages; a batch's chunks
  together are one block over the host's vertex rows,
  :meth:`Block.in_slots`, so a linear AGGREGATE reads the rows in place
  without gathering any chunk's input),
* mini-batch training (one block per sampled layer frontier).

This mirrors the paper's "subgraph chunks are abstracted as blocks in the
computation engine" (§6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import GraphFormatError, require_count
from repro.graph.graph import Graph

__all__ = ["Block"]


def _index_array(name: str, values) -> np.ndarray:
    """``values`` as an int64 array; :class:`GraphFormatError` unless it
    is 1-D and of an integer dtype (a bool is not an index)."""
    array = np.asarray(values)
    if array.ndim != 1 or array.dtype.kind not in "iu":
        raise GraphFormatError(
            f"{name} must be a 1-D integer array, got dtype {array.dtype} "
            f"and shape {array.shape}")
    return array.astype(np.int64, copy=False)


@dataclass
class Block:
    """Local-coordinate bipartite computation graph.

    Attributes
    ----------
    edge_src:
        (E,) local row index (into the input representation matrix) of each
        edge's source.
    edge_dst:
        (E,) local output row (0..num_dst) of each edge's destination. Edges
        are destination-major sorted (checked: :meth:`operator` reads the
        arrays as CSR without sorting them).
    num_dst, num_src:
        Output/input row counts.
    dst_pos:
        (num_dst,) for each destination, the input row holding that same
        vertex's representation (for UPDATE terms like GAT's ``W h_v``).
        Duplicate-free (checked), so ``grads[dst_pos] += g`` accumulates
        every row.
    edge_weight:
        Optional (E,) constant per-edge weights (GCN normalization). These
        are *globally* computed constants, so chunked execution matches
        monolithic execution exactly.
    src_global, dst_global:
        Optional (num_src,), (num_dst,) global vertex ids of the local rows;
        used by trainers to address host-resident vertex data.
    """

    edge_src: np.ndarray
    edge_dst: np.ndarray
    num_dst: int
    num_src: int
    dst_pos: np.ndarray
    edge_weight: Optional[np.ndarray] = None
    src_global: Optional[np.ndarray] = None
    dst_global: Optional[np.ndarray] = None
    _in_degrees: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)
    _operators: Dict[Tuple[np.dtype, bool],
                     Tuple[sparse.csr_matrix, sparse.csc_matrix]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.edge_src = _index_array("edge_src", self.edge_src)
        self.edge_dst = _index_array("edge_dst", self.edge_dst)
        self.dst_pos = _index_array("dst_pos", self.dst_pos)
        require_count("num_src", self.num_src, 0, GraphFormatError)
        require_count("num_dst", self.num_dst, 0, GraphFormatError)
        if len(self.edge_src) != len(self.edge_dst):
            raise GraphFormatError("edge_src and edge_dst must be parallel")
        if len(self.edge_src):
            if self.edge_src.min() < 0 or self.edge_src.max() >= self.num_src:
                raise GraphFormatError("edge_src out of range")
            if (self.edge_dst[1:] < self.edge_dst[:-1]).any():
                raise GraphFormatError("edge_dst must be destination-major "
                                       "sorted")
            if self.edge_dst[0] < 0 or self.edge_dst[-1] >= self.num_dst:
                raise GraphFormatError("edge_dst out of range")
        if len(self.dst_pos) != self.num_dst:
            raise GraphFormatError("dst_pos must have num_dst entries")
        if self.num_dst:
            if self.dst_pos.min() < 0 or self.dst_pos.max() >= self.num_src:
                raise GraphFormatError("dst_pos out of range")
            if np.bincount(self.dst_pos).max() > 1:
                raise GraphFormatError("dst_pos has duplicate rows")
        if self.edge_weight is not None and len(self.edge_weight) != len(self.edge_src):
            raise GraphFormatError("edge_weight must be parallel to edges")

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    @staticmethod
    def from_graph(graph: Graph) -> "Block":
        """Monolithic block covering the whole graph (one 'chunk'), with
        the graph's GCN edge weights."""
        n = graph.num_vertices
        degrees = graph.in_degrees()
        edge_dst = np.repeat(np.arange(n, dtype=np.int64), degrees)
        edge_src = graph.in_csr.indices
        identity = np.arange(n, dtype=np.int64)
        return Block(
            edge_src=edge_src,
            edge_dst=edge_dst,
            num_dst=n,
            num_src=n,
            dst_pos=identity,
            edge_weight=graph.gcn_edge_weights(),
            src_global=identity,
            dst_global=identity,
        )

    @staticmethod
    def in_slots(blocks: Sequence["Block"], slot_maps: Sequence[np.ndarray],
                 num_rows: int) -> "Block":
        """``blocks`` as one block over a shared ``num_rows``-row input.

        ``slot_maps[k][r]`` is the input row holding source row ``r`` of
        ``blocks[k]``, so the result's sources are ``slot_maps[k][edge_src]``
        and its ``dst_pos`` is ``slot_maps[k][dst_pos]``; destinations are
        the blocks' own, concatenated in order. Over the host's h^l
        (``slot_maps`` the chunks' ``src_global``, ``num_rows`` the vertex
        count), ``A @ h`` is every chunk's aggregate without gathering any
        chunk's input: row ``v`` holds block ``k``'s entries of ``v`` in
        edge order, so each output row adds exactly what block ``k``'s own
        product adds, in the same order. Each slot map must be a 1-D integer array with
        one entry per source row of its block, each in ``[0, num_rows)``;
        :class:`GraphFormatError` otherwise, as for any malformed block.
        """
        if not blocks or len(blocks) != len(slot_maps):
            raise GraphFormatError(
                f"in_slots needs one slot map per block and at least one "
                f"block, got {len(blocks)} blocks and {len(slot_maps)} maps")
        require_count("num_rows", num_rows, 0, GraphFormatError)
        maps = [_index_array("slot map", slots) for slots in slot_maps]
        for block, slots in zip(blocks, maps):
            if len(slots) != block.num_src:
                raise GraphFormatError(
                    f"a slot map needs one entry per source row "
                    f"({block.num_src}), got {len(slots)}")
            if len(slots) and (slots.min() < 0 or slots.max() >= num_rows):
                raise GraphFormatError(
                    f"slot map entries must lie in [0, {num_rows})")
        weights = [block.edge_weight for block in blocks]
        if any(weight is None for weight in weights):
            if any(weight is not None for weight in weights):
                raise GraphFormatError(
                    "in_slots needs every block weighted or none")
            edge_weight = None
        else:
            edge_weight = np.concatenate(weights)
        dst_offsets = np.cumsum([0] + [block.num_dst for block in blocks])
        return Block(
            edge_src=np.concatenate([slots[block.edge_src]
                                     for block, slots in zip(blocks, maps)]),
            edge_dst=np.concatenate([block.edge_dst + offset for block, offset
                                     in zip(blocks, dst_offsets.tolist())]),
            num_dst=int(dst_offsets[-1]),
            num_src=num_rows,
            dst_pos=np.concatenate([slots[block.dst_pos]
                                    for block, slots in zip(blocks, maps)]),
            edge_weight=edge_weight,
        )

    def in_degrees(self) -> np.ndarray:
        """Per-destination in-degree within this block (cached, read-only)."""
        if self._in_degrees is None:
            degrees = np.bincount(self.edge_dst, minlength=self.num_dst)
            degrees.flags.writeable = False
            self._in_degrees = degrees
        return self._in_degrees

    def operator(self, dtype, weighted: bool = True) -> sparse.csr_matrix:
        """The block as a sparse ``(num_dst, num_src)`` matrix ``A``.

        ``A @ h`` is the neighbor sum of a linear AGGREGATE and ``A.T @ g``
        (:meth:`adjoint`) its adjoint — the cuSparse SpMM of the paper's
        computation engine (§6). Row ``v`` holds one entry
        per in-edge of destination ``v``, in edge order (multi-edges stay
        separate entries), so both products add in the order a per-edge
        scatter would. Entries are ``edge_weight`` (ones when the block has
        none or ``weighted`` is False) in ``dtype``, so the product keeps
        its operand's dtype. Built once per (dtype, weighted) and cached:
        chunks cache their block, so an operator lives as long as the plan
        (a trainer's :meth:`in_slots` batch blocks, until it adopts
        another plan).
        """
        return self._operator_pair(dtype, weighted)[0]

    def adjoint(self, dtype, weighted: bool = True) -> sparse.csc_matrix:
        """``A.T``: the CSC view of :meth:`operator`'s arrays, cached with it.

        ``csr.T`` wraps the same ``data``/``indices``/``indptr`` in a new
        matrix object and re-validates the format on every call; the
        backward pass asks once per chunk-layer, so the view is kept.
        """
        return self._operator_pair(dtype, weighted)[1]

    def _operator_pair(self, dtype, weighted: bool):
        weighted = weighted and self.edge_weight is not None
        key = (np.dtype(dtype), weighted)
        pair = self._operators.get(key)
        if pair is None:
            data = (self.edge_weight.astype(dtype, copy=False) if weighted
                    else np.ones(self.num_edges, dtype=dtype))
            indptr = np.zeros(self.num_dst + 1, dtype=np.int64)
            np.cumsum(self.in_degrees(), out=indptr[1:])
            matrix = sparse.csr_matrix(
                (data, self.edge_src, indptr),
                shape=(self.num_dst, self.num_src),
            )
            pair = self._operators[key] = (matrix, matrix.T)
        return pair

    def __repr__(self) -> str:
        return (
            f"Block(src={self.num_src}, dst={self.num_dst}, "
            f"edges={self.num_edges})"
        )
