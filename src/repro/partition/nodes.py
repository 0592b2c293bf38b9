"""Partition→node mapping and halo-volume analysis for cluster scale-out.

The two-level partition (§4.1) assigns every vertex to one of ``m``
partitions, one per GPU. On a cluster of N nodes with g GPUs each,
``m = N·g`` and partition ``p`` runs on node ``p // g`` — contiguous
blocks, which preserves the METIS ordering's locality so that most of a
node's neighbor traffic stays on intra-node NVLink and only the remainder
crosses the network.

The *halo* of a node pair (s, d) is the set of vertex rows owned by node s
that node d's chunks need as aggregation inputs — the rows that must cross
the network each layer sweep. :func:`halo_volumes` measures it in vertex
rows per epoch-layer, batch by batch, exactly matching the network tasks
the executor emits (same dedup semantics: each staged row crosses once per
batch it is fetched in).

Every chunk's neighbour set is swept exactly twice, at partition
granularity: :func:`partition_halo_matrix` (fetch rows) and
:func:`partition_load_matrix` (freshly staged rows). The node-level
:func:`halo_volumes` / :func:`halo_load_volumes` are those matrices
aggregated under a partition→node map, so the placement search's
objective and the node analyses cannot count different rows. A
planning call that prices several chunk layouts of one partition runs
each sweep once per layout through one :class:`LayoutSweeps`.

The contiguous-block map is only the *default*: every analysis here takes
an optional explicit ``placement`` array (partition p → node
``placement[p]``), the representation the placement search in
:mod:`repro.partition.placement` optimizes over. ``placement=None``
reproduces the block map bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.partition.two_level import TwoLevelPartition

__all__ = ["partition_nodes", "partition_halo_matrix",
           "partition_load_matrix", "LayoutSweeps", "halo_volumes",
           "halo_load_volumes"]


def partition_nodes(num_partitions: int, num_nodes: int,
                    placement: Optional[np.ndarray] = None,
                    max_imbalance: Optional[int] = 0,
                    dead_nodes=frozenset()) -> np.ndarray:
    """Partition→node map: explicit ``placement`` or contiguous node blocks.

    ``num_partitions`` must be divisible by ``num_nodes`` (every node runs
    the same number of GPU slots). Returns an int array of length
    ``num_partitions`` with entry p = node of partition p: the validated
    copy of ``placement`` when one is given, else the contiguous-block
    default ``p // gpus_per_node``.

    An explicit placement must assign every partition exactly once, name
    only nodes in ``[0, num_nodes)``, and leave no node empty. With
    ``max_imbalance == 0`` (the default) nodes must be exactly balanced
    at ``num_partitions / num_nodes`` partitions each; a positive
    ``max_imbalance`` admits *uneven* placements whose per-node counts
    stay within ``gpus_per_node ± max_imbalance`` — the representation
    the memory-bounded placement search skews when a node's host memory
    can absorb extra partitions. ``max_imbalance=None`` drops the count
    bound entirely (any non-empty per-node counts) — the *analysis*
    contract: halo volumes are well defined for every placement a
    platform could ever have installed, so the analyses never reject
    what an installer admitted.

    ``dead_nodes`` inverts the emptiness rule for the named nodes: a
    dead node must host *no* partition (an explicit placement that still
    uses it is rejected), every surviving node stays non-empty, and the
    balance bound is taken relative to the *alive* fleet —
    ``num_partitions / alive``, rounded down/up, ``± max_imbalance`` —
    because an evacuation necessarily overloads the survivors. With dead
    nodes the contiguous-block default is unavailable (it would use
    every node); an explicit placement is required.
    """
    dead_nodes = frozenset(dead_nodes)
    if num_nodes < 1 or num_partitions < 1:
        raise PartitionError(
            f"need >= 1 nodes and partitions, got {num_nodes} nodes, "
            f"{num_partitions} partitions"
        )
    if num_partitions % num_nodes != 0:
        raise PartitionError(
            f"{num_partitions} partitions do not divide evenly over "
            f"{num_nodes} nodes"
        )
    if max_imbalance is not None and max_imbalance < 0:
        raise PartitionError(
            f"max_imbalance must be >= 0, got {max_imbalance}"
        )
    if dead_nodes:
        if min(dead_nodes) < 0 or max(dead_nodes) >= num_nodes:
            raise PartitionError(
                f"dead_nodes {sorted(dead_nodes)} outside [0, {num_nodes})"
            )
        if len(dead_nodes) >= num_nodes:
            raise PartitionError(
                f"all {num_nodes} nodes are dead; nothing can host "
                f"partitions"
            )
        if placement is None:
            raise PartitionError(
                f"the contiguous-block default uses every node but "
                f"node(s) {sorted(dead_nodes)} are dead — an explicit "
                f"evacuating placement is required"
            )
    gpus_per_node = num_partitions // num_nodes
    if placement is None:
        return np.repeat(np.arange(num_nodes, dtype=np.int64), gpus_per_node)
    placement = _node_ids(placement)
    if placement.shape != (num_partitions,):
        raise PartitionError(
            f"placement must assign each of the {num_partitions} partitions "
            f"one node, got shape {placement.shape}"
        )
    if len(placement) and (placement.min() < 0
                           or placement.max() >= num_nodes):
        raise PartitionError(
            f"placement names nodes outside [0, {num_nodes})"
        )
    counts = np.bincount(placement, minlength=num_nodes)
    if dead_nodes:
        dead = np.array(sorted(dead_nodes), dtype=np.int64)
        if counts[dead].any():
            used = [int(node) for node in dead if counts[node]]
            raise PartitionError(
                f"placement assigns partitions to dead node(s) {used} "
                f"(per-node counts {counts.tolist()})"
            )
        alive = np.array([node for node in range(num_nodes)
                          if node not in dead_nodes], dtype=np.int64)
        alive_counts = counts[alive]
        if (alive_counts == 0).any():
            empty = alive[alive_counts == 0].tolist()
            raise PartitionError(
                f"placement leaves surviving node(s) {empty} without any "
                f"partition (per-node counts {counts.tolist()})"
            )
        if max_imbalance is not None:
            low = max(1, num_partitions // len(alive) - max_imbalance)
            high = -(-num_partitions // len(alive)) + max_imbalance
            if ((alive_counts < low) | (alive_counts > high)).any():
                raise PartitionError(
                    f"evacuating placement exceeds "
                    f"max_imbalance={max_imbalance} over the "
                    f"{len(alive)} surviving nodes: counts "
                    f"{counts.tolist()}, need within [{low}, {high}] each"
                )
        return placement.copy()
    if (counts == 0).any():
        empty = np.flatnonzero(counts == 0).tolist()
        raise PartitionError(
            f"placement leaves node(s) {empty} without any partition "
            f"(per-node counts {counts.tolist()}) — stale placement from "
            f"a relabeled partition?"
        )
    if max_imbalance is None:
        pass  # analysis mode: any non-empty counts are acceptable
    elif max_imbalance == 0:
        if (counts != gpus_per_node).any():
            raise PartitionError(
                f"placement is unbalanced: nodes host {counts.tolist()} "
                f"partitions, need exactly {gpus_per_node} each"
            )
    elif (np.abs(counts - gpus_per_node) > max_imbalance).any():
        raise PartitionError(
            f"placement exceeds max_imbalance={max_imbalance}: nodes host "
            f"{counts.tolist()} partitions, need {gpus_per_node} ± "
            f"{max_imbalance} each"
        )
    return placement.copy()


def _node_ids(placement) -> np.ndarray:
    """``placement`` as int64 node ids, or raise :class:`PartitionError`.

    A cast would truncate 0.9 to node 0, parse ``"1"`` and read ``True``
    as node 1, and fail on NaN with a builtin error. Integral floats such
    as ``1.0`` are node ids, the rule fault schedules apply to theirs.
    """
    try:
        values = np.asarray(placement)
    except ValueError:  # ragged
        values = np.array([None])
    kind = values.dtype.kind
    integral = kind in "iu" or (kind == "f" and bool(
        (np.isfinite(values) & (values == np.round(values))).all()))
    # A bool entry hides in a list's integer dtype.
    if not integral or not isinstance(placement, np.ndarray) and any(
            isinstance(value, (bool, np.bool_))
            for value in np.asarray(placement, dtype=object).ravel()):
        raise PartitionError(
            f"placement must hold integer node ids, got {placement!r}")
    return values.astype(np.int64)


# ----------------------------------------------------------------------
# the two sweeps (partition granularity)
# ----------------------------------------------------------------------
def partition_halo_matrix(partition: TwoLevelPartition) -> np.ndarray:
    """Per-epoch-layer fetch rows between partition pairs.

    Returns an ``(m, m)`` int matrix F where ``F[k, i]`` counts the
    vertex rows owned by partition k that partition i's chunks read from
    k's transition buffer over one layer sweep (zero diagonal: a chunk's
    reads of its own partition's rows never leave the GPU). Summing the
    entries whose endpoints a placement puts on different nodes gives
    :func:`halo_volumes` under that placement — the node view is this
    matrix aggregated — and it is invariant under chunk reordering.
    """
    return _pair_counts(partition, [
        [chunk.neighbor_global for chunk in row] for row in partition.chunks
    ])


def partition_load_matrix(partition: TwoLevelPartition) -> np.ndarray:
    """Per-epoch-layer *freshly loaded* rows between partition pairs.

    The partition-granularity source of :func:`halo_load_volumes`:
    ``L[k, i]`` counts the rows owned by partition k that partition i
    loads into its own staging buffer per sweep after batch-to-batch
    reuse (self-staging modes), so the entries crossing a placement's
    node boundary are the ``halo_load`` network rows — and,
    time-reversed, the ``halo_flush`` rows. Unlike the fetch matrix this
    depends on the chunk schedule.
    """
    # seen[v] = stamp of the last chunk that needed v. A row's first
    # chunk compares against a stamp no chunk was given, so everything
    # it needs is fresh.
    seen = np.zeros(partition.graph.num_vertices, dtype=np.int64)
    stamp = 0
    fresh_rows = []
    for row in partition.chunks:
        stamp += 1
        fresh = []
        for chunk in row:
            needed = chunk.neighbor_global
            fresh.append(needed[seen[needed] != stamp])
            stamp += 1
            seen[needed] = stamp
        fresh_rows.append(fresh)
    return _pair_counts(partition, fresh_rows)


class LayoutSweeps:
    """The two sweeps of one partition's chunk layouts, each run once.

    A planning call prices several *layouts* of one partition — the same
    chunk objects in other grid positions, as
    :func:`repro.comm.reorganize_partition` produces them. The fetch
    matrix F only depends on the chunk set and the assignment, so all of
    them share one (:meth:`fetch`); the load matrix (:meth:`load`) and
    whatever else a caller derives from a layout (:meth:`memo`) is kept
    per distinct layout. Two layouts are the same when they hold the same
    chunk objects in the same positions; every entry keeps its layout
    alive, so no chunk id is reused while the holder lives.

    A holder lives for one planning call: the joint loop builds one and
    hands it to every search and reorganization it runs, and a caller
    that passes none gets a fresh one.
    """

    def __init__(self, partition: TwoLevelPartition):
        #: the call's input; every layout reorders its chunks
        self.partition = partition
        self._fetch: Optional[np.ndarray] = None
        self._layouts: Dict[Tuple[int, ...], dict] = {}

    def fetch(self) -> np.ndarray:
        """:func:`partition_halo_matrix` of every layout of the call."""
        if self._fetch is None:
            self._fetch = partition_halo_matrix(self.partition)
        return self._fetch

    def load(self, layout: TwoLevelPartition) -> np.ndarray:
        """:func:`partition_load_matrix` of ``layout``."""
        return self.memo(layout, "load", partition_load_matrix)

    def memo(self, layout: TwoLevelPartition, what: str,
             compute: Callable[[TwoLevelPartition], Any]) -> Any:
        """``compute(layout)``, run once per distinct layout and ``what``."""
        if layout.assignment is not self.partition.assignment:
            raise PartitionError(
                "sweeps price layouts of one partition; this one has "
                "another vertex assignment")
        key = tuple(id(chunk) for row in layout.chunks for chunk in row)
        entry = self._layouts.setdefault(key, {"layout": layout})
        if what not in entry:
            entry[what] = compute(layout)
        return entry[what]


def _pair_counts(partition: TwoLevelPartition,
                 rows_by_reader: List[List[np.ndarray]]) -> np.ndarray:
    """(owner, reader) row counts via one flat bincount, zero diagonal.

    ``rows_by_reader[i]`` lists the vertex-id arrays reader partition i
    counts (one per chunk); each row is attributed to its owner
    partition.
    """
    m = partition.num_partitions
    lengths = [sum(len(rows) for rows in chunks) for chunks in rows_by_reader]
    matrix = np.zeros((m, m), dtype=np.int64)
    if sum(lengths):
        owners = partition.assignment[np.concatenate(
            [rows for chunks in rows_by_reader for rows in chunks])]
        readers = np.repeat(np.arange(m, dtype=np.int64), lengths)
        matrix = np.bincount(owners * m + readers, minlength=m * m
                             ).reshape(m, m).astype(np.int64)
        np.fill_diagonal(matrix, 0)
    return matrix


# ----------------------------------------------------------------------
# node views of the two sweeps
# ----------------------------------------------------------------------
def _node_view(matrix: np.ndarray, partition: TwoLevelPartition,
               num_nodes: int, placement, dead_nodes) -> np.ndarray:
    """Aggregate an ``(m, m)`` partition-pair matrix to node pairs.

    ``V[s, d] = Σ matrix[k, i]`` over partitions k on node s, i on node
    d, under any map the analysis contract of :func:`partition_nodes`
    admits; the diagonal is zeroed — pairs sharing a node ride NVLink,
    not the network. Integer-exact (one-hot matmuls).
    """
    node_map = partition_nodes(partition.num_partitions, num_nodes,
                               placement, max_imbalance=None,
                               dead_nodes=dead_nodes)
    onehot = np.eye(num_nodes, dtype=np.int64)[node_map]
    volumes = onehot.T @ matrix @ onehot
    np.fill_diagonal(volumes, 0)
    return volumes


def halo_volumes(partition: TwoLevelPartition, num_nodes: int,
                 placement: Optional[np.ndarray] = None,
                 dead_nodes=frozenset()) -> np.ndarray:
    """Per-epoch-layer network rows between node pairs.

    Returns an ``(N, N)`` int matrix H where ``H[s, d]`` counts the vertex
    rows staged on node s that node d's GPUs fetch across the network,
    summed over all batches of one layer sweep (the same counting as the
    executor's forward fetch under full deduplication: each batch-union
    vertex is staged once on its owner GPU, and every remote reader GPU
    that needs it pulls its own copy over the s→d link). The diagonal is
    zero — intra-node fetches ride NVLink, not the network. It is the
    node aggregate of :func:`partition_halo_matrix`.

    A zero matrix means the partition has no halo (every chunk's neighbors
    are node-local) and a cluster run emits no fetch-phase network tasks.

    ``placement`` overrides the contiguous-block partition→node map (see
    :func:`partition_nodes`), so the same analysis prices any assignment
    the placement search proposes — balanced, uneven, or (with
    ``dead_nodes``) evacuating.
    """
    return _node_view(partition_halo_matrix(partition), partition,
                      num_nodes, placement, dead_nodes)


def halo_load_volumes(partition: TwoLevelPartition, num_nodes: int,
                      placement: Optional[np.ndarray] = None,
                      dead_nodes=frozenset()) -> np.ndarray:
    """Per-epoch-layer *staging* halo rows between node pairs.

    The reuse-sensitive companion of :func:`halo_volumes`: under
    self-staging (``dedup_inter=False`` — the Baseline/+RU communication
    modes) every GPU stages its own needed set, reusing the rows it
    also staged in the previous batch (``dedup_intra``), and the
    remotely-owned rows it must freshly load cross the network as
    ``halo_load`` traffic. Returns an ``(N, N)`` int matrix L where
    ``L[s, d]`` counts the rows owned by node s that node d's GPUs load
    across the network over one layer sweep — exactly the executor's
    ``halo_load`` split of ``plan.load_vertices`` (the gradient
    ``halo_flush`` is the time-reversed mirror: the same counting with
    consecutive batches swapped, so its total matches this one's on the
    reversed schedule). It is the node aggregate of
    :func:`partition_load_matrix`.

    Unlike :func:`halo_volumes` (which is invariant under chunk
    reordering — each chunk's neighbor set crosses the network no matter
    which slot it runs in), this volume *depends on the schedule*:
    consecutive batches with overlapping neighbor sets reuse staged rows
    and skip the network. It is therefore the term of the net-aware
    Algorithm 4 objective that subgraph reorganization can actually
    shrink.

    ``placement`` overrides the contiguous-block partition→node map,
    exactly as in :func:`halo_volumes` (uneven and evacuating
    placements included).
    """
    return _node_view(partition_load_matrix(partition), partition,
                      num_nodes, placement, dead_nodes)
