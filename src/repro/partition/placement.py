"""Partition-level chunk placement search across cluster nodes.

The contiguous-block partition→node map (:func:`~repro.partition.nodes.
partition_nodes`) inherits the METIS ordering's locality, but it is an
*assumption*, not an optimum: on skewed orderings (or after adversarial
relabeling) whole partitions end up separated from the partitions they
exchange halo rows with, and the net-aware Algorithm 4 — which only
reorders chunk *schedules* on their home GPUs — cannot fix that. This
module searches over the partition→node assignment itself.

The objective is the cluster net term of the reorganization guard,
aggregated to partition granularity: per epoch-layer, partition pair
``(k, i)`` exchanges

* ``F[k, i]`` forward fetch rows (:func:`partition_halo_matrix` — rows
  owned by k that i's chunks read from k's transition buffer; invariant
  under chunk reordering), and
* ``L[k, i]`` staging-load rows (:func:`partition_load_matrix` — rows
  owned by k that i freshly loads per sweep under self-staging; counted
  twice, once for the load and once for the mirrored gradient flush).

A placement's cross-node halo rows are the entries of ``W = F + 2·L``
whose endpoints land on different nodes — by construction the same
counting as ``halo_volumes``/``halo_load_volumes`` under that placement,
so the search's predictions stay byte-checkable against the executor's
``net_bytes_by_flow``. The search is a pure integer search: it counts
rows and prices nothing (:func:`repro.comm.joint.joint_placement` prices
the pair it adopts).

The search itself is classic graph partitioning on the symmetrized
weight matrix ``S = W + Wᵀ``:

1. **Seed** — the contiguous-block map (never worse than it: the block
   placement is always a candidate), or any caller-supplied assignment,
   including an uneven one.
2. **Greedy improvement** — repeatedly apply the best improving step:
   either the swap of two partitions on different nodes with the
   largest positive cut reduction ``gain(a∈A, b∈B) = [E_a(B) − E_a(A)]
   + [E_b(A) − E_b(B)] − 2·S[a,b]`` (``E_p(X)`` = rows partition p
   exchanges with node X's partitions), or — when ``max_imbalance > 0``
   — the single-partition *move* ``gain(p: A→B) = E_p(B) − E_p(A)``
   that skews node loads. Swaps preserve per-node counts; moves must
   keep every count within ``m/N ± max_imbalance`` (and no node empty),
   and when ``node_budgets`` are given, any step must leave every
   node's placement-pinned host bytes within its budget (the
   ``core/memory_model`` admission rule: a skewed node has to actually
   fit the checkpoints its extra partitions pin).
3. **KL/FM-style refinement** — to escape local minima, a
   Kernighan-Lin pass performs the *best available admissible* swap
   even when its gain is negative, locks both endpoints, and repeats
   until fewer than two free partitions remain on distinct nodes; the
   pass then keeps the prefix of swaps with the maximum cumulative gain
   (reverting the rest) and, if that gain is positive, goes back to
   step 2. The pass operates on whatever (possibly unequal) per-node
   rows the greedy phase produced — swaps never change counts, so the
   imbalance invariant is preserved for free.

All weights are integer row counts, so gains are exact and the search is
deterministic (ties break on the lowest partition ids; equal-gain
swap-vs-move ties prefer the balance-preserving swap). With one node the
placement is trivially all-zeros and every cost equals the block cost —
the ``nodes=1`` float-identity contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.partition.nodes import (
    partition_halo_matrix,
    partition_load_matrix,
    partition_nodes,
)
from repro.partition.two_level import TwoLevelPartition

__all__ = ["PlacementResult", "search_placement", "partition_net_weights",
           "placement_net_rows",
           "permute_partitions", "PLACEMENT_POLICIES"]

#: how partitions map to cluster nodes: the contiguous-``block`` default,
#: the ``search``ed assignment of :func:`search_placement`, or the
#: ``joint`` placement↔schedule iteration of
#: :func:`repro.comm.joint.joint_placement`
PLACEMENT_POLICIES = ("block", "search", "joint")

_SENTINEL = np.iinfo(np.int64).min


# ----------------------------------------------------------------------
# the objective's weights
# ----------------------------------------------------------------------
def partition_net_weights(partition: TwoLevelPartition) -> np.ndarray:
    """``W = F + 2·L``: the rows each partition pair puts on the wire.

    Fetch rows plus staging loads counted twice — the backward gradient
    flush retires exactly the rows the forward load staged (same
    consecutive-batch differences, time-reversed), so its row total
    equals the load total. The entries a placement splits across nodes
    are its cross-node halo rows per epoch-layer.
    """
    return (partition_halo_matrix(partition)
            + 2 * partition_load_matrix(partition))


def _cross_rows(weights: np.ndarray, placement: np.ndarray) -> int:
    """Entries of ``weights`` whose endpoints sit on different nodes."""
    cross = placement[:, None] != placement[None, :]
    return int(weights[cross].sum())


def placement_net_rows(partition: TwoLevelPartition, num_nodes: int,
                       placement: Optional[np.ndarray] = None,
                       dead_nodes=frozenset()) -> int:
    """Cross-node halo rows per epoch-layer under ``placement``.

    The entries of :func:`partition_net_weights` whose endpoints an
    arbitrary partition→node map puts on different nodes — the net
    term of the reorganization guard and the placement objective
    (``dead_nodes`` admits evacuating placements that leave the named
    nodes empty).
    """
    node_map = partition_nodes(partition.num_partitions, num_nodes,
                               placement, max_imbalance=None,
                               dead_nodes=dead_nodes)
    return _cross_rows(partition_net_weights(partition), node_map)


# ----------------------------------------------------------------------
# the search
# ----------------------------------------------------------------------
@dataclass
class PlacementResult:
    """A searched partition→node assignment plus its provenance.

    ``rows_*`` are cross-node halo rows per epoch-layer (fetches plus
    loads and their mirrored flushes). The searched placement is never
    worse than the block seed: ``rows_search <= rows_block`` always holds.
    """

    placement: np.ndarray
    num_nodes: int
    rows_block: int
    rows_search: int
    #: improving swaps applied (greedy phase + kept refinement prefixes)
    swaps: int = 0
    #: KL refinement passes run (each ends in a kept or reverted prefix)
    refinement_passes: int = 0
    #: improving single-partition moves applied (uneven placements only)
    moves: int = 0
    #: the balance slack the search ran with (0 = exact m/N)
    max_imbalance: int = 0
    #: row-equivalent compute cost of the seed/searched assignment when
    #: the search ran capability-aware (``compute_rows`` given); ``None``
    #: on homogeneous searches, whose objective is pure net rows
    compute_rows_block: Optional[int] = None
    compute_rows_search: Optional[int] = None

    @property
    def rows_saved(self) -> int:
        """Cross-node halo rows removed per epoch-layer vs the block map."""
        return self.rows_block - self.rows_search

    @property
    def objective_block(self) -> int:
        """Seed objective: net rows plus any row-equivalent compute."""
        return self.rows_block + (self.compute_rows_block or 0)

    @property
    def objective_search(self) -> int:
        """Searched objective (never worse than :attr:`objective_block`)."""
        return self.rows_search + (self.compute_rows_search or 0)

    @property
    def improved(self) -> bool:
        return self.objective_search < self.objective_block

    @property
    def node_counts(self) -> List[int]:
        """Partitions per node under the searched placement."""
        return np.bincount(self.placement,
                           minlength=self.num_nodes).tolist()


def _node_exchange(weights_sym: np.ndarray,
                   placement: np.ndarray, num_nodes: int) -> np.ndarray:
    """E[p, X] = rows partition p exchanges with node X's partitions."""
    m = len(placement)
    onehot = np.zeros((m, num_nodes), dtype=np.int64)
    onehot[np.arange(m), placement] = 1
    return weights_sym @ onehot


def _swap_gains(weights_sym: np.ndarray, placement: np.ndarray,
                num_nodes: int,
                exchange: Optional[np.ndarray] = None,
                compute: Optional[np.ndarray] = None) -> np.ndarray:
    """Cut reduction of swapping each partition pair's nodes.

    ``G[a, b] = [E_a(B) − E_a(A)] + [E_b(A) − E_b(B)] − 2·S[a, b]`` for
    a on node A, b on node B; pairs on the same node get a sentinel so
    they are never selected. The search loops pass an incrementally
    maintained ``exchange`` so the m×N matmul is not redone per step.

    A capability-aware search adds the *linear* compute term: swapping a
    and b also reprices each partition at its new node's throughput,
    ``(A[a, N_a] + A[b, N_b]) − (A[a, N_b] + A[b, N_a])`` row
    equivalents. The term is per-partition (no pairwise interaction), so
    no incremental state is needed — and with identical node rates every
    column of ``A`` is equal and the term is exactly zero, leaving the
    homogeneous decisions untouched.
    """
    if exchange is None:
        exchange = _node_exchange(weights_sym, placement, num_nodes)
    internal = exchange[np.arange(len(placement)), placement]
    toward = exchange[:, placement]  # toward[a, b] = E_a(node of b)
    gains = (toward + toward.T - internal[:, None] - internal[None, :]
             - 2 * weights_sym)
    if compute is not None:
        current = compute[np.arange(len(placement)), placement]
        at = compute[:, placement]  # at[a, b] = A[a, node of b]
        gains += current[:, None] + current[None, :] - at - at.T
    gains[placement[:, None] == placement[None, :]] = _SENTINEL
    return gains


def _move_gains(weights_sym: np.ndarray, placement: np.ndarray,
                num_nodes: int,
                exchange: Optional[np.ndarray] = None,
                compute: Optional[np.ndarray] = None) -> np.ndarray:
    """Cut reduction of moving each partition to each other node.

    ``G[p, X] = E_p(X) − E_p(home(p))`` — the rows p exchanges with its
    destination become intra-node while the rows toward its old home
    start crossing the network. The home column gets a sentinel. The
    capability-aware compute term adds ``A[p, home(p)] − A[p, X]``:
    moving onto a faster node is worth the rows the repricing saves.
    """
    if exchange is None:
        exchange = _node_exchange(weights_sym, placement, num_nodes)
    internal = exchange[np.arange(len(placement)), placement]
    gains = exchange - internal[:, None]
    if compute is not None:
        current = compute[np.arange(len(placement)), placement]
        gains += current[:, None] - compute
    gains[np.arange(len(placement)), placement] = _SENTINEL
    return gains


def _best_swap(gains: np.ndarray,
               free: Optional[np.ndarray] = None,
               allowed: Optional[np.ndarray] = None
               ) -> Tuple[int, int, int]:
    """Highest-gain admissible (a, b) pair, lowest ids first on ties."""
    masked = gains
    if free is not None or allowed is not None:
        masked = gains.copy()
        if free is not None:
            masked[~free, :] = _SENTINEL
            masked[:, ~free] = _SENTINEL
        if allowed is not None:
            masked[~allowed] = _SENTINEL
    flat = int(np.argmax(masked))
    a, b = divmod(flat, masked.shape[1])
    return a, b, int(masked[a, b])


class _Admission:
    """Balance + host-memory admission state for uneven placements.

    Tracks per-node partition counts and placement-pinned host bytes as
    the search mutates the assignment, and answers which swaps/moves the
    configured ``max_imbalance`` and per-node byte budgets admit. With
    no budgets the byte masks are all-true and only the count bounds
    constrain moves; swaps never change counts, so they are only
    byte-constrained (partitions pin different amounts).
    """

    def __init__(self, placement: np.ndarray, num_nodes: int,
                 max_imbalance: int,
                 host_bytes: Optional[np.ndarray],
                 node_budgets: Optional[Sequence[Optional[float]]],
                 dead_nodes=frozenset()):
        self.num_nodes = num_nodes
        self.dead = frozenset(dead_nodes)
        # Count bounds are taken over the *alive* fleet: with deaths the
        # survivors necessarily run above m/N, so the slack brackets the
        # alive-relative floor/ceiling instead. No deaths → alive == N
        # and the bounds reduce to the original balanced ± K exactly.
        alive = num_nodes - len(self.dead)
        self.balanced = len(placement) // alive
        self.ceiling = -(-len(placement) // alive)
        self.max_imbalance = max_imbalance
        self.counts = np.bincount(placement, minlength=num_nodes)
        self.host_bytes = host_bytes
        self.budgets = node_budgets
        self.loads = None
        if host_bytes is not None and node_budgets is not None:
            self.loads = np.bincount(
                placement, weights=host_bytes, minlength=num_nodes
            ).astype(np.int64)

    def _budget_headroom(self) -> Optional[np.ndarray]:
        """Remaining bytes per node (None when unconstrained)."""
        if self.loads is None:
            return None
        return np.array([
            np.inf if budget is None else float(budget) - load
            for budget, load in zip(self.budgets, self.loads.tolist())
        ])

    def swap_mask(self, placement: np.ndarray) -> Optional[np.ndarray]:
        """(m, m) bool: swaps that keep every node inside its budget."""
        headroom = self._budget_headroom()
        if headroom is None:
            return None
        # Swapping a and b shifts bytes[b] − bytes[a] onto a's node (and
        # the negation onto b's); counts are untouched.
        delta = self.host_bytes[None, :] - self.host_bytes[:, None]
        return ((delta <= headroom[placement][:, None])
                & (-delta <= headroom[placement][None, :]))

    def move_mask(self, placement: np.ndarray) -> np.ndarray:
        """(m, N) bool: moves inside both count bounds and budgets."""
        low = max(1, self.balanced - self.max_imbalance)
        high = self.ceiling + self.max_imbalance
        receivable = self.counts + 1 <= high          # per target node
        if self.dead:
            receivable = receivable.copy()
            receivable[sorted(self.dead)] = False     # never onto a corpse
        from_ok = self.counts[placement] - 1 >= low   # per partition
        mask = receivable[None, :] & from_ok[:, None]
        headroom = self._budget_headroom()
        if headroom is not None:
            mask &= self.host_bytes[:, None] <= headroom[None, :]
        return mask

    def apply_swap(self, placement: np.ndarray, a: int, b: int) -> None:
        if self.loads is not None:
            delta = int(self.host_bytes[b] - self.host_bytes[a])
            self.loads[placement[a]] += delta
            self.loads[placement[b]] -= delta
        placement[a], placement[b] = placement[b], placement[a]

    def apply_move(self, placement: np.ndarray, p: int, node: int) -> None:
        source = placement[p]
        self.counts[source] -= 1
        self.counts[node] += 1
        if self.loads is not None:
            self.loads[source] -= int(self.host_bytes[p])
            self.loads[node] += int(self.host_bytes[p])
        placement[p] = node


def search_placement(partition: TwoLevelPartition, num_nodes: int,
                     max_refinements: int = 4,
                     seed_placement: Optional[np.ndarray] = None,
                     max_imbalance: int = 0,
                     node_budgets: Optional[Sequence[Optional[float]]] = None,
                     partition_host_bytes: Optional[np.ndarray] = None,
                     compute_rows: Optional[np.ndarray] = None,
                     dead_nodes=frozenset()
                     ) -> PlacementResult:
    """Search partition→node assignments minimizing cross-node halo rows.

    Seeds with ``seed_placement`` (the contiguous-block map by default —
    pass a platform's active assignment to refine it instead of
    restarting from scratch), improves it with greedy pairwise swaps and
    — when ``max_imbalance > 0`` — single-partition moves, then runs up
    to ``max_refinements`` Kernighan-Lin passes
    (swap-lock-revert-to-best-prefix) to escape local minima; see the
    module docstring for the objective and the gain formulas. The result
    is never worse than the seed: ``rows_block`` reports the *seed*
    placement's objective, so ``rows_search <= rows_block`` holds for any
    seed.

    With the default ``max_imbalance=0`` balance stays exact throughout
    (only swaps run — bit-identical to the pre-uneven search). A
    positive ``max_imbalance`` admits moves that skew per-node counts
    within ``m/N ± max_imbalance`` (never emptying a node); when
    ``node_budgets`` is also given (per-node remaining host bytes,
    ``None`` entries unlimited), every step must additionally keep each
    node's placement-pinned host bytes — ``partition_host_bytes[p]``
    summed over its partitions, the
    :func:`repro.core.memory_model.placement_host_bytes` counting —
    inside its budget, and a seed the memory model cannot admit raises
    :class:`~repro.errors.PartitionError` outright.

    ``compute_rows`` makes the search *capability-aware* on a
    heterogeneous fleet: an ``(m, num_nodes)`` integer matrix whose
    ``[p, n]`` entry is the row-equivalent compute cost of hosting
    partition p on node n (the trainer derives it from per-partition
    flops and per-node GPU throughput). The objective becomes cross-node
    rows plus the placed compute rows, so heavy partitions migrate
    toward fast nodes when the repriced kernels outweigh the extra halo
    traffic. Identical per-node rates make every gain contribution
    exactly zero — the homogeneous search is bit-identical with or
    without the matrix. The never-worse guarantee then covers the
    *combined* objective (``objective_search <= objective_block``);
    ``rows_search`` alone may exceed ``rows_block`` when trading halo
    rows for faster kernels wins.

    ``dead_nodes`` makes the search *evacuating*: the seed must already
    avoid the named nodes (the elastic re-balancer hands in the current
    placement with dead entries re-homed), moves never target them, and
    the count bounds bracket the alive-relative floor/ceiling of
    ``m / alive ± max_imbalance`` — the survivors necessarily run
    overloaded, so exact ``m/N`` balance is unreachable by definition.
    """
    m = partition.num_partitions
    dead_nodes = frozenset(dead_nodes)
    block = partition_nodes(m, num_nodes, seed_placement,
                            max_imbalance=max_imbalance,
                            dead_nodes=dead_nodes)
    host_bytes = None
    if node_budgets is not None:
        if len(node_budgets) != num_nodes:
            raise PartitionError(
                f"node_budgets must give one budget per node, got "
                f"{len(node_budgets)} for {num_nodes} nodes"
            )
        host_bytes = (np.zeros(m, dtype=np.int64)
                      if partition_host_bytes is None
                      else np.asarray(partition_host_bytes, dtype=np.int64))
        if host_bytes.shape != (m,):
            raise PartitionError(
                f"partition_host_bytes must give one size per partition, "
                f"got shape {host_bytes.shape} for {m} partitions"
            )
        # The memory model is the admission authority: a seed it cannot
        # admit is an error, not a silent starting point. (Deferred
        # import — repro.core pulls this module in via the trainer.)
        from repro.core.memory_model import admits_placement
        if not admits_placement(block, host_bytes, node_budgets):
            raise PartitionError(
                "seed placement does not fit the per-node host budgets"
            )
    compute = None
    if compute_rows is not None:
        compute = np.asarray(compute_rows, dtype=np.int64)
        if compute.shape != (m, num_nodes):
            raise PartitionError(
                f"compute_rows must be (num_partitions, num_nodes) = "
                f"({m}, {num_nodes}), got shape {compute.shape}"
            )
    weights = partition_net_weights(partition)
    weights_sym = weights + weights.T
    rows_block = _cross_rows(weights, block)

    placement = block.copy()
    swaps = 0
    moves = 0
    refinements = 0
    if num_nodes > 1 and m > num_nodes:
        admission = _Admission(placement, num_nodes, max_imbalance,
                               host_bytes, node_budgets, dead_nodes)
        allow_moves = max_imbalance > 0
        applied = _greedy_improve(weights_sym, placement, num_nodes,
                                  admission, allow_moves, compute)
        swaps += applied[0]
        moves += applied[1]
        for _ in range(max_refinements):
            refinements += 1
            kept = _refinement_pass(weights_sym, placement, num_nodes,
                                    admission, compute)
            if kept == 0:
                break
            swaps += kept
            applied = _greedy_improve(weights_sym, placement, num_nodes,
                                      admission, allow_moves, compute)
            swaps += applied[0]
            moves += applied[1]

    rows_search = _cross_rows(weights, placement)
    compute_block = compute_search = None
    if compute is not None:
        indices = np.arange(m)
        compute_block = int(compute[indices, block].sum())
        compute_search = int(compute[indices, placement].sum())
    return PlacementResult(
        placement=placement, num_nodes=num_nodes,
        rows_block=rows_block, rows_search=rows_search,
        swaps=swaps, refinement_passes=refinements,
        moves=moves, max_imbalance=max_imbalance,
        compute_rows_block=compute_block,
        compute_rows_search=compute_search,
    )


def _greedy_improve(weights_sym: np.ndarray, placement: np.ndarray,
                    num_nodes: int, admission: _Admission,
                    allow_moves: bool,
                    compute: Optional[np.ndarray] = None
                    ) -> Tuple[int, int]:
    """Apply best-improving admissible swaps/moves until none remains.

    Mutates ``placement`` (and the admission state) in place and returns
    ``(swaps, moves)`` applied. Each step strictly reduces the integer
    objective (cut plus any compute term), so the loop terminates.
    Equal-gain swap-vs-move ties prefer the balance-preserving swap.
    """
    swaps = 0
    moves = 0
    exchange = _node_exchange(weights_sym, placement, num_nodes)
    while True:
        a, b, swap_gain = _best_swap(
            _swap_gains(weights_sym, placement, num_nodes, exchange,
                        compute),
            allowed=admission.swap_mask(placement),
        )
        move_gain = _SENTINEL
        if allow_moves:
            p, node, move_gain = _best_swap(
                _move_gains(weights_sym, placement, num_nodes, exchange,
                            compute),
                allowed=admission.move_mask(placement),
            )
        if swap_gain <= 0 and move_gain <= 0:
            break
        if swap_gain >= move_gain:
            _exchange_swap(exchange, weights_sym, placement, a, b)
            admission.apply_swap(placement, a, b)
            swaps += 1
        else:
            _exchange_move(exchange, weights_sym, placement, p, node)
            admission.apply_move(placement, p, node)
            moves += 1
    return swaps, moves


def _exchange_swap(exchange: np.ndarray, weights_sym: np.ndarray,
                   placement: np.ndarray, a: int, b: int) -> None:
    """Update E in place for the pending swap of a and b (exact ints)."""
    node_a, node_b = placement[a], placement[b]
    delta = weights_sym[:, b] - weights_sym[:, a]
    exchange[:, node_a] += delta
    exchange[:, node_b] -= delta


def _exchange_move(exchange: np.ndarray, weights_sym: np.ndarray,
                   placement: np.ndarray, p: int, node: int) -> None:
    """Update E in place for the pending move of p to ``node``."""
    exchange[:, placement[p]] -= weights_sym[:, p]
    exchange[:, node] += weights_sym[:, p]


def _refinement_pass(weights_sym: np.ndarray, placement: np.ndarray,
                     num_nodes: int, admission: _Admission,
                     compute: Optional[np.ndarray] = None) -> int:
    """One KL pass: swap-and-lock greedily, keep the best prefix.

    Mutates ``placement`` to the best prefix's state and returns the
    number of swaps kept (0 when no prefix beat the starting cut — the
    pass then leaves the placement exactly as it found it). Swaps never
    change per-node counts, so the pass preserves whatever (possibly
    uneven) balance the greedy phase reached; under byte budgets every
    trail step must itself be admissible, which keeps each prefix — in
    particular the kept one — admissible too.
    """
    working = placement.copy()
    tracker = _Admission(working, num_nodes, admission.max_imbalance,
                         admission.host_bytes, admission.budgets,
                         admission.dead)
    free = np.ones(len(placement), dtype=bool)
    cumulative = 0
    best_gain = 0
    best_prefix = 0
    trail: List[Tuple[int, int]] = []
    exchange = _node_exchange(weights_sym, working, num_nodes)
    while True:
        if len(np.unique(working[free])) < 2:
            break  # no two free partitions left on distinct nodes
        a, b, gain = _best_swap(
            _swap_gains(weights_sym, working, num_nodes, exchange,
                        compute),
            free, allowed=tracker.swap_mask(working),
        )
        if gain == _SENTINEL:
            break
        _exchange_swap(exchange, weights_sym, working, a, b)
        tracker.apply_swap(working, a, b)
        free[a] = free[b] = False
        trail.append((a, b))
        cumulative += gain
        if cumulative > best_gain:
            best_gain = cumulative
            best_prefix = len(trail)
    if best_prefix == 0:
        return 0
    for a, b in trail[:best_prefix]:
        admission.apply_swap(placement, a, b)
    return best_prefix


# ----------------------------------------------------------------------
# adversarial relabeling (benchmarks + tests)
# ----------------------------------------------------------------------
def permute_partitions(partition: TwoLevelPartition,
                       perm: np.ndarray) -> TwoLevelPartition:
    """Relabel partitions: new partition i is old partition ``perm[i]``.

    The chunks are shared — row i of the result holds the very chunk
    objects of old row ``perm[i]`` — and only the vertex→partition
    assignment is rewritten. A round-robin ``perm`` scatters the METIS
    ordering's contiguous locality across node blocks, which is how
    benchmarks and tests construct *skewed* orderings where the block
    placement is provably suboptimal (the placement search then recovers
    the contiguous grouping).
    """
    m = partition.num_partitions
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(m)):
        raise PartitionError(
            f"perm must be a permutation of range({m}), got {perm.tolist()}"
        )
    inverse = np.empty(m, dtype=np.int64)
    inverse[perm] = np.arange(m, dtype=np.int64)
    return TwoLevelPartition(partition.graph,
                             [list(partition.chunks[p]) for p in perm],
                             inverse[partition.assignment])
